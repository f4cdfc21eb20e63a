"""Reflection groupoid walks and root enumeration."""

import random
from collections import Counter
from itertools import combinations

import pytest

from nicholsalg import weyl
from nicholsalg.braided import bichar, build_diagonal, is_cartan_vertex
from nicholsalg.configs import load_shipped, shipped_config_names
from nicholsalg.cyclo import zeta
from nicholsalg.weyl import cartan_matrix, enumerate_roots

import weyl_oracle
from weyl_oracle import reflect_qmatrix


def a2_cartan():
    return build_diagonal([[zeta(3), zeta(3, 2)], [1, zeta(3)]])


def test_a2_positive_roots():
    rs = enumerate_roots(a2_cartan())
    assert rs.finite
    assert rs.positive_roots == [(0, 1), (1, 0), (1, 1)]
    assert rs.cartan_roots == [(0, 1), (1, 0), (1, 1)]


def test_a2_super_roots():
    V = build_diagonal([[-1, 1], [zeta(3, 2), zeta(3)]])
    rs = enumerate_roots(V)
    assert rs.finite
    assert rs.positive_roots == [(0, 1), (1, 0), (1, 1)]


def test_b2_roots():
    V = build_diagonal([[zeta(3), -zeta(3)], [1, -1]])
    rs = enumerate_roots(V)
    assert rs.finite
    assert rs.positive_roots == [(0, 1), (1, 0), (1, 1), (2, 1)]


def test_reflection_involution():
    V = a2_cartan()
    q2 = reflect_qmatrix(V, 0, cartan_matrix(V)[0])
    W = build_diagonal(q2)
    assert reflect_qmatrix(W, 0, cartan_matrix(W)[0]) == V.qmatrix


def test_reflection_preserves_diagram_class():
    # reflecting at a Cartan vertex of a Cartan matrix keeps q_ii values
    V = a2_cartan()
    q2 = reflect_qmatrix(V, 1, cartan_matrix(V)[1])
    assert tuple(q2[i][i] for i in range(2)) == (zeta(3), zeta(3))


def test_infinite_type_detected():
    # affine-type Cartan matrix [[2,-2],[-2,2]]: the walk never closes
    V = build_diagonal([[zeta(3), zeta(3)], [1, zeta(3)]])
    rs = enumerate_roots(V, object_cap=1)
    assert not rs.finite


# the seven configs of the perfbench rewriting workload
REWRITE_CONFIGS = [
    "a2_cartan_zeta3", "a2_super", "b2",
    "rank3_square", "rank3_super_a3", "rank3_triangle", "rank1_zeta6",
]


def diagram_key(V):
    pairs = combinations(range(V.rank), 2)
    return tuple(V.q(i, i) for i in range(V.rank)), tuple(V.qtilde(i, j) for i, j in pairs)


def test_each_chi_value_and_diagram_computed_once(monkeypatch):
    """Every chi(alpha, beta) is evaluated at most once per walk, and every
    diagram gets at most one Cartan matrix."""
    evals, diagrams = [], []

    def counting_chi(values, alpha, beta):
        evals.append((alpha, beta))
        return bichar(values, alpha, beta)

    def counting_cartan(V, *args, **kwargs):
        diagrams.append(diagram_key(V))
        return cartan_matrix(V, *args, **kwargs)

    monkeypatch.setattr(weyl, "bichar", counting_chi)
    monkeypatch.setattr(weyl, "cartan_matrix", counting_cartan)
    total = Counter()
    for name in REWRITE_CONFIGS:
        cfg = load_shipped(name)
        evals.clear()
        diagrams.clear()
        rs = enumerate_roots(
            cfg.space(), cap=cfg.budgets["cartan_cap"], object_cap=cfg.budgets["object_cap"]
        )
        assert rs.finite
        assert len(evals) == len(set(evals)), name
        assert len(diagrams) == len(set(diagrams)) <= rs.objects, name
        total.update(chi=len(evals), cartan=len(diagrams))
    # the oracle walk makes 1,609 evaluations and 69 Cartan matrices
    assert total == Counter(chi=349, cartan=19)


def assert_walks_agree(V, **caps):
    rs, oracle = enumerate_roots(V, **caps), weyl_oracle.enumerate_roots(V, **caps)
    for field in ("finite", "positive_roots", "cartan_roots", "objects", "cartan", "cartan_vertices"):
        assert getattr(rs, field) == getattr(oracle, field), (field, V.qmatrix)
    return rs


@pytest.mark.parametrize(
    "name", [n for n in shipped_config_names() if load_shipped(n).kind == "diagonal"]
)
def test_walk_matches_oracle_on_shipped_configs(name):
    cfg = load_shipped(name)
    rs = assert_walks_agree(
        cfg.space(), cap=cfg.budgets["cartan_cap"], object_cap=cfg.budgets["object_cap"]
    )
    assert rs.finite


def test_walk_matches_oracle_on_not_finite_inputs():
    affine = build_diagonal([[zeta(3), zeta(3)], [1, zeta(3)]])
    assert not assert_walks_agree(affine, object_cap=1).finite
    undefined = build_diagonal([[2, 3], [1, -1]])
    assert not assert_walks_agree(undefined).finite


def test_undefined_cartan_integer_is_not_finite():
    # q_11 = 2 is no root of unity: c[0][1] is undefined at any cap
    V = build_diagonal([[2, 3], [1, -1]])
    assert not enumerate_roots(V).finite


# Exponent templates e_ij of q_ij = zeta_N^e_ij, one per diagram shape the
# catalog families use: None is a random exponent, "h" is N/2 (q_ij = -1) and
# 0 is q_ij = 1 (no contribution to the edge).
TEMPLATES = [
    [[None, None], [0, None]],
    [["h", None], [0, None]],
    [["h", None], [0, "h"]],
    [[None, None, 0], [0, None, None], [0, 0, None]],
    [[None, None, 0], [0, "h", None], [0, 0, None]],
    [["h", None, 0], [0, "h", None], [0, 0, "h"]],
    [[None, None, None], [0, None, None], [0, 0, None]],
]


def _seeded_braidings(seed, count):
    """(N, exponents) of rank-2 and rank-3 diagonal braidings over Q(zeta_12)
    and Q(zeta_18): three in four from a template, the rest all random."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        N = rng.choice((12, 18))
        if rng.random() < 0.75:
            rows = rng.choice(TEMPLATES)
        else:
            rank = rng.choice((2, 3))
            rows = [[None] * rank for _ in range(rank)]
        exps = [
            [rng.randrange(N) if e is None else (N // 2 if e == "h" else e) for e in row]
            for row in rows
        ]
        out.append((N, exps))
    return out


def test_root_data_carries_the_cartan_matrix():
    # a walk that does not close stops at 1000 * object_cap states, so a low
    # cap keeps the non-finite inputs cheap; the invariant holds at any cap.
    # Each walk also equals the oracle walk.
    finite = 0
    for N, exps in _seeded_braidings(15, 60):
        V = build_diagonal([[zeta(N, e) for e in row] for row in exps])
        rs = assert_walks_agree(V, object_cap=8)
        if not rs.finite:
            assert rs.cartan is None and rs.cartan_vertices is None, (N, exps)
            continue
        finite += 1
        assert rs.cartan == cartan_matrix(V), (N, exps)
        assert all(c is not None for row in rs.cartan for c in row), (N, exps)
        flags = [is_cartan_vertex(V, i, rs.cartan[i]) for i in range(V.rank)]
        assert rs.cartan_vertices == flags, (N, exps)
    assert 0 < finite < 60
