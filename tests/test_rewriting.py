"""Degree-truncated rewriting and normal-word counting."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicholsalg.braided import build_diagonal
from nicholsalg.configs import load_shipped, shipped_config_names
from nicholsalg.cyclo import CycNumber, one, rational, zeta
from nicholsalg.tensoralg import monomial, nichols_dims
from nicholsalg.relations import generate_relations
from nicholsalg.linalg import sparse_rank
from nicholsalg.rewriting import rewrite_dims
from nicholsalg.weyl import enumerate_roots


def test_power_relation_truncates():
    dims, _ = rewrite_dims(1, [monomial((0, 0, 0))], 6)
    assert dims == [1, 1, 1, 0, 0, 0, 0]


def test_commutative_pair():
    # yx = xy: dims of the polynomial ring in 2 variables
    rel = {(1, 0): one(), (0, 1): -one()}
    dims, _ = rewrite_dims(2, [rel], 5)
    assert dims == [1, 2, 3, 4, 5, 6]


def test_overlap_completion_needed():
    # quantum plane with both square relations: overlaps produce new rules
    q = zeta(3)
    rels = [
        monomial((0, 0)),
        monomial((1, 1)),
        {(1, 0): one(), (0, 1): -q},
    ]
    dims, rs = rewrite_dims(2, rels, 8)
    assert dims[:5] == [1, 2, 1, 0, 0]


def test_normal_form_idempotent():
    rel = {(1, 0): one(), (0, 1): -one()}
    _, rs = rewrite_dims(2, [rel], 6)
    nf = rs.normal_form_word((1, 0, 1, 0))
    again = {}
    for w, c in nf.items():
        for w2, c2 in rs.normal_form_word(w).items():
            again[w2] = again.get(w2, rational(0)) + c * c2
    assert nf == again


small_roots = st.sampled_from([rational(-1), zeta(3), zeta(4)])


@given(small_roots, small_roots, small_roots)
@settings(max_examples=15, deadline=None)
def test_serre_presentation_matches_symmetrizer(q11, q12, q22):
    """Kernel-of-symmetrizer generators in degree <= 3 bound the dims above.

    Rewriting by low-degree ideal generators can only overshoot the
    symmetrizer dims, never undershoot.
    """
    from nicholsalg.tensoralg import ideal_component

    V = build_diagonal([[q11, q12], [one(), q22]])
    rels = ideal_component(V, 2) + ideal_component(V, 3)
    cap = 5
    dims, _ = rewrite_dims(2, rels, cap)
    nd = nichols_dims(V, cap)
    assert all(a >= b for a, b in zip(dims, nd))


def test_rule_interreduction():
    # a shorter lead subsumes the longer rule
    _, rs = rewrite_dims(1, [{(0, 0, 0, 0): one()}, {(0, 0): one()}], 8)
    assert set(rs.rules) == {(0, 0)}


def test_non_homogeneous_relation_is_rejected():
    with pytest.raises(ValueError, match="homogeneous"):
        rewrite_dims(2, [{(0,): one(), (0, 1): one()}], 3)


@st.composite
def homogeneous_relations(draw):
    rank = draw(st.sampled_from([2, 3]))
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        letters = [st.integers(0, rank - 1)] * draw(st.integers(1, 3))
        words = draw(st.lists(st.tuples(*letters), min_size=1, max_size=3, unique=True))
        rels.append({w: rational(draw(st.sampled_from([-2, -1, 1, 2]))) for w in words})
    return rank, rels


@given(homogeneous_relations())
@settings(max_examples=25, deadline=None)
def test_completion_matches_ideal_ranks(case):
    """dim_d = rank^d - rank of the span of all u r v of degree d."""
    rank, rels = case
    top = 6
    dims, _ = rewrite_dims(rank, rels, top)
    expected = []
    for d in range(top + 1):
        rows = []
        for r in rels:
            n = len(next(iter(r)))
            for left in range(d - n + 1):
                for u in product(range(rank), repeat=left):
                    for v in product(range(rank), repeat=d - n - left):
                        rows.append({u + w + v: c for w, c in r.items()})
        expected.append(rank**d - sparse_rank(rows))
    assert dims == expected


DIAGONAL_CONFIGS = [n for n in shipped_config_names() if load_shipped(n).kind == "diagonal"]


@pytest.mark.parametrize("name", DIAGONAL_CONFIGS)
def test_routes_agree_on_shipped_config(name):
    """Symmetrizer ranks and the rewritten relation catalog give the same
    dims through degree 6."""
    cfg = load_shipped(name)
    V = cfg.space()
    roots = enumerate_roots(
        V, cap=cfg.budgets["cartan_cap"], object_cap=cfg.budgets["object_cap"]
    )
    assert roots.finite
    elems = [
        inst.element
        for inst in generate_relations(V, roots)
        if inst.element is not None
    ]
    dims, _ = rewrite_dims(V.rank, elems, 6)
    assert nichols_dims(V, 6) == dims


def test_unit_lead_needs_no_inverse(monkeypatch):
    calls = []
    inverse = CycNumber.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(CycNumber, "inverse", counting)
    _, rs = rewrite_dims(2, [{(1, 0): one(), (0, 1): -zeta(3)}, {(1, 1): one()}], 6)
    assert set(rs.rules) == {(1, 0), (1, 1)}
    assert calls == []
    assert rs.rules[(1, 0)] == {(0, 1): zeta(3)}


def test_zero_relation_is_skipped():
    dims, _ = rewrite_dims(1, [{}], 3)
    assert dims == [1, 1, 1, 1]
    dims, _ = rewrite_dims(1, [{}, {(0, 0): one()}], 3)
    assert dims == [1, 1, 0, 0]
