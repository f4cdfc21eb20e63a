"""Relation catalogs, realizations, and the grading-pair rigidity test."""

import pytest

from nicholsalg.braided import build_diagonal, realization
from nicholsalg.configs import load_shipped, shipped_config_names
from nicholsalg.cyclo import zeta
from nicholsalg import relations
from nicholsalg.fk import fk_relations
from nicholsalg.relations import (
    _FAMILIES,
    RelationInstance,
    char_value,
    check_prop_gchi,
    g_chi,
    generate_relations,
    rigidity_verdict,
)
from nicholsalg.weyl import enumerate_roots
from symmetrizer_oracle import is_in_nichols_ideal


def a2_cartan():
    return build_diagonal([[zeta(3), zeta(3, 2)], [1, zeta(3)]])


def test_canonical_realization_reproduces_qmatrix():
    V = a2_cartan()
    real = realization(V)
    units = [(1, 0), (0, 1)]
    for i in range(2):
        g_i, _ = real.label((i,))
        assert g_i == units[i]
        for j in range(2):
            _, chi_j = real.label((j,))
            assert char_value(chi_j, g_i) == V.q(i, j)
    assert real.label((0, 0, 0, 0, 1, 1, 1))[0] == (4, 3)


def test_quotient_realization_requires_divisibility():
    V = a2_cartan()
    real = realization(V, 3)
    for i in range(2):
        g_i, _ = real.label((i,))
        for j in range(2):
            assert char_value(real.label((j,))[1], g_i) == V.q(i, j)
    g, chi = real.label((0, 0, 0, 0, 1, 1))
    assert g == (1, 2)
    # chi_1^4 chi_2^2 on e_1 is q_11^4 q_12^2
    assert chi[0] == V.q(0, 0) ** 4 * V.q(0, 1) ** 2
    with pytest.raises(ValueError):
        realization(V, 2)


def test_a2_relation_families():
    V = a2_cartan()
    rels = generate_relations(V, enumerate_roots(V))
    fams = {r.family for r in rels}
    assert "quantum_serre" in fams
    assert "cartan_root_power" in fams
    # every instance carrying an element lands in the defining ideal
    for r in rels:
        if r.element is not None and sum(r.degree) <= 6:
            assert is_in_nichols_ideal(V, r.element), (r.family, r.participants)


def _relation_elements():
    for name in shipped_config_names():
        cfg = load_shipped(name)
        if cfg.kind != "diagonal":
            continue
        V = cfg.space()
        rs = enumerate_roots(
            V, cap=cfg.budgets["cartan_cap"], object_cap=cfg.budgets["object_cap"]
        )
        for r in generate_relations(V, rs):
            if r.element is not None:
                yield (name, r.family, r.participants), r.element
    for n in (3, 4):
        for k, rel in enumerate(fk_relations(n)):
            yield (f"fk{n}", k), rel


def test_relation_elements_are_homogeneous_sparse_vectors():
    sources = set()
    for where, el in _relation_elements():
        assert type(el) is dict and el, where
        assert len({len(w) for w in el}) == 1, where
        assert all(el.values()), where
        sources.add(where[0])
    assert sources == set(shipped_config_names())


def test_relation_degrees_match_elements():
    cfg = load_shipped("a2_super")
    V = cfg.space()
    for r in generate_relations(V, enumerate_roots(V)):
        if r.element is None:
            continue
        for word in r.element:
            deg = [0] * V.rank
            for letter in word:
                deg[letter] += 1
            assert tuple(deg) == r.degree


def test_gchi_witness_square_of_bracket():
    cfg = load_shipped("rank3_square")
    V = cfg.space()
    real = cfg.realization(V)
    rels = [r for r in generate_relations(V, enumerate_roots(V)) if r.family == "square_of_bracket"]
    assert rels
    _, _, scalar = g_chi(real, rels[0])
    assert scalar == 1


def test_gchi_witness_mid_vertex_bracket():
    cfg = load_shipped("rank3_super_a3")
    V = cfg.space()
    real = cfg.realization(V)
    rels = [
        r for r in generate_relations(V, enumerate_roots(V)) if r.family == "mid_vertex_bracket"
    ]
    assert (0, 1, 2) in [r.participants for r in rels]
    for r in rels:
        _, _, scalar = g_chi(real, r)
        assert scalar == V.q(0, 0) * V.q(2, 2)
        assert scalar == (-zeta(3)).lift(6)


def test_prop_gchi_reports_shape():
    V = a2_cartan()
    rels = generate_relations(V, enumerate_roots(V))
    reports = check_prop_gchi(realization(V), rels)
    assert reports and all(rep["ok"] for rep in reports)
    for rep in reports:
        assert "chi_R(g_R)" in rep["witnesses"]


def test_relation_of_a_generator_label_clashes(monkeypatch):
    """In (Z/3)^2 a relation of degree (4, 0) has the label of x_1, so the
    criterion decides nothing once such a relation is in the catalog."""
    V = build_diagonal([[zeta(3), 1], [1, zeta(3)]])
    real = realization(V, 3)
    clash = RelationInstance("clash", (0,), (4, 0))
    [rep] = check_prop_gchi(real, [clash])
    assert rep["clashes"] == [0] and not rep["ok"]
    catalog = relations.generate_relations
    monkeypatch.setattr(relations, "generate_relations", lambda V, rs: catalog(V, rs) + [clash])
    verdict, reports = rigidity_verdict(V, enumerate_roots(V), real)
    assert verdict == "NotDecided"
    assert [rep["instance"] for rep in reports if not rep["ok"]] == [clash]


def test_rigidity_verdicts():
    for name in ("rank1_zeta3", "a2_cartan_zeta3", "b2", "rank3_triangle"):
        cfg = load_shipped(name)
        V = cfg.space()
        verdict, _ = rigidity_verdict(V, enumerate_roots(V), cfg.realization(V))
        assert verdict == "Rigid", name


def test_pre_nichols_filter():
    V = a2_cartan()
    real = realization(V)
    _, reports = rigidity_verdict(V, enumerate_roots(V), real, pre_nichols=True)
    assert all(r["instance"].family != "cartan_root_power" for r in reports)
    verdict, _ = rigidity_verdict(V, enumerate_roots(V), real, pre_nichols=True)
    assert verdict == "Rigid"


def test_rigidity_requires_finite_type():
    V = build_diagonal([[zeta(3), zeta(3)], [1, zeta(3)]])
    with pytest.raises(ValueError):
        rigidity_verdict(V, enumerate_roots(V, cap=1), realization(V))


# One case per catalog family, found by a seeded sweep of diagonal
# braidings: a q-matrix q_ij = zeta_N^e_ij on which the family fires and whose
# root system is finite. The rank-4 and triple_j_bracket cases are symmetric,
# which keeps their reflection walks to a few dozen q-matrices.
F4_TWO_TERM_DEFECT = (
    "the element is not in the Nichols ideal: its two terms are proportional "
    "modulo the ideal, but with another scalar than q_jk (qt_ij^-1 - q_jj)"
)

FAMILY_CASES = [
    # (family, N, exponents e_ij, participants, degree, note)
    ("cartan_root_power", 5, [[1, 4], [0, 1]], ((0, 1),), (0, 5), ""),
    ("quantum_serre", 5, [[1, 4], [0, 1]], (0, 1), (2, 1), ""),
    ("simple_root_power", 8, [[2, 3], [0, 4]], (0,), (4, 0), ""),
    ("square_of_bracket", 12, [[6, 0, 6], [0, 8, 2], [0, 0, 6]], (0, 2, 1), (2, 0, 2), ""),
    ("mid_vertex_bracket", 12, [[4, 0, 10], [0, 6, 2], [0, 0, 6]], (0, 2, 1), (1, 1, 2), ""),
    ("double_i_bracket", 12, [[4, 0, 10], [0, 6, 2], [0, 0, 6]], (0, 2, 1), (3, 1, 2), ""),
    ("triangle", 6, [[3, 2, 2], [0, 3, 2], [0, 0, 3]], (0, 1, 2), (1, 1, 1), ""),
    (
        "nested_c3_bracket", 12, [[6, 0, 6], [0, 8, 2], [0, 0, 6]],
        (1, 2, 0), (1, 2, 3), "variant iii",
    ),
    ("nested_g3_bracket", 12, [[6, 6, 6], [0, 6, 0], [0, 0, 3]], (1, 0, 2), (4, 3, 1), ""),
    ("double_j_bracket", 12, [[6, 4, 0], [0, 4, 8], [0, 0, 6]], (2, 1, 0), (1, 3, 1), ""),
    ("ninth_root_chain", 18, [[6, 8, 0], [0, 10, 8], [0, 0, 10]], (0, 1, 2), (5, 3, 1), ""),
    ("ninth_root_two_term", 18, [[6, 16, 0], [0, 2, 14], [0, 0, 4]], (2, 1, 0), (2, 2, 1), ""),
    ("triple_j_bracket", 16, [[8, 6, 0], [6, 4, 2], [0, 2, 12]], (0, 1, 2), (1, 4, 1), ""),
    ("pair_chain_bracket", 12, [[4, 8, 6], [0, 6, 0], [0, 0, 6]], (2, 0, 1), (2, 1, 2), ""),
    ("three_term_cube_edge", 12, [[8, 2, 8], [0, 6, 0], [0, 0, 6]], (2, 0, 1), (2, 1, 1), ""),
    ("double_edge_sum", 12, [[8, 2, 8], [0, 6, 0], [0, 0, 6]], (0, 2, 1), (3, 1, 1), ""),
    ("rank3_tail_bracket", 12, [[6, 0, 6], [0, 8, 2], [0, 0, 6]], (1, 2, 0), (2, 3, 2), ""),
    (
        "chain_c4_bracket", 24, [[4, 10, 0, 0], [10, 4, 10, 0], [0, 10, 12, 4], [0, 0, 4, 16]],
        (0, 1, 2, 3), (1, 2, 3, 1), "",
    ),
    (
        "chain_c4_modified", 24, [[12, 9, 0, 0], [9, 6, 9, 0], [0, 9, 12, 3], [0, 0, 3, 12]],
        (0, 1, 2, 3), (2, 3, 4, 1), "",
    ),
    (
        "f4_nested_pair", 24, [[6, 9, 0, 0], [9, 12, 6, 0], [0, 6, 12, 6], [0, 0, 6, 12]],
        (0, 1, 2, 3), (2, 5, 3, 1), "",
    ),
    pytest.param(
        "f4_two_term", 24, [[2, 11, 0, 0], [11, 12, 6, 0], [0, 6, 12, 7], [0, 0, 7, 10]],
        (0, 1, 2, 3), (1, 2, 2, 1), "variant ii",
        marks=pytest.mark.xfail(strict=True, reason=F4_TWO_TERM_DEFECT),
    ),
    ("sixth_root_bracket", 12, [[1, 9], [0, 6]], (0, 1), (3, 2), ""),
    ("two_vertex_mixed", 12, [[4, 5], [0, 4]], (0, 1), (2, 2), ""),
    ("high_root_serre", 8, [[2, 3], [0, 4]], (0, 1), (4, 2), ""),
    ("tower43_vanishes", 8, [[2, 3], [0, 4]], (0, 1), (4, 3), ""),
    ("bracket_iij_tower32", 8, [[2, 3], [0, 4]], (0, 1), (5, 3), ""),
    ("tower54_vanishes", 10, [[2, 4], [0, 5]], (0, 1), (5, 4), ""),
    ("bracket_iiij_iij_iij", 10, [[1, 6], [0, 5]], (0, 1), (7, 3), ""),
    ("high_power_square", 14, [[1, 11], [0, 7]], (0, 1), (6, 4), ""),
]


def _family(case):
    return case.values[0] if hasattr(case, "values") else case[0]


def test_family_cases_cover_the_catalog():
    names = [_family(case) for case in FAMILY_CASES]
    catalog = ["cartan_root_power", "quantum_serre", "simple_root_power", "square_of_bracket"]
    assert names == catalog + [spec[0] for spec in _FAMILIES]


@pytest.mark.parametrize(
    "family, N, exponents, participants, degree, note",
    FAMILY_CASES,
    ids=[_family(case) for case in FAMILY_CASES],
)
def test_catalog_family(family, N, exponents, participants, degree, note):
    V = build_diagonal([[zeta(N, e) for e in row] for row in exponents])
    rs = enumerate_roots(V)
    assert rs.finite
    found = [
        r for r in generate_relations(V, rs)
        if r.family == family and r.participants == participants
    ]
    assert [(r.degree, r.note) for r in found] == [(degree, note)]
    if sum(degree) <= 8:
        assert is_in_nichols_ideal(V, found[0].element)
