"""Quadratic algebras on transpositions with sign-twisted conjugation."""

from nicholsalg import fk
from nicholsalg.braided import (
    apply_braiding_word,
    check_braid_equation,
    compose_perm,
    group_grading,
)
from nicholsalg.tensoralg import nichols_dims
from nicholsalg.fk import (
    _perm_of,
    build_fk_space,
    fk_bialgebra,
    fk_chi,
    fk_dims_rewriting,
    fk_relations,
    fk_rigidity,
    transpositions,
)
from symmetrizer_oracle import ideal_component


def test_chi_rule():
    swap12 = (1, 0, 2, 3)
    assert fk_chi(swap12, (1, 2)) == -1  # sigma reverses its own pair
    assert fk_chi(swap12, (3, 4)) == 1  # disjoint pair untouched
    assert fk_chi(swap12, (1, 3)) == 1  # 1 -> 2 < 3
    swap13 = (2, 1, 0)
    assert fk_chi(swap13, (1, 2)) == -1  # 1 -> 3 > 2


def test_braiding_is_twisted_conjugation():
    V = build_fk_space(3)
    pairs = transpositions(3)
    i12, i13, i23 = (pairs.index(p) for p in ((1, 2), (1, 3), (2, 3)))
    assert apply_braiding_word(V, (i12, i13), 0) == (1, (i23, i12))
    assert apply_braiding_word(V, (i13, i12), 0) == (-1, (i23, i13))


def test_relation_counts():
    assert len(fk_relations(3)) == 5
    assert len(fk_relations(4)) == 17
    assert len(fk_relations(5)) == 45


def test_braid_equation_through_n6():
    for n in (3, 4, 5, 6):
        ok, bad = check_braid_equation(build_fk_space(n))
        assert ok, (n, bad)


def test_n3_dims_both_routes():
    assert fk_dims_rewriting(3, 4) == [1, 3, 4, 3, 1]
    assert nichols_dims(build_fk_space(3), 4) == [1, 3, 4, 3, 1]


def test_degree2_kernel_is_relation_span():
    for n in (3, 4):
        V = build_fk_space(n)
        assert len(ideal_component(V, 2)) == len(fk_relations(n))


def test_hilbert_series_palindromic():
    dims = fk_dims_rewriting(3, 4)
    assert dims == dims[::-1]
    assert sum(dims) == 12


def test_relations_group_homogeneous():
    V = build_fk_space(4)
    grading = group_grading(V.group_degrees)
    for rel in fk_relations(4):
        assert grading.element_label(rel) is not None


def test_rigidity_bookkeeping():
    for n in (3, 4, 10):
        verdict, details = fk_rigidity(n)
        assert verdict == "Rigid" and not details, n


def test_rigidity_flags_generator_degree_and_inhomogeneous_relations(monkeypatch):
    catalog = fk.fk_relations
    extra = [{(0,): 1}, {(0, 0): 1, (0, 1): 1}]
    monkeypatch.setattr(fk, "fk_relations", lambda n: catalog(n) + extra)
    verdict, details = fk_rigidity(3)
    assert verdict == "NotDecided"
    assert details == [("generator-degree relation", extra[0]), ("inhomogeneous", extra[1])]


def test_bialgebra_category_action():
    B, _ = fk_bialgebra(3)
    cat = B.category
    # labels multiply like Sym(3); the unit label is the identity permutation
    assert cat.label_unit == tuple(range(3)) == cat.labels[B.unit]
    for i in range(B.dim):
        for j in range(B.dim):
            lij = cat.label_mul(cat.labels[i], cat.labels[j])
            for k in B.mult(i, j):
                assert cat.labels[k] == lij


def test_bialgebra_action_is_conjugation_by_adjacent_transpositions():
    """action_gens[k] sends each basis word x_{t_1}...x_{t_m} to
    prod chi(s, t_i) x_{s t_1 s}...x_{s t_m s}, s = (k+1, k+2), in normal form."""
    n = 3
    B, _ = fk_bialgebra(n)
    pairs = transpositions(n)
    perms = [_perm_of(p, n) for p in pairs]
    gens = B.category.action_gens
    assert len(gens) == n - 1
    for k, mat in enumerate(gens):
        s = _perm_of((k + 1, k + 2), n)
        for w, row in zip(B.flat, mat):
            coeff = 1
            img = []
            for t in w:
                conj = compose_perm(compose_perm(s, perms[t]), s)
                img.append(perms.index(conj))
                coeff = coeff * fk_chi(s, pairs[t])
            want = {b: coeff * c for b, c in B.vec_of({tuple(img): 1}).items()}
            assert row == want, (k, w)
