"""Finite graded bialgebras presented by rewriting."""

from argparse import Namespace
from itertools import chain

import pytest

from nicholsalg.braided import build_diagonal
from nicholsalg.cli import _finite_bialgebra
from nicholsalg.configs import load_shipped
from nicholsalg.cyclo import one, rational, zeta
from nicholsalg.fk import fk_bialgebra
from nicholsalg.tensoralg import ideal_component, monomial
from nicholsalg.bialgebra import (
    GradedBialgebraData,
    attach_diagonal_category,
    biideal_witness,
    from_nichols,
    nichols_ideal_biideal_check,
)
from nicholsalg.relations import canonical_realization
from nicholsalg.rewriting import rewrite_dims
from nicholsalg.linalg import add_term


def rank1_algebra(N):
    V = build_diagonal([[zeta(N)]])
    rels = [monomial((0,) * N)]
    return V, from_nichols(V, rels, N + 1)


def test_truncated_line_structure():
    V, B = rank1_algebra(3)
    assert B.dims() == [1, 1, 1]
    assert B.top_degree == 2
    x = B.index[(0,)]
    x2 = B.index[(0, 0)]
    assert B.mult(x, x) == {x2: one()}
    assert B.mult(x2, x) == {}
    cop = B.coprod(x2)
    assert cop[(x, x)] == one() + zeta(3)
    assert cop[(0, x2)] == one() and cop[(x2, 0)] == one()


def test_axioms_hold():
    for N in (2, 3, 4):
        _, B = rank1_algebra(N)
        report = B.check_all()
        assert all(ok for ok, _ in report.values()), (N, report)


def test_primitive_dims_rank1():
    _, B = rank1_algebra(3)
    assert B.primitive_dims() == [0, 1, 0]


def test_fk3_primitives_and_dims():
    B, _ = fk_bialgebra(3)
    assert B.dims() == [1, 3, 4, 3, 1]
    assert B.primitive_dims() == [0, 3, 0, 0, 0]
    report = B.check_all()
    assert all(ok for ok, _ in report.values()), report


def test_category_labels_multiplicative():
    cfg = load_shipped("a2_super")
    V = cfg.space()
    rels = ideal_component(V, 2) + ideal_component(V, 3) + ideal_component(V, 4)
    B = from_nichols(V, rels, cfg.budgets["max_degree"])
    attach_diagonal_category(B, cfg.realization(V))
    cat = B.category
    for i in range(B.dim):
        for j in range(B.dim):
            lij = cat.label_mul(cat.labels[i], cat.labels[j])
            for k in B.mult(i, j):
                assert cat.labels[k] == lij


def test_non_coideal_rejected():
    # x^2 - x is not homogeneous-compatible with the coproduct
    V = build_diagonal([[rational(2)]])
    rel = {(0, 0): one(), (0,): -one()}
    with pytest.raises(ValueError):
        from_nichols(V, [rel], 4)


def test_biideal_witness_reports_leftover():
    V = build_diagonal([[rational(2)]])
    rels = [monomial((0, 0))]
    _, rs = rewrite_dims(1, rels, 4)
    bad = biideal_witness(V, rs, rels)
    # x^2 with q generic: Delta(x^2) has (1+q) x (x) x, not in the ideal
    assert bad is not None


def test_nichols_ideal_is_biideal():
    for name in ("rank1_zeta4", "a2_cartan_zeta3", "rank3_square"):
        V = load_shipped(name).space()
        ok, witness = nichols_ideal_biideal_check(V, max_degree=4)
        assert ok, (name, witness)


def test_braid_tensor_matches_category():
    V, B = rank1_algebra(3)
    attach_diagonal_category(B, canonical_realization(V))
    x = B.index[(0,)]
    out = B.braid(x, x)
    assert out == {(x, x): zeta(3)}


def _built(name):
    """fk3 (a nonabelian category) or a2_super (super signs), built afresh."""
    if name == "fk3":
        return fk_bialgebra(3)[0]
    return _finite_bialgebra(load_shipped(name), Namespace(max_degree=None))[0]


def _reference_coactions(B, t):
    """Both coactions from coprod_tensor and mprod, filtered to positive legs."""
    left, right = {}, {}
    for (t1, t2), c in B.coprod_tensor(t).items():
        if all(B.degree(i) > 0 for i in t2):
            for j, cm in B.mprod(t1).items():
                add_term(left, (j, t2), c * cm)
        if all(B.degree(i) > 0 for i in t1):
            for j, cm in B.mprod(t2).items():
                add_term(right, (t1, j), c * cm)
    return left, right


@pytest.mark.parametrize("name", ["fk3", "a2_super"])
def test_coactions_keep_positive_legs(name):
    B = _built(name)
    for t in chain(B.positive_tuples(1), B.positive_tuples(2)):
        left, right = _reference_coactions(B, t)
        assert B.coact_left(t) == left, (name, t)
        assert B.coact_right(t) == right, (name, t)


def _count_mult(monkeypatch):
    """The list that records every later GradedBialgebraData.mult call."""
    calls = []
    mult = GradedBialgebraData.mult

    def counting_mult(self, i, j):
        calls.append((i, j))
        return mult(self, i, j)

    monkeypatch.setattr(GradedBialgebraData, "mult", counting_mult)
    return calls


@pytest.mark.parametrize("name", ["fk3", "a2_super"])
def test_mprod_computed_once(name, monkeypatch):
    B = _built(name)
    calls = _count_mult(monkeypatch)
    tuples = list(chain(B.positive_tuples(2), B.positive_tuples(3)))
    first = [B.mprod(t) for t in tuples]
    assert calls
    calls.clear()
    assert [B.mprod(t) for t in tuples] == first
    assert calls == []


@pytest.mark.parametrize("name", ["fk3", "a2_super"])
def test_mult_tensor_computed_once(name, monkeypatch):
    B = _built(name)
    calls = _count_mult(monkeypatch)
    pairs = [(i, t) for i in B.positive() for t in B.positive_tuples(2)]

    def actions():
        return [(B.act_left(i, t), B.act_right(t, i)) for i, t in pairs]

    first = actions()
    assert calls
    calls.clear()
    assert actions() == first
    assert calls == []
