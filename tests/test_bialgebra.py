"""Finite graded braided bialgebras read off the Nichols layers."""

from argparse import Namespace
from itertools import chain, product

import pytest

from nicholsalg.braided import bichar, braid_word_blocks, build_diagonal
from nicholsalg.cli import _catalog_elements, _finite_bialgebra
from nicholsalg.configs import load_shipped, shipped_config_names
from nicholsalg.cyclo import zeta
from nicholsalg.fk import build_fk_space, fk_bialgebra, fk_relations
from nicholsalg.tensoralg import NicholsDegree, monomial
from nicholsalg import bialgebra
from nicholsalg.bialgebra import GradedBialgebraData, attach_diagonal_category, from_nichols
from nicholsalg.relations import realization
from nicholsalg.rewriting import rewrite_dims
from nicholsalg.linalg import add_term, row_axpy, sparse_rank

import symmetrizer_oracle
from cocycle_helpers import check_bialgebra_axioms
from symmetrizer_oracle import braided_coproduct, nichols_ideal_biideal_check


def rank1_algebra(N):
    V = build_diagonal([[zeta(N)]])
    return V, from_nichols(V, N + 1)


def test_truncated_line_structure():
    V, B = rank1_algebra(3)
    assert B.dims() == [1, 1, 1]
    assert B.top_degree == 2
    x = B.index[(0,)]
    x2 = B.index[(0, 0)]
    assert B.mult(x, x) == {x2: 1}
    assert B.mult(x2, x) == {}
    cop = B.coprod(x2)
    assert cop[(x, x)] == 1 + zeta(3)
    assert cop[(0, x2)] == 1 and cop[(x2, 0)] == 1
    # a letter outside the alphabet would index another word's normal form
    for letter in (1, -1):
        with pytest.raises(ValueError, match=f"letter {letter} is outside the alphabet of rank 1"):
            B.vec_of({(0, letter): 1})


def axioms(B):
    return check_bialgebra_axioms(B.dim, B.unit, B.mult, B.coprod, B.braid, 1)


def test_axioms_hold():
    for N in (2, 3, 4):
        _, B = rank1_algebra(N)
        report = axioms(B)
        assert all(ok for ok, _ in report.values()), (N, report)


def primitive_dims(B):
    """Dimension of the primitive space per degree."""
    out = [0] * (B.top_degree + 1)
    for d in range(1, B.top_degree + 1):
        cols = [B.index[w] for w in B.basis[d]]
        rows = {}
        for i in cols:
            for (a, b), c in B.coprod(i).items():
                if a == B.unit or b == B.unit:
                    continue
                rows.setdefault((a, b), {})[i] = c
        out[d] = len(cols) - sparse_rank(rows.values())
    return out


def test_primitive_dims_rank1():
    _, B = rank1_algebra(3)
    assert primitive_dims(B) == [0, 1, 0]


def test_fk3_primitives_and_dims():
    B, _ = fk_bialgebra(3)
    assert B.dims() == [1, 3, 4, 3, 1]
    assert primitive_dims(B) == [0, 3, 0, 0, 0]
    report = axioms(B)
    assert all(ok for ok, _ in report.values()), report


def test_category_labels_multiplicative():
    cfg = load_shipped("a2_super")
    V = cfg.space()
    B = from_nichols(V, cfg.budgets["max_degree"])
    attach_diagonal_category(B, cfg.realization(V))
    cat = B.category
    for i in range(B.dim):
        for j in range(B.dim):
            lij = cat.label_mul(cat.labels[i], cat.labels[j])
            for k in B.mult(i, j):
                assert cat.labels[k] == lij


def _diagonal_config_names():
    return [n for n in shipped_config_names() if load_shipped(n).kind == "diagonal"]


@pytest.mark.parametrize("name", _diagonal_config_names())
def test_category_labels_match_multidegree_formula(name):
    """Each basis word of multidegree a is labelled (a mod N, (chi(e_k))_k),
    chi(e_k) = prod_i q_ki^(a_i). The labels read only the basis words, so
    the basis here is every word of T(V) through degree 6."""
    cfg = load_shipped(name)
    V = cfg.space()
    N = (cfg.realization_spec or {}).get("order", 0)
    words = [list(product(range(V.rank), repeat=d)) for d in range(7)]
    B = bialgebra.GradedBialgebraData(V, words, [])
    attach_diagonal_category(B, cfg.realization(V))
    units = [tuple(int(i == k) for i in range(V.rank)) for k in range(V.rank)]
    for w, label in zip(B.flat, B.category.labels):
        a = [w.count(i) for i in range(V.rank)]
        g = tuple(x % N for x in a) if N else tuple(a)
        assert label == (g, tuple(bichar(V.qmatrix, e, a) for e in units)), (name, w)


def test_biideal_witness_reports_leftover():
    V = build_diagonal([[2]])
    rels = [monomial((0, 0))]
    _, rs = rewrite_dims(1, rels, 4)
    # x^2 with q generic: Delta(x^2) has (1+q) x (x) x, not in the ideal
    assert biideal_witness_oracle(V, rs, rels) == (rels[0], {((0,), (0,)): 3})


@pytest.mark.parametrize("name", shipped_config_names())
def test_nichols_ideal_is_biideal(name):
    cfg = load_shipped(name)
    V = cfg.space() if cfg.kind == "diagonal" else build_fk_space(cfg.n)
    ok, witness = nichols_ideal_biideal_check(V)
    assert ok, witness


def test_biideal_check_rejects_a_non_ideal_element(monkeypatch):
    # x1 x2 is no element of the Nichols ideal: its (1, 1) component
    # x1 (x) x2 + c(x1 (x) x2) projects to a nonzero element of B^1 (x) B^1
    def fake_ideal(V, d, prev):
        return [monomial((0, 1))] if d == 2 else []

    monkeypatch.setattr(symmetrizer_oracle, "ideal_component", fake_ideal)
    assert nichols_ideal_biideal_check(build_fk_space(3)) == (False, (2, (1, 1)))


def test_biideal_check_builds_one_chain(monkeypatch):
    # layers 0-4 serve the kernels of degrees 2-4 and every normal form
    V = load_shipped("rank3_triangle").space()
    built = []
    init = NicholsDegree.__init__

    def counting(self, V, prev=None):
        built.append(0 if prev is None else len(prev.basis[0]) + 1)
        init(self, V, prev)

    monkeypatch.setattr(NicholsDegree, "__init__", counting)
    assert nichols_ideal_biideal_check(V) == (True, None)
    assert built == [0, 1, 2, 3, 4]


def test_braid_tensor_matches_category():
    V, B = rank1_algebra(3)
    attach_diagonal_category(B, realization(V))
    x = B.index[(0,)]
    out = B.braid(x, x)
    assert out == {x: zeta(3)}


def _built(name):
    """fk3 (a nonabelian category), a2_super (super signs) or line<N>, built afresh."""
    if name == "fk3":
        return fk_bialgebra(3)[0]
    if name.startswith("line"):
        return rank1_algebra(int(name[4:]))[1]
    return _finite_bialgebra(load_shipped(name), Namespace(max_degree=None))[0]


# -- reference tensor-power structure ------------------------------------------
# Whole-tuple definitions of the tensor-power operations: the braiding of two
# tuples, the braided tensor-power product, the iterated coproduct Delta^(q),
# the tensor-power coproduct and the product of legs. GradedBialgebraData
# computes the actions and coactions one leg at a time instead; these are the
# independent check of those recursions.


def braid_tensor(B, left, right):
    """c_{B^a, B^b} on basis tuples: {(right', left'): coeff}."""
    if not left or not right:
        return {(right, left): 1}
    out = {}
    if len(left) == 1:
        # cross the single letter over the right block, left to right
        states = {((), left[0]): 1}
        for vj in right:
            nxt = {}
            for (pv, x), c in states.items():
                for k, co in B.braid(x, vj).items():
                    add_term(nxt, (pv + (k,), x), c * co)
            states = nxt
        for (pv, x), c in states.items():
            add_term(out, (pv, (x,)), c)
        return out
    for (r1, rest1), c1 in braid_tensor(B, left[1:], right).items():
        for (r2, head1), c2 in braid_tensor(B, left[:1], r1).items():
            add_term(out, (r2, head1 + rest1), c1 * c2)
    return out


def mult_tensor(B, t1, t2):
    """Product in the braided tensor-power algebra B^(x)q."""
    if not t1:
        return {(): 1}
    out = {}
    for (v1p, urestp), cb in braid_tensor(B, t1[1:], t2[:1]).items():
        for k0, c0 in B.mult(t1[0], v1p[0]).items():
            for trest, cr in mult_tensor(B, urestp, t2[1:]).items():
                add_term(out, (k0,) + trest, cb * c0 * cr)
    return out


def iter_coprod(B, i, q):
    """Iterated coproduct Delta^(q): B -> B^(x)q on a basis element."""
    if q == 0:
        return {(): 1} if i == B.unit else {}
    out = {(i,): 1}
    for _ in range(q - 1):
        nxt = {}
        for t, c in out.items():
            for (a, b), c0 in B.coprod(t[0]).items():
                add_term(nxt, (a, b) + t[1:], c * c0)
        out = nxt
    return out


def coprod_tensor(B, t):
    """Coproduct of the braided tensor-power coalgebra B^(x)q."""
    if not t:
        return {((), ()): 1}
    out = {}
    for (a, b), c0 in B.coprod(t[0]).items():
        for (t1, t2), c1 in coprod_tensor(B, t[1:]).items():
            for (t1p, bp), cb in braid_tensor(B, (b,), t1).items():
                add_term(out, ((a,) + t1p, bp + t2), c0 * c1 * cb)
    return out


def mprod(B, t):
    """Iterated product of a basis tuple: {index: coeff}."""
    out = {B.unit: 1}
    for i in t:
        nxt = {}
        for j, c in out.items():
            for k, cm in B.mult(j, i).items():
                add_term(nxt, k, c * cm)
        out = nxt
    return out


def _reference_actions(B, i, t):
    """Delta^(q)(e_i) . t and t . Delta^(q)(e_i) in the braided tensor power."""
    left, right = {}, {}
    for u, cu in iter_coprod(B, i, len(t)).items():
        row_axpy(left, cu, mult_tensor(B, u, t))
        row_axpy(right, cu, mult_tensor(B, t, u))
    return left, right


def _reference_coactions(B, t):
    """Both coactions from coprod_tensor and mprod, filtered to positive legs."""
    left, right = {}, {}
    for (t1, t2), c in coprod_tensor(B, t).items():
        if all(B.degree(i) > 0 for i in t2):
            row_axpy(left, c, {(j, t2): cm for j, cm in mprod(B, t1).items()})
        if all(B.degree(i) > 0 for i in t1):
            row_axpy(right, c, {(t1, j): cm for j, cm in mprod(B, t2).items()})
    return left, right


def _short_tuples(B):
    return list(chain([()], product(B.positive(), repeat=1), product(B.positive(), repeat=2)))


@pytest.mark.parametrize("name", ["fk3", "a2_super", "line4"])
def test_actions_match_reference(name):
    B = _built(name)
    for t in _short_tuples(B):
        for i in B.positive():
            left, right = _reference_actions(B, i, t)
            assert B.act_left(i, t) == left, (name, i, t)
            assert B.act_right(t, i) == right, (name, t, i)


@pytest.mark.parametrize("name", ["fk3", "a2_super", "line4"])
def test_coactions_keep_positive_legs(name):
    B = _built(name)
    for t in _short_tuples(B):
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
def test_coactions_computed_once(name, monkeypatch):
    B = _built(name)
    calls = _count_mult(monkeypatch)
    tuples = list(chain(product(B.positive(), repeat=2), product(B.positive(), repeat=3)))

    def coactions():
        return [(B.coact_left(t), B.coact_right(t)) for t in tuples]

    first = coactions()
    assert calls
    calls.clear()
    assert coactions() == first
    assert calls == []


@pytest.mark.parametrize("name", ["fk3", "a2_super"])
def test_actions_computed_once(name, monkeypatch):
    B = _built(name)
    calls = _count_mult(monkeypatch)
    pairs = [(i, t) for i in B.positive() for t in product(B.positive(), repeat=2)]

    def actions():
        return [(B.act_left(i, t), B.act_right(t, i)) for i, t in pairs]

    first = actions()
    assert calls
    calls.clear()
    assert actions() == first
    assert calls == []


# -- the coproduct by letter recursion against the 2^n expansion -------------

def coprod_oracle(B, i):
    """Delta(e_i) expanded over all 2^n splittings of its word in T(V), each
    leg then reduced to the basis."""
    out = {}
    for (u, v), c in braided_coproduct(B.V, {B.flat[i]: 1}).items():
        for iu, cu in B.vec_of({u: 1}).items():
            for iv, cv in B.vec_of({v: 1}).items():
                add_term(out, (iu, iv), c * cu * cv)
    return out


# every shipped config whose quotient cohomology builds at its default budget
FINITE_QUOTIENTS = [
    "fk3", "a2_cartan_zeta3", "a2_super", "b2",
    "rank1_m1", "rank1_zeta3", "rank1_zeta4", "rank1_zeta6",
]


@pytest.mark.parametrize("name", FINITE_QUOTIENTS)
def test_coproduct_matches_expansion(name):
    B = _built(name)
    assert [B.coprod(i) for i in range(B.dim)] == [coprod_oracle(B, i) for i in range(B.dim)]


def test_fk4_coproduct_matches_expansion():
    # the whole fk4 quotient (dim 576, top degree 12); the expansion of its
    # words up to degree 7 keeps the test under a second
    B, _ = fk_bialgebra(4, 13)
    low = [i for i in range(B.dim) if B.degree(i) <= 7]
    assert len(low) == 437
    assert [B.coprod(i) for i in low] == [coprod_oracle(B, i) for i in low]


# -- the catalog quotient is a braided bialgebra, and it is B(V) ---------------
# The package builds B(V) from the Nichols layers alone. The catalog (or
# fk_relations), completed through 2 top as cmd_epsilon completes it, is the
# second route: the braiding descends through each relation, the relations
# span a coideal, and the completion's normal forms give B's structure
# constants.


def braiding_descends(V, rel):
    """Whether all words w of rel give one c(w (x) x_a) = coeff x_a' (x) w per
    letter a; then c maps I (x) V into V (x) I, so it descends to T(V)/I."""
    return all(
        len({braid_word_blocks(V, w, (a,))[:2] for w in rel}) <= 1 for a in range(V.rank)
    )


def biideal_witness_oracle(V, rs, relations):
    """The coideal check in T(V) (x) T(V): every relation word expanded over
    all 2^n splittings, each leg then reduced to normal words."""
    for rel in relations:
        if rs.reduce(rel):
            return rel, "relation does not reduce to zero"
        leftover = {}
        for (u, v), c in braided_coproduct(V, rel).items():
            for wu, cu in rs.reduce({u: 1}).items():
                for wv, cv in rs.reduce({v: 1}).items():
                    add_term(leftover, (wu, wv), c * cu * cv)
        if leftover:
            return rel, leftover
    return None


def _catalog_completion(name, max_degree=None):
    """(B, relations, rs) for a shipped config or fk<n>: B(V), the relations
    that present it and their completion through 2 top."""
    if name.startswith("fk"):
        B, rels = fk_bialgebra(int(name[2:]), max_degree or 5)
    else:
        B, rels, _ = _finite_bialgebra(load_shipped(name), Namespace(max_degree=max_degree))
    _, rs = rewrite_dims(B.V.rank, rels, 2 * B.top_degree)
    return B, rels, rs


@pytest.mark.parametrize(
    "name, max_degree",
    [(name, None) for name in FINITE_QUOTIENTS]
    + [("rank3_super_a3", 17), ("rank3_triangle", 19), ("fk4", 13)],
)
def test_coideal_check_matches_expansion(name, max_degree):
    """The catalog quotient is a braided bialgebra: the braiding descends
    through each relation, and the 2^n expansion of each relation's
    coproduct vanishes on normal words."""
    B, rels, rs = _catalog_completion(name, max_degree)
    assert all(braiding_descends(B.V, r) for r in rels)
    assert biideal_witness_oracle(B.V, rs, rels) is None


def test_shipped_relations_respect_the_braiding():
    for name in FINITE_QUOTIENTS[1:] + ["rank3_square", "rank3_super_a3", "rank3_triangle"]:
        cfg = load_shipped(name)
        V = cfg.space()
        rels, _ = _catalog_elements(cfg, V)
        assert all(braiding_descends(V, r) for r in rels), name
    for n in (3, 4, 5):
        V = build_fk_space(n)
        assert all(braiding_descends(V, r) for r in fk_relations(n)), n


@pytest.mark.parametrize(
    "name, max_degree", [(name, None) for name in FINITE_QUOTIENTS] + [("rank3_super_a3", 17)]
)
def test_structure_constants_match_catalog_completion(name, max_degree):
    """Every product and braiding of two basis elements, folded through the
    layers, is the catalog completion's normal form of the same words; the
    braided words are those of braid_word_blocks, each letter crossed in turn."""
    B, _, rs = _catalog_completion(name, max_degree)

    def flat(element):
        return {B.index[w]: c for w, c in rs.reduce(element).items()}

    for i, j in product(range(B.dim), repeat=2):
        assert B.mult(i, j) == flat({B.flat[i] + B.flat[j]: 1}), (name, i, j)
        coeff, right, _ = braid_word_blocks(B.V, B.flat[i], B.flat[j])
        assert B.braid(i, j) == flat({right: coeff}), (name, i, j)
