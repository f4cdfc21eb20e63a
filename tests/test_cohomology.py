"""Bicomplex cohomology of finite graded braided bialgebras."""

import gc
import weakref
from argparse import Namespace
from itertools import product

import pytest

from nicholsalg.braided import build_diagonal, realization
from nicholsalg.cli import _finite_bialgebra
from nicholsalg.configs import load_shipped
from nicholsalg.cyclo import zeta
from nicholsalg.tensoralg import monomial
from nicholsalg.bialgebra import attach_diagonal_category, from_nichols
from nicholsalg.rewriting import rewrite_dims
from nicholsalg.fk import fk_bialgebra
from nicholsalg import cohomology
from nicholsalg.cohomology import (
    _cocycle_rows,
    d_apply,
    dh_apply,
    epsilon_H2,
    equivariance_rows,
    hom_M_dim,
    kernel_M,
    map_unknowns,
    truncated_H2,
)
from nicholsalg.linalg import Echelon, row_axpy, sparse_rank

from cocycle_helpers import (
    TruncPoly,
    check_bialgebra_axioms,
    check_filtration_vanishing,
    first_order_deformation,
    solve_cocycles,
)
from cohomology_oracle import tuple_label
from kernel_m_oracle import hom_M_dim_by_pairs, kernel_M_by_pairs, kernel_m_from_words


def line(N):
    V = build_diagonal([[zeta(N)]])
    rel = monomial((0,) * N)
    B = from_nichols(V, N + 1)
    # the Z/N quotient makes the power relation live on a trivial group label
    attach_diagonal_category(B, realization(V, N))
    return B, [rel]


def test_negative_degree_H2_vanishes():
    for N in (2, 3, 4):
        B, _ = line(N)
        for ell in range(-1, -2 * B.top_degree - 1, -1):
            out = truncated_H2(B, ell)
            assert out["H"] == 0, (N, ell, out)


@pytest.mark.parametrize(
    "name, ell, expected",
    [
        ("fk3", 0, (4, 4, 0)),
        ("fk3", -2, (1, 1, 0)),
        ("line3", 0, (1, 1, 0)),
        ("a2_super", 0, (13, 13, 0)),
    ],
)
def test_nonzero_cocycle_spaces_pinned(name, ell, expected):
    # H = 0 alone would survive a face that drops coboundaries; Z and B pin both
    if name == "fk3":
        B, _ = fk_bialgebra(3)
    elif name == "line3":
        B, _ = line(3)
    else:
        B, _, _ = _finite_bialgebra(load_shipped(name), Namespace(max_degree=None))
    out = truncated_H2(B, ell)
    assert (out["Z"], out["B"], out["H"]) == expected


def test_coboundary_checks_catch_a_broken_face(monkeypatch):
    # line(3) has no equivariance rows; fk3 checks against the S_3 action
    for B in (line(3)[0], fk_bialgebra(3)[0]):
        act_right = B.act_right
        # the first non-zero product x_a x_b enters dh h at ell 0 through act_right
        t0, i0 = next(((a,), b) for a in B.positive() for b in B.positive() if B.mult(a, b))

        def broken(t, i):
            out = act_right(t, i)
            if (t, i) == (t0, i0):
                out = {k: c * 2 for k, c in out.items()}
            return out

        with monkeypatch.context() as m:
            m.setattr(B, "act_right", broken)
            with pytest.raises(RuntimeError, match="fails a cocycle condition"):
                truncated_H2(B, 0)

    map_unknowns = cohomology.map_unknowns

    def without_f(B, p, q, ell):
        return [] if (p, q) == (2, 1) else map_unknowns(B, p, q, ell)

    monkeypatch.setattr(cohomology, "map_unknowns", without_f)
    for B in (line(3)[0], fk_bialgebra(3)[0]):
        with pytest.raises(RuntimeError, match="leaves the morphism space"):
            truncated_H2(B, 0)


def _map_unknowns_reference(B, p, q, ell):
    """map_unknowns as a plain double loop over source and target tuples."""
    cat = B.category
    out = []
    for s in product(B.positive(), repeat=p):
        d = sum(B.degree(i) for i in s) + (ell or 0)
        for t in product(B.positive(), repeat=q):
            if ell is not None and sum(B.degree(i) for i in t) != d:
                continue
            if cat and tuple_label(cat, t) != tuple_label(cat, s):
                continue
            out.append((s, t))
    return out


@pytest.mark.parametrize("name", ["a2_super", "fk3"])
def test_map_unknowns_labels_each_tuple_once(monkeypatch, name):
    if name == "fk3":
        B, _ = fk_bialgebra(3)
    else:
        B, _, _ = _finite_bialgebra(load_shipped(name), Namespace(max_degree=None))
    cat = B.category
    label_mul = cat.label_mul
    folds, every_fold = [], []

    def counting(l1, l2):
        folds.append((l1, l2))
        return label_mul(l1, l2)

    monkeypatch.setattr(cat, "label_mul", counting)
    for ell in (None, 0, -1, -2, -3):
        for p, q in [(2, 1), (1, 2), (1, 1), (2, 2)]:
            expected = _map_unknowns_reference(B, p, q, ell)
            folds.clear()
            assert cohomology.map_unknowns(B, p, q, ell) == expected, (ell, p, q)
            every_fold += folds
            # the first (p, q) builds the ungraded state graphs of lengths 1
            # and 2, folding labels there and not per tuple; the graded graphs
            # built at ell = 0 find every product already folded
            if (p, q) == (2, 1) and ell is None:
                assert folds, (ell, p, q)
            else:
                assert folds == [], (ell, p, q)
    assert len(every_fold) == len(set(every_fold))


STRUCTURE_TABLES = (
    "mult", "coprod", "braid", "act_left", "act_right", "coact_left", "coact_right",
    "mult_sources", "coaction_sources", "tensor_action", "action_sources",
)


def test_no_face_work_without_unknowns(monkeypatch):
    # every negative ell of the rank-3 quotient at its top degree + 1 has no
    # unknowns: no structure table is read there
    for name, max_degree, ells in [("a2_super", None, (-1,)), ("rank3_super_a3", 17, (-1, -16))]:
        B, _, _ = _finite_bialgebra(load_shipped(name), Namespace(max_degree=max_degree))
        calls = []

        def counting(name, method):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)

            return wrapped

        for table in STRUCTURE_TABLES:
            monkeypatch.setattr(B, table, counting(table, getattr(B, table)))
        for ell in ells:
            assert not any(map_unknowns(B, p, q, ell) for p, q in [(2, 1), (1, 2), (1, 1)])
            assert truncated_H2(B, ell) == {"Z": 0, "B": 0, "H": 0}
            assert calls == [], (name, ell)


def d_squared_from_degree_3(B, ell):
    """(entries checked, failures) of d∘d from p + q = 3 to p + q = 5 on the
    degree-ell morphisms: no answer reads these p + q = 4 faces, and
    truncated_H2 checks d∘d only from p + q = 2. A row of d(d(.)) pulled back
    to the source entries fails unless it vanishes on every morphism, that
    is, lies in the row space of the equivariance rows."""
    src = map_unknowns(B, 2, 1, ell) + map_unknowns(B, 1, 2, ell)
    d1 = d_apply(B, src)
    d2 = d_apply(B, list(d1))
    ech = Echelon()
    for row in equivariance_rows(B, src):
        ech.add(row)
    failures = []
    for out, row in d2.items():
        pulled = {}
        for mid, c in row.items():
            row_axpy(pulled, c, d1[mid])
        if not ech.contains(pulled):
            failures.append(out)
    return len(src), failures


def _all_ells(B):
    """-2 top..2 top: every ell with a (1, 1), (2, 1) or (1, 2) unknown."""
    return range(-2 * B.top_degree, 2 * B.top_degree + 1)


@pytest.mark.parametrize("name", ["line3", "rank1_zeta3", "rank1_zeta4", "fk3"])
def test_d_squared_vanishes_from_degree_3(name):
    B = _finite(name)
    checked = 0
    for ell in _all_ells(B):
        n, failures = d_squared_from_degree_3(B, ell)
        assert failures == [], (ell, failures[:3])
        checked += n
    assert checked


def test_broken_coalgebra_face_fails_d_squared(monkeypatch):
    """One inner coalgebra face with its sign flipped: the split of the first
    leg of t into two positive legs. d∘d = 0 then fails from p + q = 3 at
    some ell, and the coboundary check of truncated_H2 fails at some ell."""
    dc_entries = cohomology._dc_entries

    def flipped(B, keys):
        for out, inp, c in dc_entries(B, keys):
            t, t2 = inp[1], out[1]
            first_split = (
                out[0] == inp[0] and len(t2) == len(t) + 1 and t2[2:] == t[1:]
                and B.unit not in t2[:2]
            )
            yield out, inp, -c if first_split else c

    monkeypatch.setattr(cohomology, "_dc_entries", flipped)
    for B in (line(3)[0], fk_bialgebra(3)[0]):
        assert any(d_squared_from_degree_3(B, ell)[1] for ell in _all_ells(B))
        raised = []
        for ell in range(-2 * B.top_degree, 1):
            try:
                truncated_H2(B, ell)
            except RuntimeError as e:
                raised.append(str(e))
        assert "coboundary fails a cocycle condition" in raised, raised


def test_degree_zero_cocycle_deforms():
    B, _ = line(3)
    pairs = solve_cocycles(B, 0)
    assert pairs
    for vec in pairs:
        for r in (1, 2):
            _, report = first_order_deformation(B, vec, r)
            assert all(ok for ok, _ in report.values()), report


def test_non_cocycle_fails_deformation():
    B, _ = line(3)
    x = B.index[(0,)]
    x2 = B.index[(0, 0)]
    fake = {((x, x), (x2,)): 1}
    _, report = first_order_deformation(B, fake, 1)
    assert not all(ok for ok, _ in report.values())
    assert report["compatibility"] == (False, (1, 1))


def test_deformation_report_matches_axiom_checks():
    B, _ = line(3)
    _, report = first_order_deformation(B, solve_cocycles(B, 0)[0], 1)
    axioms = check_bialgebra_axioms(B.dim, B.unit, B.mult, B.coprod, B.braid, 1)
    assert report.keys() == axioms.keys()


def test_filtration_implications():
    B, _ = line(3)
    for ell in (0, -1, -2):
        for vec in solve_cocycles(B, ell):
            for r in (1, 2, 3):
                assert check_filtration_vanishing(B, vec, ell, r)


def test_kernel_M_two_routes_agree():
    B, rels = line(3)
    out = kernel_M(B)
    minimal = rewrite_dims(1, rels, 2 * B.top_degree)[1].minimal
    for d in range(2, 2 * B.top_degree + 1):
        assert out["dims"].get(d, 0) == minimal[d], (d, out)
    assert out["dims"][3] == 1


def test_kernel_M_fk3():
    B, rels = fk_bialgebra(3)
    out = kernel_M(B)
    assert out["dims"][2] == 5
    minimal = rewrite_dims(B.V.rank, rels, 2 * B.top_degree)[1].minimal
    for d in range(2, 2 * B.top_degree + 1):
        assert out["dims"].get(d, 0) == minimal[d]


# the shipped configs whose bialgebra the command line builds at its budget
FINITE_CONFIGS = [
    "a2_cartan_zeta3", "a2_super", "b2", "fk3",
    "rank1_m1", "rank1_zeta3", "rank1_zeta4", "rank1_zeta6",
]


@pytest.mark.parametrize("name", FINITE_CONFIGS)
def test_completion_counts_dim_M(name):
    """The completion's minimal relations are dim M: the word oracle through
    degree 6 (a2_cartan_zeta3 has one there) and kernel_M through 2 top."""
    B, rels, warnings = _finite_bialgebra(load_shipped(name), Namespace(max_degree=None))
    assert B is not None, warnings
    # complete through degree 6 at least, also where 2 top is smaller
    minimal = rewrite_dims(B.V.rank, rels, max(6, 2 * B.top_degree))[1].minimal
    assert kernel_m_from_words(B.V, rels, 6) == {d: minimal[d] for d in range(2, 7)}
    dims = kernel_M(B)["dims"]
    assert dims == {d: minimal[d] for d in range(2, 2 * B.top_degree + 1)}


def _finite(name, max_degree=None):
    """The bialgebra of a shipped finite config, at its budget unless
    max_degree is given, or of line(N)."""
    if name.startswith("line"):
        return line(int(name[4:]))[0]
    B, _, warnings = _finite_bialgebra(load_shipped(name), Namespace(max_degree=max_degree))
    assert B is not None, warnings
    return B


@pytest.mark.parametrize(
    "name, max_degree", [(name, None) for name in FINITE_CONFIGS] + [("rank3_super_a3", 17)]
)
def test_M_from_rules_matches_kernel_over_pairs(name, max_degree):
    """dim M and Hom(M, U), read off the rules of the layers, equal those of
    the kernel of multiplication on B+ (x)_B B+ over every pair of basis
    elements. The label rows bring Hom to 0 on a2_super and b2, the action
    rows to 1 on fk3."""
    B = _finite(name, max_degree)
    out, ref = kernel_M(B), kernel_M_by_pairs(B)
    assert out["dims"] == ref["dims"]
    assert hom_M_dim(B, out) == hom_M_dim_by_pairs(B, ref)


def test_rank3_square_minimal_relations():
    """rank3_square through 2 top: the relation of degree 24 is the one its
    catalog lacks, and no minimal relation has the unit label."""
    B = _finite("rank3_square", 32)
    md = kernel_M(B)
    assert {d: v for d, v in md["dims"].items() if v} == {2: 3, 3: 2, 4: 1, 24: 1}
    assert hom_M_dim(B, md) == 0


@pytest.mark.parametrize("name", ["a2_super", "fk3"])
def test_tuple_states_decode_to_tuple_labels(name):
    """The state graphs key labels by interned ids; each id decodes through
    the category's table to the label of its tuple."""
    B = _finite(name)
    cat = B.category
    for graded in (True, False):
        for n in (1, 2, 3):
            seen = B.tuples(n, B.tuple_states(n, graded), graded)
            assert len(seen) == len(B.positive()) ** n
            for t, (d, lab) in seen:
                assert type(lab) is int
                assert cat.label_table[lab] == tuple_label(cat, t), t
                assert d == (sum(B.degree(i) for i in t) if graded else 0)


@pytest.mark.parametrize("name", ["a2_super", "fk3"])
def test_bialgebra_freed_with_its_last_reference(name):
    """No reference cycle holds B, so a command's bialgebra and its memo
    tables are freed when it returns, not at some later cyclic collection."""
    gc.disable()
    try:
        B = _finite(name)
        hom_M_dim(B, kernel_M(B))
        truncated_H2(B, -1)
        ref = weakref.ref(B)
        del B
        assert ref() is None
    finally:
        gc.enable()


def _full_rank_Z(B, ell):
    """dim Z from the full rank of every cocycle row, with no bound."""
    fU = map_unknowns(B, 2, 1, ell)
    gU = map_unknowns(B, 1, 2, ell)
    return len(fU) + len(gU) - sparse_rank(_cocycle_rows(B, fU + gU, d_apply))


@pytest.mark.parametrize("name", FINITE_CONFIGS + ["line2", "line3", "line4"])
def test_bounded_cocycle_rank_matches_full_rank(name):
    B = _finite(name)
    ells = list(range(-2 * B.top_degree, 0))
    if name in ("fk3", "line3", "a2_super"):
        ells.append(0)  # Z = B > 0 there: the bound cuts the elimination short
    for ell in ells:
        out = truncated_H2(B, ell)
        assert out["Z"] == _full_rank_Z(B, ell), (ell, out)
        assert out["H"] == out["Z"] - out["B"] >= 0, (ell, out)
    fU = map_unknowns(B, 2, 0)
    rows = list(dh_apply(B, fU).values()) + equivariance_rows(B, fU)
    eps = epsilon_H2(B)
    assert eps["Z"] == len(fU) - sparse_rank(rows), eps
    assert eps["H"] == eps["Z"] - eps["B"] >= 0, eps


@pytest.mark.parametrize("name, ell", [("fk3", 0), ("line3", 0), ("a2_super", 0), ("fk3", -2)])
def test_unreached_bound_ranks_every_row(monkeypatch, name, ell):
    """Without the row that brings the cocycle echelon to n - B, Z > B: the
    bound is never reached and Z is the full rank of the rows given."""
    B = _finite(name)
    fU, gU = map_unknowns(B, 2, 1, ell), map_unknowns(B, 1, 2, ell)
    n, dim_b = len(fU) + len(gU), truncated_H2(B, ell)["B"]
    all_rows = _cocycle_rows(B, fU + gU, d_apply)
    ech = Echelon()
    for last, row in enumerate(all_rows):
        ech.add(row)
        if ech.rank == n - dim_b:
            break
    for prefix in (all_rows[:last], all_rows[: last // 2]):
        monkeypatch.setattr(cohomology, "_cocycle_rows", lambda B, unknowns, face: list(prefix))
        out = truncated_H2(B, ell)
        assert out["Z"] == n - sparse_rank(prefix) > dim_b == out["B"], out


def test_epsilon_cohomology_matches_hom():
    for N in (2, 3, 4):
        B, _ = line(N)
        md = kernel_M(B)
        eps = epsilon_H2(B)
        assert eps["H"] == hom_M_dim(B, md) == 1, (N, eps)
    B, _ = fk_bialgebra(3)
    eps = epsilon_H2(B)
    assert eps == {"Z": 2, "B": 1, "H": 1}
    assert hom_M_dim(B, kernel_M(B)) == 1


def test_truncpoly_arithmetic():
    t = TruncPoly.tpow(1, 1, 2)
    u = TruncPoly.const(1, 2)
    prod = (u + t) * (u + (-t))
    assert prod == u + (-(t * t))
    assert not (t * t * t)
