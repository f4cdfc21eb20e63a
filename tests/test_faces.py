"""Input-driven cochain faces, unknowns and equivariance rows against the
output-driven oracle in cohomology_oracle.py."""

from collections import Counter
from itertools import chain

import pytest

import cohomology_oracle as oracle
from nicholsalg.cohomology import d_apply, dc_apply, dh_apply, equivariance_rows, map_unknowns
from nicholsalg.linalg import Echelon
from test_cohomology import FINITE_CONFIGS, _finite

# the (p, q) slices whose entries truncated_H2 hands to d; the d∘d test of
# test_cohomology also applies d to the p + q = 4 slices of d of its
# p + q = 3 entries
H2_SLICES = [(2, 1), (1, 2), (1, 1)]
D_SQUARED_SLICES = [(3, 1), (2, 2), (1, 3)]
# all degrees at once: epsilon_H2's slices, then truncated_H2's slices with
# every degree in one system
EPSILON_SLICES = [(2, 0), (1, 0)]
UNGRADED_SLICES = [(1, 1), (2, 1), (1, 2)]


def _slices(B):
    """(ell, p, q) over every ell of the negative sweep, then ungraded. On
    the quotients of dim at most 12 also ell 0, the p + q = 4 slices and the
    ungraded H2 slices: elsewhere the oracle would walk every positive
    4-tuple, or build the coactions of all 1,225 pairs of b2."""
    small = B.dim <= 12
    out = []
    for ell in range(-2 * B.top_degree, 1 if small else 0):
        out += [(ell, p, q) for p, q in H2_SLICES + (D_SQUARED_SLICES if small else [])]
    return out + [(None, p, q) for p, q in EPSILON_SLICES + (UNGRADED_SLICES if small else [])]


def _frozen(row):
    return frozenset(row.items())


def _same_row_space(rows, other):
    ech, ech_other = Echelon(), Echelon()
    for row in rows:
        ech.add(row)
    for row in other:
        ech_other.add(row)
    return (
        ech.rank == ech_other.rank
        and all(ech.contains(row) for row in other)
        and all(ech_other.contains(row) for row in rows)
    )


@pytest.mark.parametrize("name", FINITE_CONFIGS + ["line2", "line3", "line4"])
def test_faces_match_oracle(name):
    B = _finite(name)
    for ell, p, q in _slices(B):
        keys = map_unknowns(B, p, q, ell)
        assert keys == oracle.map_unknowns(B, p, q, ell), (ell, p, q)
        assert dh_apply(B, keys) == oracle.rows(oracle.dh_entries(B, keys, p)), (ell, p, q)
        assert dc_apply(B, keys) == oracle.rows(oracle.dc_entries(B, keys, p)), (ell, p, q)
        # d = dh + (-1)^p dc
        dc = oracle.dc_entries(B, keys, p)
        signed_dc = ((out, inp, -c if p % 2 else c) for out, inp, c in dc)
        d_rows = oracle.rows(chain(oracle.dh_entries(B, keys, p), signed_dc))
        assert d_apply(B, keys) == d_rows, (ell, p, q)


def test_equivariance_rows_match_oracle():
    B = _finite("fk3")
    for ell, p, q in _slices(B):
        keys = map_unknowns(B, p, q, ell)
        # the unknowns of one source: a set the S_3 action does not keep
        one = [key for key in keys if key[0] == keys[0][0]] if keys else []
        for part in (keys, one):
            rows, expected = equivariance_rows(B, part), oracle.equivariance_rows(B, part, p)
            assert _same_row_space(rows, expected), (ell, p, q)
            # the monomial S_3 action makes the rows at sources outside part
            # redundant, so the row space alone would not miss them
            assert Counter(map(_frozen, rows)) == Counter(map(_frozen, expected)), (ell, p, q)
