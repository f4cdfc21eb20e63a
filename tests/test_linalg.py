"""Sparse exact linear algebra: echelon form."""

import random
from fractions import Fraction

import pytest

from nicholsalg.cyclo import CycNumber, inverse, zeta
from nicholsalg.linalg import Echelon, nullspace, row_axpy, row_scale, sparse_rank


def count_inverses(monkeypatch):
    calls = []
    inverse = CycNumber.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(CycNumber, "inverse", counting)
    return calls


def test_unit_pivot_needs_no_inverse(monkeypatch):
    calls = count_inverses(monkeypatch)
    ech = Echelon()
    ech.add({3: 1, 2: zeta(3)})
    ech.add({2: 1, 1: 5})
    assert calls == []
    assert ech.pivots == {
        3: {3: 1, 1: -(zeta(3) * 5)},
        2: {2: 1, 1: 5},
    }
    ech.add({1: zeta(3), 0: 1})
    assert len(calls) == 1
    assert ech.pivots[1] == {1: 1, 0: inverse(zeta(3))}


def test_reduce_returns_a_new_dict_and_keeps_its_argument():
    ech = Echelon()
    ech.add({2: 1, 0: 3})
    row = {2: zeta(3), 1: 5}
    kept = dict(row)
    out = ech.reduce(row)
    assert out is not row and row == kept
    assert out == {1: 5, 0: -(zeta(3) * 3)}
    untouched = {1: 1}  # no pivot column: reduce still copies
    out = ech.reduce(untouched)
    assert out == untouched and out is not untouched
    out[0] = 1
    assert untouched == {1: 1}


class FullScanEchelon(Echelon):
    """The reference add: back-substitution scans every pivot row."""

    def add(self, row):
        row = self.reduce(row)
        if not row:
            return row
        col = max(row)
        if row[col] != 1:
            row = row_scale(row, inverse(row[col]))
        for prow in self.pivots.values():
            if col in prow:
                row_axpy(prow, -prow[col], row)
        self.pivots[col] = row
        return row


def _random_scalar(rng, N):
    return zeta(N, rng.randrange(N)) * rng.choice([-3, -2, -1, 1, 2, 5])


def _random_rows(rng, N, count, width=12):
    """Random rows, combinations of earlier rows (dependent), and rows whose
    back-substitution cancels an entry of an existing pivot row."""
    ref = FullScanEchelon()
    rows, cancelling = [], 0
    while len(rows) < count:
        kind = rng.random()
        if kind < 0.2 and rows:
            row = {}
            for old in rng.sample(rows, min(3, len(rows))):
                row_axpy(row, _random_scalar(rng, N), old)
        elif kind < 0.5 and ref.pivots:
            # c > d, neither a pivot: the new row {c, d} has pivot c and clears
            # d from prow, since prow[d] - prow[c] * (prow[d] / prow[c]) = 0
            prow = ref.pivots[rng.choice(sorted(ref.pivots))]
            free = sorted(k for k in prow if k not in ref.pivots)
            if len(free) < 2:
                continue
            d, c = sorted(rng.sample(free, 2))
            scale = _random_scalar(rng, N)
            row = {c: prow[c] * scale, d: prow[d] * scale}
            cancelling += 1
        else:
            cols = rng.sample(range(width), rng.randint(1, 5))
            row = {k: _random_scalar(rng, N) for k in cols}
        rows.append(row)
        ref.add(dict(row))
    return rows, cancelling


def _holders_from_rows(pivots):
    index = {}
    for pcol, prow in pivots.items():
        for k in prow:
            if k != pcol:
                index.setdefault(k, set()).add(pcol)
    return index


@pytest.mark.parametrize("N", [3, 6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_indexed_add_matches_full_scan(N, seed):
    rows, cancelling = _random_rows(random.Random(seed), N, 40)
    assert cancelling
    ech, ref = Echelon(), FullScanEchelon()
    for row in rows:
        ech.add(dict(row))
        ref.add(dict(row))
        assert ech.pivots == ref.pivots
        for pcol, prow in ech.pivots.items():
            assert prow[pcol] == 1
            assert not any(k in ech.pivots for k in prow if k != pcol)
            assert all(prow.values())
        assert ech.holders == _holders_from_rows(ech.pivots)


@pytest.mark.parametrize("N", [3, 6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nullspace_reads_the_full_scan_kernel(N, seed):
    """Each free column's vector, read off the rows that hold it, is the one
    a scan over every pivot row of the reference echelon gives."""
    rows, cancelling = _random_rows(random.Random(seed), N, 40)
    assert cancelling
    ref, columns, frees = FullScanEchelon(), list(range(12)), 0
    for i, row in enumerate(rows, 1):
        ref.add(dict(row))
        expected = []
        for free in columns:
            if free not in ref.pivots:
                vec = {free: 1}
                for pcol, prow in ref.pivots.items():
                    if free in prow:
                        vec[pcol] = -prow[free]
                expected.append((free, vec))
        assert nullspace(rows[:i], columns) == expected, i
        frees += sum(len(vec) > 1 for _, vec in expected)
    assert frees


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bounded_rank_pulls_no_row_past_its_bound(seed):
    rows, _ = _random_rows(random.Random(seed), 6, 30)
    rank = sparse_rank(rows)
    assert 2 < rank < len(rows)
    # prefix ranks: reached[k] is the first row count whose rank is k
    ech, reached = Echelon(), {0: 0}
    for i, row in enumerate(rows, 1):
        ech.add(row)
        reached.setdefault(ech.rank, i)

    def guarded(stop):
        for i, row in enumerate(rows):
            if i == stop:
                raise AssertionError(f"row {i} pulled after the bound was reached")
            yield row

    for bound in range(rank + 1):
        assert sparse_rank(guarded(reached[bound]), bound=bound) == bound
    # a bound above the rank is never reached: every row is read
    for bound in (rank + 1, len(rows) + 5):
        assert sparse_rank(iter(rows), bound=bound) == rank


def _random_int_rows(rng, count, width=10):
    """Random integer rows with entries of size up to 7, and integer
    combinations of earlier rows, so pivots are seldom units."""
    rows = []
    while len(rows) < count:
        if rows and rng.random() < 0.3:
            row = {}
            for old in rng.sample(rows, min(2, len(rows))):
                row_axpy(row, rng.choice([-3, -2, 2, 5]), old)
        else:
            cols = rng.sample(range(width), rng.randint(1, 5))
            row = {k: rng.choice([-7, -4, -2, -1, 1, 3, 6]) for k in cols}
        if row:
            rows.append(row)
    return rows


def _assert_rational(values):
    for v in values:
        assert type(v) in (int, Fraction) and v, v


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_integer_rows_match_their_cyclotomic_twins(seed):
    """Over Q the kernel runs on int and Fraction with the answers it gives
    on the same rows as CycNumbers of Q(zeta_1), and no float appears."""
    rows = _random_int_rows(random.Random(seed), 10)
    twins = [{k: v * zeta(1) for k, v in row.items()} for row in rows]
    ech, ref = Echelon(), Echelon()
    for row, twin in zip(rows, twins):
        assert ech.add(row) == ref.add(twin)
        for prow in ech.pivots.values():
            _assert_rational(prow.values())
    assert ech.pivots == ref.pivots
    assert any(type(v) is Fraction for prow in ech.pivots.values() for v in prow.values())
    assert sparse_rank(rows) == sparse_rank(twins) == ech.rank < len(rows)
    columns = list(range(10))
    kernel = nullspace(rows, columns)
    assert kernel and kernel == nullspace(twins, columns)
    for free, vec in kernel:
        assert type(vec[free]) is int
        _assert_rational(vec.values())
