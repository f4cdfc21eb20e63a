"""Sparse exact linear algebra over Q and the cyclotomic fields Q(zeta_N).

A sparse vector is a dict {key: scalar} with no zero entries. Keys can
be arbitrary hashable objects (basis words, tensor indices); an explicit
key order is only needed where nullspaces are extracted. This module is
the one place that updates and solves such vectors. Echelon.reduce and
Echelon.add (so also contains, sparse_rank and nullspace) take rows in that
form and do not test their entries for zero; add_term and row_axpy build
rows that meet it.

Scalars are used only through the number protocol (+, -, *, ==, and truth
value as the zero test), so their type decides the arithmetic: Q is int,
with Fraction only where a non-unit pivot forces it, and Q(zeta_N) is
cyclo.CycNumber of the run's one conductor N, beside which int and Fraction
entries join the field. The one field-dependent step, the inverse of a
pivot, is cyclo.inverse.
"""

from .cyclo import inverse


def add_term(target, key, val):
    """target[key] += val, dropping the key when the sum is zero."""
    cur = target.get(key)
    if cur is not None:
        val = cur + val
    if not val:
        target.pop(key, None)
    else:
        target[key] = val


def row_scale(row, c):
    return {k: v * c for k, v in row.items()}


def row_axpy(target, coeff, source):
    """target += coeff * source, dropping zeros; returns target (mutated)."""
    for k, v in source.items():
        cur = target.get(k)
        nv = v * coeff if cur is None else cur + v * coeff
        if not nv:
            target.pop(k, None)
        else:
            target[k] = nv
    return target


class Echelon:
    """Incremental fully reduced echelon form; a row's pivot is its largest key.

    holders indexes the pivot rows by their other columns, so a new pivot is
    back-substituted only into the rows that hold its column.
    """

    def __init__(self):
        self.pivots = {}  # pivot column -> row (pivot coeff 1, no other pivot column)
        self.holders = {}  # non-pivot column -> pivot columns whose rows hold it

    def reduce(self, row):
        """Fully reduce a zero-free row; returns a new dict and leaves row unchanged."""
        row = dict(row)
        # no pivot row holds another pivot column, so any order clears them
        for col in [col for col in row if col in self.pivots]:
            row_axpy(row, -row[col], self.pivots[col])
        return row

    def add(self, row):
        """Reduce and insert; returns the reduced row (empty if dependent)."""
        row = self.reduce(row)
        if not row:
            return row
        col = max(row)
        if row[col] != 1:
            row = row_scale(row, inverse(row[col]))
        # back-substitute into the pivot rows that hold col, keeping holders exact
        holders = self.holders
        targets = holders.pop(col, ())
        for k in row:
            if k != col:
                holders.setdefault(k, set()).add(col)
        for pcol in targets:
            prow = self.pivots[pcol]
            coeff = -prow.pop(col)
            for k, v in row.items():
                if k == col:
                    continue
                cur = prow.get(k)
                if cur is None:
                    prow[k] = v * coeff
                    holders[k].add(pcol)
                    continue
                nv = cur + v * coeff
                if not nv:
                    del prow[k]
                    holders[k].discard(pcol)  # col's own row keeps the set non-empty
                else:
                    prow[k] = nv
        self.pivots[col] = row
        return row

    @property
    def rank(self):
        return len(self.pivots)

    def contains(self, row):
        return not self.reduce(row)


def sparse_rank(rows, bound=None):
    """Rank of the rows. Given a proven upper bound on that rank, no row is
    pulled from rows once the rank reaches it."""
    ech = Echelon()
    rows = iter(rows)
    while ech.rank != bound and (row := next(rows, None)) is not None:
        ech.add(row)
    return ech.rank


def nullspace(rows, columns):
    """Basis of the right kernel of the matrix whose rows are equations.

    columns is the full ordered list of column keys. Returns one pair
    (free column, vector) per non-pivot column, in column order; the vector
    has coefficient 1 at its free column and spans, with the others,
    {v : row . v = 0 for all rows}. It reads the free column's entries off
    the pivot rows that hold it.
    """
    ech = Echelon()
    for row in rows:
        ech.add(row)
    basis = []
    for free in columns:
        if free in ech.pivots:
            continue
        vec = {free: 1}
        for pcol in ech.holders.get(free, ()):
            vec[pcol] = -ech.pivots[pcol][free]
        basis.append((free, vec))
    return basis
