"""Sparse exact linear algebra over cyclotomic fields.

A sparse vector is a dict {key: CycNumber} with no zero entries. Keys can
be arbitrary hashable objects (basis words, tensor indices); an explicit
key order is only needed where nullspaces are extracted. This module is
the one place that updates and solves such vectors. Echelon.reduce and
Echelon.add (so also contains, sparse_rank and nullspace) take rows in that
form and do not test their entries for zero; add_term and row_axpy build
rows that meet it.
"""

from .cyclo import ONE


def add_term(target, key, val):
    """target[key] += val, dropping the key when the sum is zero."""
    cur = target.get(key)
    if cur is not None:
        val = cur + val
    if val.is_zero():
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
        if nv.is_zero():
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
        if not row[col].is_one():
            row = row_scale(row, row[col].inverse())
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
                if nv.is_zero():
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
    {v : row . v = 0 for all rows}.
    """
    ech = Echelon()
    for row in rows:
        ech.add(row)
    basis = []
    for free in columns:
        if free in ech.pivots:
            continue
        vec = {free: ONE}
        for pcol, prow in ech.pivots.items():
            c = prow.get(free)
            if c is not None:
                vec[pcol] = -c
        basis.append((free, vec))
    return basis
