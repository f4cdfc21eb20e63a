"""Minimal relations by brute force: the test oracle for RewriteSystem.minimal
and for the relations W that cohomology.kernel_M spans.

For the ideal I of T(V) generated by homogeneous relations, M = I/(T+ I + I T+)
counts the minimal relations per degree. This module spans I_d and
(T+ I + I T+)_d directly from every padded product u r v of a relation r, so
its cost grows as theta^(d - deg r); tests use it at small degrees only.

kernel_M spans W_d, the relations of B+ (x)_B B+ in degree d, from
letter-middle relations only; all_middle_rows spans it from every positive
middle, as kernel_M once did.
"""

from itertools import product

from nicholsalg.linalg import Echelon, add_term
from nicholsalg.tensoralg import degree


def all_middle_rows(B, d):
    """The relations x.a (x) y - x (x) a.y over every positive triple
    (x, a, y) of degree d, as rows over pairs; zero rows dropped."""
    rows = []
    for x, a, y in B.tuples_of_degree(3, d):
        row = {}
        for j, c in B.mult(x, a).items():
            add_term(row, (j, y), c)
        for j, c in B.mult(a, y).items():
            add_term(row, (x, j), -c)
        if row:
            rows.append(row)
    return rows


def kernel_m_from_words(V, relations, max_degree):
    """dim I_d - dim (T+ I + I T+)_d per degree d in 2..max_degree."""
    rels = [(degree(rel), rel) for rel in relations if rel]
    dims = {}
    for d in range(2, max_degree + 1):
        full = Echelon()
        proper = Echelon()
        for rdeg, sup in rels:
            if rdeg > d:
                continue
            pad = d - rdeg
            for la in range(pad + 1):
                lb = pad - la
                for u in product(range(V.rank), repeat=la):
                    for v in product(range(V.rank), repeat=lb):
                        row = {u + w + v: c for w, c in sup.items()}
                        full.add(dict(row))
                        if la or lb:
                            proper.add(row)
        dims[d] = full.rank - proper.rank
    return dims
