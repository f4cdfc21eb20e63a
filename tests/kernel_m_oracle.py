"""Minimal relations by brute force: the test oracle for RewriteSystem.minimal.

For the ideal I of T(V) generated by homogeneous relations, M = I/(T+ I + I T+)
counts the minimal relations per degree. This module spans I_d and
(T+ I + I T+)_d directly from every padded product u r v of a relation r, so
its cost grows as theta^(d - deg r); tests use it at small degrees only.
"""

from itertools import product

from nicholsalg.linalg import Echelon
from nicholsalg.tensoralg import degree


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
