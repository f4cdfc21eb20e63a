"""Minimal relations by brute force: the test oracles for RewriteSystem.minimal
and for cohomology.kernel_M and hom_M_dim.

For the ideal I of T(V) generated by homogeneous relations, M = I/(T+ I + I T+)
counts the minimal relations per degree. kernel_m_from_words spans I_d and
(T+ I + I T+)_d directly from every padded product u r v of a relation r, so
its cost grows as theta^(d - deg r); tests use it at small degrees only.

kernel_M_by_pairs and hom_M_dim_by_pairs compute M as the kernel of
multiplication on B+ (x)_B B+ from the structure constants of B, over every
pair of basis elements, where cohomology reads it off the rules of the
Nichols layers.
"""

from itertools import product

from nicholsalg.linalg import Echelon, add_term, nullspace, sparse_rank
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


def kernel_M_by_pairs(B):
    """M = ker(B+ (x)_B B+ -> B+) degreewise, from structure constants.

    M_d = K_d / W_d: K_d is the kernel of multiplication on the degree-d
    part of B+ (x) B+, one nullspace per label, and W_d is spanned by the
    relations x.v (x) y - x (x) v.y with v a letter (a degree-1 basis
    element). These span all of W_d, the relations with any positive middle
    a, because B is generated in degree 1: e_a = e_a'.v for a basis word
    a = a'v, and x.(a'v) (x) y - x (x) (a'v).y is the letter-middle relation
    at (x.a', v, y) plus the relation with the shorter middle a' at
    (x, a', v.y); induction on deg a.

    Returns {"dims": {degree: dim}, "blocks": per-degree data}, the data
    that hom_M_dim_by_pairs reads.
    """
    letters = B.tuples_of_degree(1, 1)
    dims = {}
    blocks = {}
    for d in range(2, 2 * B.top_degree + 1):
        by_label = {}
        for pair, (_, lab) in B.tuples(2, [st for st in B.tuple_states(2) if st[0] == d]):
            by_label.setdefault(lab, []).append(pair)
        if not by_label:
            dims[d] = 0
            continue
        kvecs = []  # (vec over pairs, free pair, label id)
        for lab, plist in by_label.items():
            rows = {}
            for (i, j) in plist:
                for k, c in B.mult(i, j).items():
                    rows.setdefault(k, {})[(i, j)] = c
            for free, vec in nullspace(rows.values(), plist):
                kvecs.append((vec, free, lab))
        wrows = []
        for x, y in B.tuples_of_degree(2, d - 1):
            for (v,) in letters:
                row = {}
                for j, c in B.mult(x, v).items():
                    add_term(row, (j, y), c)
                for j, c in B.mult(v, y).items():
                    add_term(row, (x, j), -c)
                if row:
                    wrows.append(row)
        dims[d] = len(kvecs) - sparse_rank(wrows)
        blocks[d] = {"K": kvecs, "W": wrows}
    return {"dims": dims, "blocks": blocks}


def hom_M_dim_by_pairs(B, mdata):
    """dim Hom(M, U) in the category, U the trivial module of unit label."""
    cat = B.category
    total = 0
    for d, blk in mdata["blocks"].items():
        kvecs = blk["K"]
        if not kvecs:
            continue
        free_index = {free: a for a, (vec, free, lab) in enumerate(kvecs)}

        def coords(pair_vec):
            """Coordinates in the K basis of a vector of K: its entries at
            the free pairs, each basis vector having a 1 at its own."""
            return {free_index[f]: c for f, c in pair_vec.items() if f in free_index}

        action_rows = []
        if cat and cat.action_gens:
            for g in range(len(cat.action_gens)):
                for a, (vec, free, lab) in enumerate(kvecs):
                    img = {}
                    for pair, c in vec.items():
                        for pair2, cp in B.tensor_action(g, pair).items():
                            add_term(img, pair2, c * cp)
                    row = coords(img)
                    add_term(row, a, -1)
                    if row:
                        action_rows.append(row)
        rows = []
        if cat:
            for a, (vec, free, lab) in enumerate(kvecs):
                if lab != cat.unit_id:
                    rows.append({a: 1})
        for w in blk["W"]:
            row = coords(w)
            if row:
                rows.append(row)
        rows.extend(action_rows)
        total += len(kvecs) - sparse_rank(rows)
    return total
