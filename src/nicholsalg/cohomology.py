"""Bialgebra cohomology of finite graded braided bialgebras, in fixed degrees.

Cochains are maps (B+)^p -> (B+)^q stored entrywise on basis tuples. The
Hochschild-type and coalgebra-type faces act through the regular (co)module
structure of the braided tensor powers; the truncated second cohomology is
computed per homogeneity degree l from exact ranks of the cocycle and
coboundary systems, with all maps constrained to be morphisms for the
attached category structure.

The coboundary dimension B comes first. Computing it checks that every
coboundary satisfies every cocycle row, and raises if one does not, so
B <= Z is proven and the n cocycle rows have rank at most n - B. Their
echelon stops at that rank: reaching it gives Z = B exactly, with the rest
of the rows left unread; otherwise every row is eliminated, as a full rank
would.

Also here: the augmentation-cocycle cohomology H2_eps, computed the same
way, and its comparison with Hom(M, U) for M the kernel of multiplication
on B+ (x)_B B+.
"""

import random
from fractions import Fraction

from .cyclo import ONE, rational
from .linalg import Echelon, add_term, nullspace, row_axpy, sparse_rank


# -- cochain faces ----------------------------------------------------------
#
# A cochain (B+)^p -> (B+)^q is stored on its entries (s, t): s a p-tuple and t
# a q-tuple of basis indices. Each face is a sparse matrix over entries, given
# as a stream of (output entry, input entry, coeff) over the input entries it
# is handed; with none it yields nothing and touches no structure table.


def _by_source(keys):
    """Entry keys grouped by source; rows reuse these key objects rather
    than building a new tuple per matrix entry."""
    by_src = {}
    for key in keys:
        by_src.setdefault(key[0], []).append(key)
    return by_src


def _dh_entries(B, keys, p):
    """Matrix entries of the Hochschild face on (p, q)-cochain entries."""
    look = _by_source(keys)
    if not look:
        return
    for s in B.positive_tuples(p + 1):
        for inp in look.get(s[1:], ()):
            for t2, c in B.act_left(s[0], inp[1]).items():
                yield (s, t2), inp, c
        for i in range(1, p + 1):
            for j, cm in B.mult(s[i - 1], s[i]).items():
                for inp in look.get(s[: i - 1] + (j,) + s[i + 1 :], ()):
                    yield (s, inp[1]), inp, -cm if i % 2 else cm
        for inp in look.get(s[:p], ()):
            for t2, c in B.act_right(inp[1], s[p]).items():
                yield (s, t2), inp, c if p % 2 else -c


def _dc_entries(B, keys, p):
    """Matrix entries of the coalgebra face on (p, q)-cochain entries."""
    look = _by_source(keys)
    if not look:
        return
    for s in B.positive_tuples(p):
        for (j0, s2), c in B.coact_left(s).items():
            for inp in look.get(s2, ()):
                yield (s, (j0,) + inp[1]), inp, c
        for inp in look.get(s, ()):
            t = inp[1]
            for j in range(1, len(t) + 1):
                for (a, b), c in B.coprod(t[j - 1]).items():
                    yield (s, t[: j - 1] + (a, b) + t[j:]), inp, -c if j % 2 else c
        for (s2, j0), c in B.coact_right(s).items():
            for inp in look.get(s2, ()):
                t = inp[1]
                yield (s, t + (j0,)), inp, -c if len(t) % 2 == 0 else c


def _rows(entries):
    """Collect a face stream into rows {output entry: {input entry: coeff}}."""
    rows = {}
    for out, inp, c in entries:
        add_term(rows.setdefault(out, {}), inp, c)
    for key in [key for key, row in rows.items() if not row]:
        del rows[key]
    return rows


def dh_apply(B, keys, p):
    """Hochschild face on (p, q)-cochain entries, as rows over those entries."""
    return _rows(_dh_entries(B, keys, p))


def dc_apply(B, keys, p):
    """Coalgebra-type face on (p, q)-cochain entries, as rows over them."""
    return _rows(_dc_entries(B, keys, p))


# -- morphism constraints ----------------------------------------------------


def map_unknowns(B, p, q, ell=None):
    """Entries (s, t) of a morphism (B+)^p -> (B+)^q, of degree ell if given."""

    def degree(tup, shift=0):
        return None if ell is None else sum(B.degree(i) for i in tup) + shift

    targets = {}
    for t in B.positive_tuples(q):
        targets.setdefault(degree(t), []).append(t)
    cat = B.category
    labels = {}

    def label(tup):
        if tup not in labels:
            labels[tup] = cat.tuple_label(tup)
        return labels[tup]

    out = []
    for s in B.positive_tuples(p):
        for t in targets.get(degree(s, ell), ()):
            if cat is None or label(t) == label(s):
                out.append((s, t))
    return out


def _tensor_action(B, mat, tup):
    states = {(): ONE}
    for i in tup:
        nxt = {}
        for partial, c in states.items():
            for j, cm in mat[i].items():
                add_term(nxt, partial + (j,), c * cm)
        states = nxt
    return states


def equivariance_rows(B, unknowns, p):
    """Rows forcing a map on the given entries to commute with the group action."""
    cat = B.category
    if cat is None or not cat.action_gens or not unknowns:
        return []
    by_src = _by_source(unknowns)
    rows = []
    for mat in cat.action_gens:
        for s in B.positive_tuples(p):
            per_t = {}
            for s2, c in _tensor_action(B, mat, s).items():
                for key in by_src.get(s2, ()):
                    add_term(per_t.setdefault(key[1], {}), key, c)
            for key in by_src.get(s, ()):
                for t2, c in _tensor_action(B, mat, key[1]).items():
                    add_term(per_t.setdefault(t2, {}), key, -c)
            rows.extend(r for r in per_t.values() if r)
    return rows


def _coboundary_rank(B, hU, faces, allowed, cocycle_rows):
    """dim of the image of the equivariant maps on the entries hU under the
    face rows D: rank[E; D] - rank E, with E the equivariance rows on hU.

    The image must consist of cocycle morphisms: every face row at an entry
    outside allowed, and the pullback r.D of every cocycle row r, must vanish
    on ker E, that is, lie in the row space of E.
    """
    ech = Echelon()
    for row in equivariance_rows(B, hU, 1):
        ech.add(row)
    rank_e = ech.rank
    if any(key not in allowed and not ech.contains(row) for key, row in faces.items()):
        raise RuntimeError("coboundary leaves the morphism space")
    for r in cocycle_rows:
        pulled = {}
        for key, c in r.items():
            if key in faces:
                row_axpy(pulled, c, faces[key])
        if not ech.contains(pulled):
            raise RuntimeError("coboundary fails a cocycle condition")
    for row in faces.values():
        ech.add(row)
    return ech.rank - rank_e


# -- truncated second cohomology --------------------------------------------


def truncated_H2(B, ell):
    """dims of the degree-l cocycle pair space, coboundaries and quotient.

    Pairs (f, g) with f: (B+)^2 -> B+ and g: B+ -> (B+)^2, both morphisms
    of degree l, subject to the associativity, coassociativity and
    compatibility conditions; coboundaries come from morphisms h: B+ -> B+.
    The cocycle rows are ranked only up to n - B, n the number of f/g
    entries: _coboundary_rank has checked every row against every
    coboundary, so B <= Z, and reaching that rank means Z = B.
    """
    fU = map_unknowns(B, 2, 1, ell)
    gU = map_unknowns(B, 1, 2, ell)
    cocycle_rows = _cocycle_rows(B, fU, gU)

    hU = map_unknowns(B, 1, 1, ell)
    # the coboundary of h is (dh h, -dc h); f and g entries differ in shape
    faces = dh_apply(B, hU, 1)
    for key, row in dc_apply(B, hU, 1).items():
        faces[key] = {k: -c for k, c in row.items()}
    dim_b = _coboundary_rank(B, hU, faces, set(fU) | set(gU), cocycle_rows)
    n = len(fU) + len(gU)
    dim_z = n - sparse_rank(cocycle_rows, bound=n - dim_b)
    return {"Z": dim_z, "B": dim_b, "H": dim_z - dim_b}


def _cocycle_rows(B, fU, gU):
    """Equations on the f/g entries: associativity (dh f), coassociativity
    (dc g) and compatibility (dc f + dh g), then equivariance; the face rows
    come first because they bring the cocycle echelon to its bound sooner."""
    rows = list(dh_apply(B, fU, 2).values())
    rows += dc_apply(B, gU, 1).values()
    compat = dc_apply(B, fU, 2)
    for key, row in dh_apply(B, gU, 1).items():
        row_axpy(compat.setdefault(key, {}), ONE, row)
    rows += (row for row in compat.values() if row)
    return rows + equivariance_rows(B, fU, 2) + equivariance_rows(B, gU, 1)


# -- total differential selfcheck -------------------------------------------


def tot_differential(B, comps):
    """One step of the total differential on {(p, q): cochain} components."""
    out = {}
    for (p, q), F in comps.items():
        if not F:
            continue
        dh = out.setdefault((p + 1, q), {})
        for key, inp, c in _dh_entries(B, F, p):
            add_term(dh, key, F[inp] * c)
        signed = {k: -v for k, v in F.items()} if p % 2 else F
        dc = out.setdefault((p, q + 1), {})
        for key, inp, c in _dc_entries(B, signed, p):
            add_term(dc, key, signed[inp] * c)
    return out


def random_cochain(B, p, q, rng, entries=12):
    """Random morphism cochain: label-matched entries, equivariant if needed.

    The total differential squares to zero only on morphisms of the category
    (naturality of the braiding enters the crossed outer-face identities),
    so random tests must sample from the morphism space.
    """
    cat = B.category
    keys = map_unknowns(B, p, q)
    if cat is not None and cat.action_gens:
        basis = [vec for _, vec in nullspace(equivariance_rows(B, keys, p), keys)]
        rng.shuffle(basis)
        out = {}
        for vec in basis[:entries]:
            c = rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            for key, v in vec.items():
                add_term(out, key, v * c)
        return out
    rng.shuffle(keys)
    return {
        key: rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for key in keys[:entries]
    }


def total_square_check(B, seed=0, entries=12):
    """d(d(x)) = 0 for random cochain components at p+q = 2 and p+q = 3."""
    rng = random.Random(seed)
    starts = [
        {(1, 1): random_cochain(B, 1, 1, rng, entries)},
        {
            (2, 1): random_cochain(B, 2, 1, rng, entries),
            (1, 2): random_cochain(B, 1, 2, rng, entries),
        },
    ]
    for comps in starts:
        once = tot_differential(B, comps)
        twice = tot_differential(B, once)
        for (p, q), F in twice.items():
            if any(not v.is_zero() for v in F.values()):
                return False, (p, q)
    return True, None


# -- epsilon cohomology and Hom(M, U) ---------------------------------------


def epsilon_H2(B):
    """dims of Z2_eps, B2_eps, H2_eps for the trivial module U of unit label.

    U is the 0-th tensor power (basis tuple ()), on which B acts through the
    counit, so H2_eps is the q = 0 column of the Hochschild differential:
    cocycles f: (B+)^2 -> U with dh f = 0, modulo dh t for t: B+ -> U. As in
    truncated_H2, B comes first and the cocycle rows are ranked only up to
    n - B; where H2_eps is nonzero, every row is eliminated.
    """
    fU = map_unknowns(B, 2, 0)
    rows = list(dh_apply(B, fU, 2).values()) + equivariance_rows(B, fU, 2)
    tU = map_unknowns(B, 1, 0)
    dim_b = _coboundary_rank(B, tU, dh_apply(B, tU, 1), set(fU), rows)
    dim_z = len(fU) - sparse_rank(rows, bound=len(fU) - dim_b)
    return {"Z": dim_z, "B": dim_b, "H": dim_z - dim_b}


def kernel_M(B):
    """M = ker(B+ (x)_B B+ -> B+) degreewise, from structure constants.

    Returns {"dims": {degree: dim}, "blocks": per-degree data}. The
    completion that built B counts the same dims from the relations, as
    B.rs.minimal.
    """
    max_degree = 2 * B.top_degree
    cat = B.category
    pos = B.positive()
    deg = {i: B.degree(i) for i in pos}
    by_degree = {}  # the last leg of a pair or triple runs over one of these, in pos order
    for i in pos:
        by_degree.setdefault(deg[i], []).append(i)
    dims = {}
    blocks = {}
    for d in range(2, max_degree + 1):
        pairs = [(i, j) for i in pos for j in by_degree.get(d - deg[i], ())]
        if not pairs:
            dims[d] = 0
            continue
        by_label = {}
        for p in pairs:
            lab = cat.tuple_label(p) if cat else None
            by_label.setdefault(lab, []).append(p)
        kvecs = []  # (vec over pairs, free pair, label)
        for lab, plist in by_label.items():
            rows = {}
            for (i, j) in plist:
                for k, c in B.mult(i, j).items():
                    rows.setdefault(k, {})[(i, j)] = c
            for free, vec in nullspace(rows.values(), plist):
                kvecs.append((vec, free, lab))
        wrows = []
        for x in pos:
            for a in pos:
                for y in by_degree.get(d - deg[x] - deg[a], ()):
                    row = {}
                    for j, c in B.mult(x, a).items():
                        add_term(row, (j, y), c)
                    for j, c in B.mult(a, y).items():
                        add_term(row, (x, j), -c)
                    if row:
                        wrows.append(row)
        dims[d] = len(kvecs) - sparse_rank(wrows)
        blocks[d] = {"K": kvecs, "W": wrows}
    return {"dims": dims, "blocks": blocks}


def hom_M_dim(B, mdata):
    """dim Hom(M, U) in the category, U the trivial module of unit label."""
    cat = B.category
    total = 0
    for d, blk in mdata["blocks"].items():
        kvecs = blk["K"]
        if not kvecs:
            continue
        free_index = {free: a for a, (vec, free, lab) in enumerate(kvecs)}

        def coords(pair_vec):
            return {
                free_index[f]: pair_vec[f]
                for f in free_index
                if f in pair_vec and not pair_vec[f].is_zero()
            }

        action_rows = []
        if cat and cat.action_gens:
            for mat in cat.action_gens:
                for a, (vec, free, lab) in enumerate(kvecs):
                    img = {}
                    for pair, c in vec.items():
                        for pair2, cp in _tensor_action(B, mat, pair).items():
                            add_term(img, pair2, c * cp)
                    row = coords(img)
                    add_term(row, a, -ONE)
                    if row:
                        action_rows.append(row)
        rows = []
        if cat:
            for a, (vec, free, lab) in enumerate(kvecs):
                if lab != cat.label_unit:
                    rows.append({a: ONE})
        for w in blk["W"]:
            row = coords(w)
            if row:
                rows.append(row)
        rows.extend(action_rows)
        total += len(kvecs) - sparse_rank(rows)
    return total
