"""Bialgebra cohomology of finite graded braided bialgebras, in fixed degrees.

Cochains are maps (B+)^p -> (B+)^q stored entrywise on basis tuples. The
Hochschild-type and coalgebra-type faces act through the regular (co)module
structure of the braided tensor powers; the truncated second cohomology is
computed per homogeneity degree l as exact ranks of the cocycle and
coboundary systems, with all maps constrained to be morphisms for the
attached category structure.

Also here: the augmentation-cocycle cohomology H2_eps and its comparison
with Hom(M, U) for M the kernel of multiplication on B+ (x)_B B+, and
first-order deformations over k[t]/(t^(r+1)).
"""

import random
from fractions import Fraction

from .bialgebra import check_bialgebra_axioms
from .cyclo import CycNumber, ONE, rational
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
    """
    fU = map_unknowns(B, 2, 1, ell)
    gU = map_unknowns(B, 1, 2, ell)
    cocycle_rows = _cocycle_rows(B, fU, gU)
    dim_z = len(fU) + len(gU) - sparse_rank(cocycle_rows)

    hU = map_unknowns(B, 1, 1, ell)
    # the coboundary of h is (dh h, -dc h); f and g entries differ in shape
    faces = dh_apply(B, hU, 1)
    for key, row in dc_apply(B, hU, 1).items():
        faces[key] = {k: -c for k, c in row.items()}
    dim_b = _coboundary_rank(B, hU, faces, set(fU) | set(gU), cocycle_rows)
    return {"Z": dim_z, "B": dim_b, "H": dim_z - dim_b}


def _cocycle_rows(B, fU, gU):
    """Equations on the f/g entries: equivariance, associativity (dh f),
    coassociativity (dc g) and compatibility (dc f + dh g)."""
    rows = equivariance_rows(B, fU, 2) + equivariance_rows(B, gU, 1)
    rows += dh_apply(B, fU, 2).values()
    rows += dc_apply(B, gU, 1).values()
    compat = dc_apply(B, fU, 2)
    for key, row in dh_apply(B, gU, 1).items():
        row_axpy(compat.setdefault(key, {}), ONE, row)
    rows += (row for row in compat.values() if row)
    return rows


def solve_cocycles(B, ell):
    """Basis of the degree-l cocycle pairs as dicts over f/g entries (s, t)."""
    fU = map_unknowns(B, 2, 1, ell)
    gU = map_unknowns(B, 1, 2, ell)
    return [vec for _, vec in nullspace(_cocycle_rows(B, fU, gU), fU + gU)]


def check_filtration_vanishing(B, pair_vec, ell, r):
    """Degree-filtration property of cocycle pairs.

    With f_s the restriction of f to sources of total degree s: if r > 1,
    f_{<=r} = 0 and g_{<r} = 0 then g_r = 0; if l < 0 and f_{<=r} = 0 then
    g_{<=r} = 0; and if f = 0 with l < 0 then g = 0. Returns True when all
    applicable implications hold for the given pair (f entries have 2-tuple
    sources, g entries 1-tuple ones).
    """
    f_degs = {sum(B.degree(i) for i in s) for s, _ in pair_vec if len(s) == 2}
    g_degs = {sum(B.degree(i) for i in s) for s, _ in pair_vec if len(s) == 1}
    ok = True
    if r > 1 and not any(d <= r for d in f_degs) and not any(d < r for d in g_degs):
        ok = ok and r not in g_degs
    if ell < 0 and not any(d <= r for d in f_degs):
        ok = ok and not any(d <= r for d in g_degs)
    if ell < 0 and not f_degs:
        ok = ok and not g_degs
    return ok


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
    cocycles f: (B+)^2 -> U with dh f = 0, modulo dh t for t: B+ -> U.
    """
    fU = map_unknowns(B, 2, 0)
    rows = equivariance_rows(B, fU, 2)
    rows += dh_apply(B, fU, 2).values()
    dim_z = len(fU) - sparse_rank(rows)

    tU = map_unknowns(B, 1, 0)
    dim_b = _coboundary_rank(B, tU, dh_apply(B, tU, 1), set(fU), rows)
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


# -- first-order deformations -----------------------------------------------


class TruncPoly:
    """Element of k[t]/(t^(r+1)) with cyclotomic coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @staticmethod
    def const(c, r):
        return TruncPoly((c,) + (rational(0),) * r)

    @staticmethod
    def tpow(c, k, r):
        coeffs = [rational(0)] * (r + 1)
        if k <= r:
            coeffs[k] = c
        return TruncPoly(coeffs)

    def __add__(self, other):
        return TruncPoly(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self):
        return TruncPoly(-a for a in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, CycNumber):
            return TruncPoly(a * other for a in self.coeffs)
        n = len(self.coeffs)
        out = [rational(0)] * n
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j < n and not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncPoly(out)

    __rmul__ = __mul__

    def is_zero(self):
        return all(a.is_zero() for a in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, TruncPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"TruncPoly({self.coeffs!r})"


def first_order_deformation(B, pair_vec, r):
    """Deform (m, Delta) by t^r times a cocycle pair; verify all axioms.

    Returns (tables, report) where tables hold the deformed structure
    constants over k[t]/(t^(r+1)) and report maps each axiom to (ok,
    witness). A genuine cocycle always passes; a failure pinpoints the
    violated instance.
    """
    fpart = {}
    gpart = {}
    for (s, t), c in pair_vec.items():
        if len(s) == 2:
            fpart.setdefault(s, {})[t[0]] = c
        else:
            gpart.setdefault(s[0], {})[t] = c

    def mult_t(i, j):
        out = {k: TruncPoly.tpow(c, 0, r) for k, c in B.mult(i, j).items()}
        for k, c in fpart.get((i, j), {}).items():
            cur = out.get(k, TruncPoly.const(rational(0), r))
            out[k] = cur + TruncPoly.tpow(c, r, r)
        return {k: v for k, v in out.items() if not v.is_zero()}

    def coprod_t(i):
        out = {p: TruncPoly.tpow(c, 0, r) for p, c in B.coprod(i).items()}
        for p, c in gpart.get(i, {}).items():
            cur = out.get(p, TruncPoly.const(rational(0), r))
            out[p] = cur + TruncPoly.tpow(c, r, r)
        return {k: v for k, v in out.items() if not v.is_zero()}

    report = check_bialgebra_axioms(
        B.dim, B.unit, mult_t, coprod_t, B.braid, TruncPoly.tpow(ONE, 0, r)
    )
    tables = {"mult": mult_t, "coprod": coprod_t}
    return tables, report
