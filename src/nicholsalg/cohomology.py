"""Bialgebra cohomology of finite graded braided bialgebras, in fixed degrees.

Cochains are maps (B+)^p -> (B+)^q stored entrywise on basis tuples. The
Hochschild-type and coalgebra-type faces dh and dc act through the regular
(co)module structure of the braided tensor powers, and the total
differential of the Gerstenhaber-Schack double complex is d = dh + (-1)^p dc,
its sign placed only by _signed. The truncated second cohomology is computed
per homogeneity degree l from exact ranks of the cocycle and coboundary
systems of d, with all maps constrained to be morphisms for the attached
category structure.

Each system costs in proportion to its unknowns, not to the number of basis
tuples: map_unknowns enumerates only the (degree, label) buckets where a
source meets a target, each face is built from its input entries through
transposes of mult and of the coactions that B keeps, and the equivariance
rows visit only the sources the unknowns reach.

The coboundary dimension B comes first. Computing it checks that every
coboundary satisfies every cocycle row, and raises if one does not, so
B <= Z is proven and the n cocycle rows have rank at most n - B. Their
echelon stops at that rank: reaching it gives Z = B exactly, with the rest
of the rows left unread; otherwise every row is eliminated, as a full rank
would. One routine, _h2, does this for truncated_H2 (the face d) and for
the augmentation-cocycle cohomology H2_eps (the face dh), which is compared
with Hom(M, U) for M = I / (T+ I + I T+) the minimal relations of the
Nichols ideal I. kernel_M reads M off the rules that the layers of B
already hold: the rules of degree d span I_d / I_(d-1) V, and M_d is that
space modulo the letters times the rules of degree d-1.
"""

from .linalg import Echelon, add_term, row_axpy, sparse_rank


# -- cochain faces ----------------------------------------------------------
#
# A cochain (B+)^p -> (B+)^q is stored on its entries (s, t): s a p-tuple and t
# a q-tuple of basis indices. dh and dc below carry the signs of their own
# alternating face sums; the sign (-1)^p of dc in d is added only by _signed,
# in d_apply. Each of dh and dc is a sparse matrix over
# entries, given as a stream of (output entry, input entry, coeff) built from
# the input entries it is handed; with none it yields nothing and touches no
# structure table. For an input (s', t):
# - the outer Hochschild faces put a positive basis element a in front of or
#   behind s' and act on t by a;
# - the inner Hochschild faces replace a leg j of s' by each pair (x, y) whose
#   product has a term at j, read from B.mult_sources (the transpose of mult);
# - the outer coalgebra faces read the sources s whose coaction has a term at
#   s' from B.coaction_sources (the transposes of coact_left and coact_right);
# - the inner coalgebra faces split a leg of t by its coproduct.


def _by_source(keys):
    """Entry keys grouped by source; rows reuse these key objects rather
    than building a new tuple per matrix entry."""
    by_src = {}
    for key in keys:
        by_src.setdefault(key[0], []).append(key)
    return by_src


def _dh_entries(B, keys):
    """Matrix entries of the Hochschild face on (p, q)-cochain entries."""
    pos = B.positive()
    for s2, inputs in _by_source(keys).items():
        p = len(s2)
        for a in pos:
            for inp in inputs:
                for t2, c in B.act_left(a, inp[1]).items():
                    yield ((a,) + s2, t2), inp, c
                for t2, c in B.act_right(inp[1], a).items():
                    yield (s2 + (a,), t2), inp, c if p % 2 else -c
        for i in range(1, p + 1):
            for x, y, cm in B.mult_sources(s2[i - 1]):
                s = s2[: i - 1] + (x, y) + s2[i:]
                for inp in inputs:
                    yield (s, inp[1]), inp, -cm if i % 2 else cm


def _dc_entries(B, keys):
    """Matrix entries of the coalgebra face on (p, q)-cochain entries."""
    for s2, inputs in _by_source(keys).items():
        for s, j0, c in B.coaction_sources("left", s2):
            for inp in inputs:
                yield (s, (j0,) + inp[1]), inp, c
        for inp in inputs:
            t = inp[1]
            for j in range(1, len(t) + 1):
                for (a, b), c in B.coprod(t[j - 1]).items():
                    yield (s2, t[: j - 1] + (a, b) + t[j:]), inp, -c if j % 2 else c
        for s, j0, c in B.coaction_sources("right", s2):
            for inp in inputs:
                t = inp[1]
                yield (s, t + (j0,)), inp, -c if len(t) % 2 == 0 else c


def _rows(entries):
    """Collect a face stream into rows {output entry: {input entry: coeff}}."""
    rows = {}
    for out, inp, c in entries:
        add_term(rows.setdefault(out, {}), inp, c)
    return {key: row for key, row in rows.items() if row}


def dh_apply(B, keys):
    """Hochschild face on cochain entries, as rows over those entries."""
    return _rows(_dh_entries(B, keys))


def dc_apply(B, keys):
    """Coalgebra-type face on cochain entries, as rows over them."""
    return _rows(_dc_entries(B, keys))


def _signed(F):
    """(-1)^p F over cochain entries, p the source length: the sign of dc in d."""
    return {key: -c if len(key[0]) % 2 else c for key, c in F.items()}


def d_apply(B, keys):
    """Total differential d = dh + (-1)^p dc on cochain entries, as rows over
    them. An output entry's dh inputs and dc inputs lie in different (p, q)
    slices, so its two rows merge without cancelling."""
    rows = dh_apply(B, keys)
    for key, row in dc_apply(B, keys).items():
        rows.setdefault(key, {}).update(_signed(row))
    return rows


# -- morphism constraints ----------------------------------------------------


def map_unknowns(B, p, q, ell=None):
    """Entries (s, t) of a morphism (B+)^p -> (B+)^q, of degree ell if given:
    s and t have the same label, and deg t = deg s + ell. Sources and targets are
    enumerated only in the (degree, label) buckets that both reach, so an
    ell with no such bucket enumerates nothing. Sources run in product
    order, each with its targets in product order."""
    graded, shift = ell is not None, ell or 0
    ends = B.tuple_states(q, graded)
    match = {(d, lab) for d, lab in B.tuple_states(p, graded) if (d + shift, lab) in ends}
    targets = {}
    for t, (d, lab) in B.tuples(q, {(d + shift, lab) for d, lab in match}, graded):
        targets.setdefault((d - shift, lab), []).append(t)
    return [(s, t) for s, st in B.tuples(p, match, graded) for t in targets[st]]


def equivariance_rows(B, unknowns):
    """Rows forcing a map on the given entries to commute with the group action.

    For each generator g the rows at a source s say g.f(s) = f(g.s); they
    are empty unless s or a term of g.s is a source of an unknown, so only
    those s are visited, in product order.
    """
    cat = B.category
    if cat is None or not cat.action_gens or not unknowns:
        return []
    by_src = _by_source(unknowns)
    rows = []
    for g in range(len(cat.action_gens)):
        sources = set(by_src)
        for s2 in by_src:
            sources.update(B.action_sources(g, s2))
        for s in sorted(sources):
            per_t = {}
            for s2, c in B.tensor_action(g, s).items():
                for key in by_src.get(s2, ()):
                    add_term(per_t.setdefault(key[1], {}), key, c)
            for key in by_src.get(s, ()):
                for t2, c in B.tensor_action(g, key[1]).items():
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
    for row in equivariance_rows(B, hU):
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


# -- second cohomology --------------------------------------------------------


def _cocycle_rows(B, unknowns, face):
    """The face rows on the entries unknowns, then equivariance: face rows
    bring the cocycle echelon to its bound sooner."""
    return list(face(B, unknowns).values()) + equivariance_rows(B, unknowns)


def _h2(B, zU, bU, face):
    """{Z, B, H} of the morphism cocycles of face on the entries zU modulo the
    face of the morphisms on the entries bU, B first (module doc)."""
    rows = _cocycle_rows(B, zU, face)
    dim_b = _coboundary_rank(B, bU, face(B, bU), set(zU), rows)
    dim_z = len(zU) - sparse_rank(rows, bound=len(zU) - dim_b)
    return {"Z": dim_z, "B": dim_b, "H": dim_z - dim_b}


def truncated_H2(B, ell):
    """dims of the degree-l cocycle pair space, coboundaries and quotient.

    Pairs (f, g) with f: (B+)^2 -> B+ and g: B+ -> (B+)^2, both morphisms
    of degree l, with d(f, g) = 0: associativity (dh f), coassociativity
    (dc g) and compatibility (dc f + dh g). Coboundaries are d h for
    morphisms h: B+ -> B+ of degree l.
    """
    pairs = map_unknowns(B, 2, 1, ell) + map_unknowns(B, 1, 2, ell)
    return _h2(B, pairs, map_unknowns(B, 1, 1, ell), d_apply)


# -- epsilon cohomology and Hom(M, U) ---------------------------------------


def epsilon_H2(B):
    """dims of Z2_eps, B2_eps, H2_eps for the trivial module U of unit label.

    U is the 0-th tensor power (basis tuple ()), on which B acts through the
    counit, so H2_eps is the q = 0 column of the Hochschild differential:
    cocycles f: (B+)^2 -> U with dh f = 0, modulo dh t for t: B+ -> U.
    """
    return _h2(B, map_unknowns(B, 2, 0), map_unknowns(B, 1, 0), dh_apply)


def _in_rules(rules, terms):
    """Coordinates in the rules of a vector of R_d given by its (candidate,
    coeff) terms: its entries at the dependent candidates (kernel_M)."""
    row = {}
    for j, c in terms:
        if j in rules:
            add_term(row, j, c)
    return row


def kernel_M(B):
    """dim M_d of the minimal relations M = I / (T+ I + I T+) of the Nichols
    ideal I (Anick, Trans. AMS 1986), read off the rules of the layers of B.

    Candidate j = k theta + a, e_k followed by the letter x_a, is a basis
    vector of B_(d-1) (x) V = T_d / I_(d-1) V. If its word is not a basis
    word, its rule e_j - nf[j] has 1 at j and 0 at every other such
    candidate; these rules are a basis of R_d = I_d / I_(d-1) V. As
    (T+ I + I T+)_d = V I_(d-1) + I_(d-1) V, M_d = R_d / L_d, with L_d
    spanned by v.r = sum c mult(v, k) (x) x_a over the terms c (k, a) of a
    rule r of degree d-1, v a letter.

    Returns {"dims": {d: dim M_d}, "blocks": {d: {"rules", "L"}}} for d in
    2..2 top; cli.cmd_epsilon compares the dims with RewriteSystem.minimal.
    """
    theta, flat, index = B.V.rank, B.flat, B.index
    letters = [index[(v,)] for v in range(theta)]
    rules = {}
    for j, form in enumerate(B.nf):
        word = flat[j // theta] + (j % theta,)
        if word not in index:
            rule = {index[flat[w][:-1]] * theta + flat[w][-1]: -c for w, c in form.items()}
            rules.setdefault(len(word), {})[j] = {j: 1, **rule}
    dims, blocks = {}, {}
    for d in range(2, 2 * B.top_degree + 1):
        here = rules.get(d, {})
        lrows = [
            row
            for r in rules.get(d - 1, {}).values()
            for v in letters
            if (row := _in_rules(here, (
                (m * theta + key % theta, c * cm)
                for key, c in r.items()
                for m, cm in B.mult(v, key // theta).items()
            )))
        ]
        dims[d] = len(here) - sparse_rank(lrows)
        blocks[d] = {"rules": here, "L": lrows}
    return {"dims": dims, "blocks": blocks}


def hom_M_dim(B, mdata):
    """dim Hom(M, U) in the category, U the trivial module of unit label: the
    functionals on each R_d that vanish on L_d, on every rule whose label,
    that of its candidate, is not the unit's, and, for group type, on
    g.r - r for each action generator g, acting legwise on e_k (x) x_a."""
    cat, theta = B.category, B.V.rank
    letters = [B.index[(a,)] for a in range(theta)]
    total = 0
    for blk in mdata["blocks"].values():
        rules, rows = blk["rules"], list(blk["L"])
        for j, r in rules.items() if cat else ():
            k, a = divmod(j, theta)
            if cat.mul_ids(cat.label_ids[k], cat.label_ids[letters[a]]) != cat.unit_id:
                rows.append({j: 1})
            for gen in cat.action_gens or ():
                row = _in_rules(rules, (
                    (m * theta + B.flat[b][0], c * cm * cb)
                    for key, c in r.items()
                    for m, cm in gen[key // theta].items()
                    for b, cb in gen[letters[key % theta]].items()
                ))
                add_term(row, j, -1)
                rows.append(row)
        total += len(rules) - sparse_rank(rows)
    return total
