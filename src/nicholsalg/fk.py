"""Quadratic algebras on transpositions of the symmetric group.

Generators x_(ij) for i < j carry group degree (ij); the braiding is
sign-twisted conjugation,
    c(x_s (x) x_t) = chi(s, t) x_{s t s^-1} (x) x_s,
with chi(s, (ij)) = 1 if s(i) < s(j) and -1 otherwise.
"""

from itertools import combinations

from .bialgebra import attach_group_category, compose_perm, from_nichols
from .braided import build_group_type, check_braid_equation
from .cyclo import rational
from .rewriting import rewrite_dims


def transpositions(n):
    """Ordered generator labels (i, j), 1-based, lexicographic."""
    return list(combinations(range(1, n + 1), 2))


def _perm_of(pair, n):
    i, j = pair
    p = list(range(n))
    p[i - 1], p[j - 1] = p[j - 1], p[i - 1]
    return tuple(p)


def _pair_of(perm):
    moved = [i for i, v in enumerate(perm) if v != i]
    if len(moved) != 2:
        return None
    return (moved[0] + 1, moved[1] + 1)


def fk_chi(sigma_perm, tau_pair):
    """chi(sigma, (ij)) = +1 iff sigma(i) < sigma(j)."""
    i, j = tau_pair
    return 1 if sigma_perm[i - 1] < sigma_perm[j - 1] else -1


def build_fk_space(n):
    """The braided space on transpositions of Sym(n)."""
    pairs = transpositions(n)
    perms = [_perm_of(p, n) for p in pairs]
    index = {p: k for k, p in enumerate(pairs)}
    theta = len(pairs)
    act = []
    scal = []
    for a in range(theta):
        sigma = perms[a]
        arow = []
        srow = []
        for b in range(theta):
            conj = compose_perm(compose_perm(sigma, perms[b]), sigma)  # sigma = sigma^-1
            arow.append(index[_pair_of(conj)])
            srow.append(rational(fk_chi(sigma, pairs[b])))
        act.append(arow)
        scal.append(srow)
    basis = tuple(f"x{i}{j}" for i, j in pairs)
    V = build_group_type(basis, act, scal, group_degrees=tuple(perms))
    ok, bad = check_braid_equation(V)
    if not ok:
        raise RuntimeError(f"braid equation fails at {bad}")
    return V


def fk_relations(n):
    """Defining quadratic relations as tensor elements.

    Squares, the two mixed families on overlapping transpositions, and
    commutators of disjoint ones; 5 relations for n=3, 17 for n=4.
    """
    pairs = transpositions(n)
    index = {p: k for k, p in enumerate(pairs)}

    def rel(*terms):
        """sum of sign * x_a x_b over the (sign, a, b); no word repeats."""
        return {(index[a], index[b]): rational(sign) for sign, a, b in terms}

    rels = [rel((1, p, p)) for p in pairs]
    for i, j, k in combinations(range(1, n + 1), 3):
        ij, jk, ik = (i, j), (j, k), (i, k)
        rels.append(rel((1, ij, jk), (-1, jk, ik), (-1, ik, ij)))
        rels.append(rel((1, jk, ij), (-1, ik, jk), (-1, ij, ik)))
    for p, q in combinations(pairs, 2):
        if set(p) & set(q):
            continue
        rels.append(rel((1, p, q), (-1, q, p)))
    return rels


def fk_dims_rewriting(n, max_degree):
    """Graded dims of the quadratic algebra via rewriting; the relations
    need no braided space, only the number of generators."""
    dims, _ = rewrite_dims(len(transpositions(n)), fk_relations(n), max_degree)
    return dims


def group_degree_of(group_degrees, element):
    """Group degree of a homogeneous tensor element, given the permutation
    of each letter (V.group_degrees); None if mixed."""
    degs = set()
    for w in element:
        g = tuple(range(len(group_degrees[0])))
        for letter in w:
            g = compose_perm(g, group_degrees[letter])
        degs.add(g)
    if len(degs) != 1:
        return None
    return degs.pop()


def fk_bialgebra(n, max_degree=5):
    """The finite quadratic algebra as a bialgebra with its Sym(n) category.

    The basis enumeration needs the completed rewriting system past twice
    the top degree; this is cheap for n = 3 and n = 4 (degree 13, dim 576).
    The n = 3 limit of the command line lies in `cli._finite_bialgebra`,
    because the cohomology on the n = 4 bialgebra is far dearer.
    """
    V = build_fk_space(n)
    rels = fk_relations(n)
    B = from_nichols(V, rels, max_degree)
    pairs = transpositions(n)
    index = {p: k for k, p in enumerate(pairs)}
    gens = [(i, i + 1) for i in range(1, n)]

    def letter_action(gamma, t):
        gp = _perm_of(gamma, n)
        conj = compose_perm(compose_perm(gp, _perm_of(pairs[t], n)), gp)
        return index[_pair_of(conj)], rational(fk_chi(gp, pairs[t]))

    attach_group_category(B, gens, letter_action)
    return B, rels


def fk_rigidity(n):
    """Deformation rigidity by group-degree bookkeeping.

    Each defining relation is group-homogeneous; a first-order deformation
    lowering a relation to degree one would need its group degree to equal
    that of some generator, i.e. be a transposition. Squares have identity
    degree, mixed relations a 3-cycle, disjoint commutators a double
    transposition, so no relation qualifies.
    """
    perms = [_perm_of(p, n) for p in transpositions(n)]
    gens = set(perms)
    details = []
    ok = True
    for rel in fk_relations(n):
        g = group_degree_of(perms, rel)
        if g is None:
            ok = False
            details.append(("inhomogeneous", rel))
            continue
        if g in gens:
            ok = False
            details.append(("generator-degree relation", rel))
    return ("Rigid" if ok else "NotDecided"), details
