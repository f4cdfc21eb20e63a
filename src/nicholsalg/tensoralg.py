"""Tensor algebra elements and Nichols algebras degree by degree.

An element of T(V) is a linalg sparse vector {word: coeff}: basis words
(tuples of basis indices) mapped to non-zero scalars of the field of V, int
or Fraction over Q and CycNumber of V's one conductor N (int and Fraction
join it) over Q(zeta_N), as linalg says. Sums and scalings are
linalg.row_axpy and row_scale. All braidings in scope are monomial, so
braid-group lifts act on words one at a time.

NicholsDegree builds B^1, B^2, ... in turn through the embedding of B^n in
B^(n-1) (x) V by Delta_(n-1,1) (Grana 2000; Milinski-Schneider 2000): each
degree costs an echelon of dim B^(n-1) * theta rows, not the quantum
symmetrizer on all theta^n words.
"""

from itertools import permutations

from .braided import braid_word_blocks
from .linalg import Echelon, add_term


def monomial(word):
    """x_word in T(V)."""
    return {tuple(word): 1}


def concat(a, b):
    """Product in T(V) (word concatenation)."""
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            add_term(out, u + v, x * y)
    return out


def degree(element):
    """Word length of a homogeneous element (None for zero)."""
    degs = {len(w) for w in element}
    if len(degs) > 1:
        raise ValueError("element is not homogeneous in word length")
    return degs.pop() if degs else None


def braided_commutator(V, a, b):
    """[a, b]_c = a b - m(c(a (x) b)) in T(V)."""
    out = concat(a, b)
    for u, cu in a.items():
        for v, cv in b.items():
            coeff, nv, nu = braid_word_blocks(V, u, v)
            add_term(out, nv + nu, -(coeff * cu * cv))
    return out


class NicholsDegree:
    """Degree n of the Nichols algebra, embedded in B^(n-1) (x) V.

    basis holds the words b x (b in the basis of degree n-1, x a letter)
    whose images were independent; they span B^n because J^(n-1) V lies in
    J^n. pivots are the pivot columns of the fully reduced echelon of those
    images, so project(u), the image of u restricted to pivots, gives the
    coordinates of u in B^n. Degree 0 is NicholsDegree(V); it creates the
    chains memo of embed, which every later degree shares.
    """

    def __init__(self, V, prev=None):
        self.V, self.prev, self.memo = V, prev, {}
        if prev is None:
            self.basis, self.pivots, self.chains = [()], {()}, {}
            self.memo[()] = {(): 1}
            return
        self.chains = prev.chains
        ech = Echelon()
        self.basis = []
        for b in prev.basis:
            for x in range(V.rank):
                if ech.add(embed(V, prev, b + (x,))):
                    self.basis.append(b + (x,))
        self.pivots = set(ech.pivots)

    def project(self, word):
        hit = self.memo.get(word)
        if hit is None:
            hit = self.memo[word] = embed(self.V, self.prev, word, self.pivots)
        return hit


def embed(V, prev, word, keys=None):
    """Image of a basis word of degree n in B^(n-1) (x) V, keyed by words.

    The quantum symmetrizer factors as S_n = (S_(n-1) (x) id) T_n, where T_n
    sums the descending crossing chains (chain k moves the letter at slot k
    to the last slot). Composing T_n with prev.project (x) id instead keeps
    the kernel, ker S_n, with rows of dim B^(n-1) * theta columns at most.

    prev.chains maps a word w to the scalar of chain 0 on w, the product of
    scal[w[0]][j] over j in w[1:]; chain k of word is chains[word[k:]], and
    its letters after slot k are act[word[k]][j]. If keys is given, only the
    image entries at those keys are summed.
    """
    out = {}
    chains = prev.chains
    for k, i in enumerate(word):
        # x_i crosses the letters after it: c(x_i (x) x_j) = scal x_act (x) x_i
        rest = word[k + 1 :]
        coeff = chains.get(word[k:])
        if coeff is None:
            coeff = 1
            scal = V.scal[i]
            for j in rest:
                coeff = coeff * scal[j]
            chains[word[k:]] = coeff
        act = V.act[i]
        image = prev.project(word[:k] + tuple(act[j] for j in rest))
        unit = coeff == 1
        for p, pc in image.items():
            key = p + (i,)
            if keys is None or key in keys:
                add_term(out, key, pc if unit else pc * coeff)
    return out


def nichols_dims(V, max_degree):
    """Graded dimensions of the Nichols algebra through max_degree."""
    layer = NicholsDegree(V)
    dims = [1]
    for _ in range(max_degree):
        layer = NicholsDegree(V, layer)
        dims.append(len(layer.basis))
    return dims


def root_vector_word(V, alpha):
    """A Lyndon-word based PBW root vector of multidegree alpha.

    Chooses the lexicographically smallest Lyndon word with letter counts
    alpha and brackets it along its standard factorization. Degree-only
    convention; validated against ideal membership in tests.
    """
    letters = []
    for i, a in enumerate(alpha):
        letters.extend([i] * a)
    if len(letters) == 1:
        return monomial(letters)
    word = _smallest_lyndon(tuple(sorted(letters)))
    if word is None:
        raise ValueError(f"no Lyndon word of multidegree {alpha}")
    return _bracket_lyndon(V, word)


def _is_lyndon(w):
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def _smallest_lyndon(sorted_letters):
    for perm in sorted(set(permutations(sorted_letters))):
        if _is_lyndon(perm):
            return perm
    return None


def _bracket_lyndon(V, w):
    if len(w) == 1:
        return monomial(w)
    # standard factorization: w = uv with v the longest proper Lyndon suffix
    for split in range(1, len(w)):
        v = w[split:]
        if _is_lyndon(v):
            u = w[:split]
            return braided_commutator(V, _bracket_lyndon(V, u), _bracket_lyndon(V, v))
    raise ValueError(f"{w} is not a Lyndon word")
