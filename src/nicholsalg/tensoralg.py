"""Tensor algebra elements and Nichols algebras degree by degree.

An element of T(V) is a linalg sparse vector {word: coeff}: basis words
(tuples of basis indices) mapped to non-zero scalars of the field of V, int
or Fraction over Q and CycNumber of V's one conductor N (int and Fraction
join it) over Q(zeta_N), as linalg says. Sums and scalings are
linalg.row_axpy and row_scale. All braidings in scope are monomial, so
braid-group lifts act on words one at a time.

NicholsDegree builds B^1, B^2, ... in turn by the coproduct recursion in
the braided tensor product B (x) B,

    Delta_(n-1,1)(b x) = b (x) x + sum c scal[y][x] (p act[y][x]) (x) y,

over the terms c p (x) y of Delta_(n-2,1)(b); p act[y][x] is a word b' x'
of degree n-1, so its normal form is already known. Delta_(n-1,1) is
injective on B^n (Grana 2000; Milinski-Schneider 2000), so a word b x is a
basis word exactly when its row is independent of the rows before it, and
otherwise its row reduces to its rule. Each degree costs an echelon of
dim B^(n-1) * theta rows, not the quantum symmetrizer on all theta^n words.
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
    """Degree n of the Nichols algebra: its basis words, rows and rules.

    The candidates are the words b x, b in the basis of degree n-1 and x a
    letter, in that order; they span B^n because J^(n-1) V lies in J^n.
    rows[w] is Delta_(n-1,1)(w) of a basis word w, keyed by p + (y,) for
    its term p (x) x_y. nf[w] writes each candidate w in the basis words of
    degree n: {w: 1} for a basis word, its rule otherwise. Degree 0 is
    NicholsDegree(V).
    """

    def __init__(self, V, prev=None):
        if prev is None:
            self.basis, self.rows, self.nf = [()], {(): {}}, {(): {(): 1}}
            return
        self.basis, self.rows, self.nf = [], {}, {}
        ech = Echelon()
        for b in prev.basis:
            brow = prev.rows[b]
            for x in range(V.rank):
                # (b (x) 1 + Delta_(n-2,1)(b))(x (x) 1 + 1 (x) x) in B (x) B
                w = b + (x,)
                row = {w: 1}
                for key, c in brow.items():
                    y = key[-1]
                    c = c * V.scal[y][x]
                    for q, d in prev.nf[key[:-1] + (V.act[y][x],)].items():
                        add_term(row, q + (y,), c * d)
                # basis row i carries the tag column (-1 - i,), below every word,
                # so what a dependent row keeps after reduction spells its rule
                red = ech.reduce(row)
                if red and max(red)[0] >= 0:
                    red[(-1 - len(self.basis),)] = 1
                    ech.add(red)
                    self.basis.append(w)
                    self.rows[w] = row
                    self.nf[w] = {w: 1}
                else:
                    self.nf[w] = {self.basis[-1 - k[0]]: -c for k, c in red.items()}


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
