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
otherwise its row is a sum of earlier basis rows, its rule. A row's keys
are words b x too, so the rows form a square matrix M, and one echelon of
M transposed has the basis as its pivot columns and the rules as its
kernel: no symmetrizer on all theta^n words.
"""

from itertools import permutations

from .braided import braid_word_blocks
from .linalg import add_term, nullspace


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
    Candidate j is basis word j // theta of degree n-1 then letter j % theta,
    so a term q (x) x_y of Delta_(n-1,1) is keyed by candidate q theta + y.
    rows[i] is Delta_(n-1,1)(basis[i]) so keyed, and nf[j] writes candidate
    j as {basis index: coeff}. Degree 0 is NicholsDegree(V).
    """

    def __init__(self, V, prev=None):
        if prev is None:
            self.basis, self.rows, self.nf = [()], [{}], [{0: 1}]
            return
        theta, scal, act = V.rank, V.scal, V.act
        rows, cols = [], {}
        for brow in prev.rows:
            for x in range(theta):
                # (b (x) 1 + Delta_(n-2,1)(b))(x (x) 1 + 1 (x) x) in B (x) B
                j = len(rows)
                row = {j: 1}
                for key, c in brow.items():
                    y = key % theta
                    c = c * scal[y][x]
                    for q, d in prev.nf[key - y + act[y][x]].items():
                        add_term(row, q * theta + y, c * d)
                rows.append(row)
                for k, c in row.items():
                    cols.setdefault(k, {})[-j] = c
        # M^T keys candidate j as -j, so its pivots, the largest keys, are the
        # candidates independent of those before them, and the kernel vector
        # of each free -j is j's rule; popitem frees M^T as the echelon fills
        rules = dict(nullspace((cols.popitem()[1] for _ in range(len(cols))),
                               range(0, -len(rows), -1)))
        self.basis, self.rows, self.nf, index = [], [], [], {}
        for j, row in enumerate(rows):
            rule = rules.get(-j)
            if rule is None:
                index[-j] = len(self.basis)
                self.nf.append({len(self.basis): 1})
                self.basis.append(prev.basis[j // theta] + (j % theta,))
                self.rows.append(row)
            else:
                self.nf.append({index[k]: -c for k, c in rule.items() if k != -j})


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
