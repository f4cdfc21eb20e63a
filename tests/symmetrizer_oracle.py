"""Dense quantum symmetrizer: the test oracle for Nichols dimensions and ideals.

The package computes B^n through the embedding B^n -> B^(n-1) (x) V. This
module keeps the direct route: the quantum symmetrizer S_n on every basis
word of V^(x)n, via Matsumoto lifts of permutations. It is exponential in
the degree, so tests use it at small degrees only.
"""

from nicholsalg.braided import apply_braiding_word
from nicholsalg.cyclo import one
from nicholsalg.linalg import Echelon, add_term, nullspace, row_axpy
from nicholsalg.tensoralg import _word_blocks, degree


def symmetrizer_image_word(V, word, _cache=None):
    """Quantum symmetrizer S_n applied to a basis word: dict {word: coeff}.

    Well-defined on braid-group lifts because the braid equation holds
    (checked at space construction in callers). Computed by the coset
    recursion S_n = (S_{n-1} (x) id) . sum of descending crossing chains,
    which keeps the work polynomial in the output support size.
    """
    cache = {} if _cache is None else _cache
    return _symmetrize(V, tuple(word), cache)


def _symmetrize(V, word, cache):
    n = len(word)
    if n <= 1:
        return {word: one()}
    hit = cache.get(word)
    if hit is not None:
        return hit
    out = {}
    # chain k moves the letter at slot k to the last slot (k = n-1: identity)
    for k in range(n):
        coeff = one()
        w = word
        for pos in range(k, n - 1):
            c, w = apply_braiding_word(V, w, pos)
            coeff = coeff * c
        prefix, last = w[:-1], w[-1]
        for pw, pc in _symmetrize(V, prefix, cache).items():
            add_term(out, pw + (last,), pc * coeff)
    cache[word] = out
    return out


def matsumoto_symmetrizer(V, element, _cache=None):
    """Quantum symmetrizer S_n applied to a homogeneous tensor element."""
    cache = {} if _cache is None else _cache
    out = {}
    for w, c in element.items():
        row_axpy(out, c, symmetrizer_image_word(V, w, _cache=cache))
    return out


def is_in_nichols_ideal(V, element, _cache=None):
    """True iff the quantum symmetrizer kills the (homogeneous) element."""
    degree(element)  # raises if inhomogeneous
    return not matsumoto_symmetrizer(V, element, _cache=_cache)


def symmetrizer_rank(V, degree, _cache=None):
    """Exact rank of S_degree on V^(x)degree, blockwise."""
    if degree <= 1:
        return V.rank if degree == 1 else 1
    cache = {} if _cache is None else _cache
    total = 0
    for block in _word_blocks(V, degree):
        ech = Echelon()
        for w in block:
            ech.add(symmetrizer_image_word(V, w, _cache=cache))
        total += ech.rank
    return total


def dense_nichols_dims(V, max_degree):
    """Graded dimensions of the Nichols algebra through max_degree."""
    cache = {}
    return [1] + [symmetrizer_rank(V, d, _cache=cache) for d in range(1, max_degree + 1)]


def dense_ideal_component(V, degree):
    """Basis of ker S_degree as elements of T(V)."""
    if degree <= 1:
        return []
    basis = []
    cache = {}
    for block in _word_blocks(V, degree):
        # equations indexed by output word: sum_w S[out][w] x_w = 0
        mat = {}
        for w in block:
            for out_word, c in symmetrizer_image_word(V, w, _cache=cache).items():
                mat.setdefault(out_word, {})[w] = c
        for _, vec in nullspace(list(mat.values()), block):
            basis.append(vec)
    return basis
