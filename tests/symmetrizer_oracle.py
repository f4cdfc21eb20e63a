"""Dense quantum symmetrizer: the test oracle for Nichols dimensions and ideals.

The package computes B^n by the coproduct recursion of NicholsDegree, whose
rules write each candidate b x, keyed by its integer index, in the basis of
B^n. This module keeps the direct route: the quantum symmetrizer S_n on
every basis word of V^(x)n, via Matsumoto lifts of permutations. It is
exponential in the degree, so tests use it at small degrees only.

It also holds the normal form of a word in B, as {basis index: coeff}, read
from the package's rules (normal_form), the Nichols ideal as elements of
T(V), the nullspace of that normal form on each braid-orbit block of words
(ideal_component), the coproduct of T(V) with primitive generators
(braided_coproduct), and the theorem that the ideal is a coideal through
degree 4 (nichols_ideal_biideal_check).
"""

from itertools import product

from nicholsalg.braided import apply_braiding_word, braid_word_blocks
from nicholsalg.linalg import Echelon, add_term, nullspace, row_axpy
from nicholsalg.tensoralg import NicholsDegree, degree


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
        return {word: 1}
    hit = cache.get(word)
    if hit is not None:
        return hit
    out = {}
    # chain k moves the letter at slot k to the last slot (k = n-1: identity)
    for k in range(n):
        coeff = 1
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


def _word_blocks(V, degree):
    """Partition basis words of the given degree into symmetrizer-invariant
    blocks (connected components of the braid-group action)."""
    theta = V.rank
    seen = set()
    blocks = []
    for start in product(range(theta), repeat=degree):
        if start in seen:
            continue
        block = []
        stack = [start]
        seen.add(start)
        while stack:
            w = stack.pop()
            block.append(w)
            for pos in range(degree - 1):
                _, nw = apply_braiding_word(V, w, pos)
                if nw not in seen:
                    seen.add(nw)
                    stack.append(nw)
        blocks.append(block)
    return blocks


def nichols_layers(V, top):
    """The chain of NicholsDegree layers of degrees 0 through top."""
    layers = [NicholsDegree(V)]
    for _ in range(top):
        layers.append(NicholsDegree(V, layers[-1]))
    return layers


def normal_form(layers, word):
    """A word of T(V) in the basis of B, as {basis index: coeff} in degree
    len(word): its letters are folded one at a time through the rules
    layers[k].nf of each degree k, where u followed by letter x is candidate
    u * theta + x of degree k."""
    theta = len(layers[1].nf)
    out = {0: 1}
    for k, x in enumerate(word, 1):
        rules, nxt = layers[k].nf, {}
        for u, c in out.items():
            for v, d in rules[u * theta + x].items():
                add_term(nxt, v, c * d)
        out = nxt
    return out


def ideal_component(V, degree, layers=None):
    """Basis of ker S_degree as elements of T(V); layers, if given, is a
    chain of NicholsDegree layers through at least degree that the caller
    already holds."""
    if degree <= 1:
        return []
    blocks = _word_blocks(V, degree)
    if layers is None:
        layers = nichols_layers(V, degree)
    basis = []
    for block in blocks:
        # equations indexed by basis element of B: sum_w nf[key][w] x_w = 0
        mat = {}
        for w in block:
            for key, c in normal_form(layers, w).items():
                mat.setdefault(key, {})[w] = c
        for _, vec in nullspace(list(mat.values()), block):
            basis.append(vec)
    return basis


def braided_coproduct(V, element):
    """Coproduct of T(V) with primitive generators, as {(u, v): coeff}.

    Computed by folding letters through the braided-bialgebra rule
    Delta(ab) = Delta(a) Delta(b) with (a (x) b)(s (x) t) = a c(b (x) s) t.
    """
    out = {}
    for w, c in element.items():
        terms = {((), ()): 1}
        for letter in w:
            nxt = {}
            for (u, v), coeff in terms.items():
                # times (x_letter (x) 1): crosses v over the letter
                cb, nl, nv = braid_word_blocks(V, v, (letter,))
                add_term(nxt, (u + nl, nv), coeff * cb)
                # times (1 (x) x_letter): no crossing
                add_term(nxt, (u, v + (letter,)), coeff)
            terms = nxt
        for key, coeff in terms.items():
            add_term(out, key, coeff * c)
    return out


def nichols_ideal_biideal_check(V):
    """Coproduct closure of the symmetrizer-kernel ideal in low degrees.

    For each degree d <= 4 and each kernel basis element r, checks that
    every middle component of the braided coproduct of r lies in
    I (x) T + T (x) I, that is, that normal_form (x) normal_form kills it:
    the kernel of normal_form in degree a is I_a. Returns (True, None) or
    (False, (d, (a, b))). One chain of NicholsDegree layers serves both the
    kernels and the normal forms.
    """
    layers = nichols_layers(V, 4)
    for d in range(2, 5):
        for r in ideal_component(V, d, layers):
            by_split = {}
            for (u, v), c in braided_coproduct(V, r).items():
                if u and v:
                    image = by_split.setdefault((len(u), len(v)), {})
                    nv = normal_form(layers, v)
                    for pu, cu in normal_form(layers, u).items():
                        for pv, cv in nv.items():
                            add_term(image, (pu, pv), c * cu * cv)
            for split, image in by_split.items():
                if image:
                    return False, (d, split)
    return True, None
