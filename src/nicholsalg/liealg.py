"""Braided Lie algebras over symmetric diagonal braidings.

Bicharacters on finitely generated abelian groups, the basis-ordered
bilinear cocycle that twists a skew-symmetric bicharacter with +-1 diagonal
into a sign bicharacter, the three braided Lie axioms, braided commutators,
and filtered dimensions of the universal envelope U_c(L) compared against
the Nichols dimensions of the underlying braided space.
"""

from dataclasses import dataclass

from .bialgebra import check_associativity
from .braided import bichar, build_diagonal
from .cyclo import inverse
from .linalg import Echelon, add_term, row_axpy
from .tensoralg import nichols_dims


class AbelianBicharacter:
    """Bimultiplicative form on Z^r x prod Z/N_i, given by generator values.

    orders[i] = 0 marks a free generator. Values are checked to be well
    defined on torsion and, when skew is requested, to satisfy
    beta(g,h)beta(h,g) = 1 on generators.
    """

    def __init__(self, values, orders=None, skew=False):
        self.values = [list(row) for row in values]
        self.n = len(values)
        self.orders = tuple(orders) if orders else (0,) * self.n
        if len(self.orders) != self.n:
            raise ValueError(f"need {self.n} generator orders, got {len(self.orders)}")
        for i, ni in enumerate(self.orders):
            if ni == 0:
                continue
            for j in range(self.n):
                if self.values[i][j] ** ni != 1:
                    raise ValueError(f"beta(a{i},a{j}) not well defined mod order {ni}")
                if self.values[j][i] ** ni != 1:
                    raise ValueError(f"beta(a{j},a{i}) not well defined mod order {ni}")
        if skew:
            _check_symmetric(lambda i, j: values[i][j], self.n, "not skew-symmetric at ({i},{j})")

    def __call__(self, a, b):
        return bichar(self.values, a, b)

    def is_sign(self):
        return all(v == 1 or v == -1 for row in self.values for v in row)


def _check_symmetric(q, n, message):
    """Raise ValueError(message) at the first (i, j) with q(i, j) q(j, i) != 1;
    message may name i and j as format fields."""
    for i in range(n):
        for j in range(n):
            if q(i, j) * q(j, i) != 1:
                raise ValueError(message.format(i=i, j=j))


def scheunert_cocycle(beta):
    """Bilinear sigma with beta_sigma a sign bicharacter; (sigma, beta_sigma).

    Requires beta skew-symmetric with beta(a_i, a_i) = +-1 for every
    generator. sigma(a_j, a_k) = 1 for j <= k; below the diagonal it is
    chosen so that the twist beta_sigma(g,h) = sigma(h,g)^-1 beta(g,h)
    sigma(g,h) takes the value -1 exactly when both arguments are odd.
    sigma is bimultiplicative, so every 2-cocycle identity
    sigma(g,h)sigma(gh,k) = sigma(h,k)sigma(g,hk) holds by construction.
    """
    n = beta.n
    diag = [beta.values[i][i] for i in range(n)]
    for i, d in enumerate(diag):
        if d != 1 and d != -1:
            raise ValueError(f"beta(a{i},a{i}) = {d} is not a sign")
    _check_symmetric(lambda i, j: beta.values[i][j], n, "beta is not skew-symmetric")
    sig = [[1] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            # eps = -1 exactly when both generators are odd; it is its own inverse
            eps = -1 if diag[j] == -1 and diag[k] == -1 else 1
            sig[k][j] = beta.values[j][k] * eps
    sigma = AbelianBicharacter(sig, beta.orders)
    bs = [
        [
            inverse(sigma.values[j][i]) * beta.values[i][j] * sigma.values[i][j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    beta_sigma = AbelianBicharacter(bs, beta.orders)
    if not beta_sigma.is_sign():
        raise RuntimeError("twisted bicharacter is not a sign bicharacter")
    for i in range(n):
        if beta_sigma.values[i][i] != diag[i]:
            raise RuntimeError(f"twist changed the diagonal value at a{i}")
    return sigma, beta_sigma


# -- graded algebras and braided Lie data -----------------------------------


@dataclass
class GradedAlgebraData:
    """Finite-dimensional algebra with abelian group degrees on its basis."""

    degrees: tuple  # tuple of degree tuples, one per basis vector
    mult: dict  # (i, j) -> {k: coeff}
    names: tuple = None

    @property
    def dim(self):
        return len(self.degrees)

    def check_homogeneous(self):
        for (i, j), out in self.mult.items():
            want = tuple(x + y for x, y in zip(self.degrees[i], self.degrees[j]))
            for k in out:
                if self.degrees[k] != want:
                    return False, (i, j, k)
        return True, None


@dataclass
class BraidedLieData:
    """Bracket structure constants on a diagonally braided space.

    The braiding is c(x_i (x) x_j) = q_ij x_j (x) x_i with
    q_ij = beta(deg_i, deg_j); the bracket is given per ordered basis pair.
    """

    degrees: tuple
    beta: AbelianBicharacter
    bracket: dict  # (i, j) -> {k: coeff}
    names: tuple = None

    @property
    def dim(self):
        return len(self.degrees)

    def q(self, i, j):
        return self.beta(self.degrees[i], self.degrees[j])

    def bra(self, i, j):
        return self.bracket.get((i, j), {})


def check_braided_lie(L):
    """The three axioms: braiding compatibility, anticommutativity, Jacobi.

    Requires the braiding symmetric (c squared = id); returns a dict
    {axiom: (ok, witness)}.
    """
    n = L.dim
    _check_symmetric(L.q, n, "braiding not symmetric at ({i},{j})")
    report = {}

    witness = None
    for i in range(n):
        for j in range(n):
            want = tuple(
                x + y for x, y in zip(L.degrees[i], L.degrees[j])
            )
            for k, c in L.bra(i, j).items():
                if L.degrees[k] != want and c:
                    witness = (i, j, k)
    report["compat"] = (witness is None, witness)

    witness = None
    for i in range(n):
        for j in range(n):
            acc = dict(L.bra(i, j))
            row_axpy(acc, L.q(i, j), L.bra(j, i))
            if acc:
                witness = (i, j)
    report["anticomm"] = (witness is None, witness)

    # Jacobi: [,]([,] x id)(id + rho + rho^2) = 0 with rho the braided
    # 3-cycle (c x id)(id x c)
    def rho(i, j, k):
        c = L.q(j, k) * L.q(i, k)
        return (k, i, j), c

    witness = None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = {}
                triple, coeff = (i, j, k), 1
                for _ in range(3):
                    a, b, c3 = triple
                    for m, cm in L.bra(a, b).items():
                        for p, cp in L.bra(m, c3).items():
                            add_term(acc, p, coeff * cm * cp)
                    triple, c2 = rho(*triple)
                    coeff = coeff * c2
                if acc:
                    witness = (i, j, k)
    report["jacobi"] = (witness is None, witness)
    return report


def braided_commutator(A, beta):
    """Braided Lie algebra m(id - c) of an associative A commuting with c.

    Verifies associativity of A, symmetry of the braiding on A's degrees,
    and that multiplication commutes with the braiding before building the
    bracket.
    """
    n = A.dim
    q = lambda i, j: beta(A.degrees[i], A.degrees[j])
    _check_symmetric(q, n, "braiding not symmetric at ({i},{j})")
    ok, bad = check_associativity(n, lambda i, j: A.mult.get((i, j), {}))
    if not ok:
        raise ValueError(f"not associative at {bad}")
    ok, bad = A.check_homogeneous()
    if not ok:
        raise ValueError(f"multiplication does not commute with braiding: {bad}")
    bracket = {}
    for i in range(n):
        for j in range(n):
            acc = dict(A.mult.get((i, j), {}))
            row_axpy(acc, -q(i, j), A.mult.get((j, i), {}))
            if acc:
                bracket[(i, j)] = acc
    return BraidedLieData(A.degrees, beta, bracket, A.names)


# -- universal envelope ------------------------------------------------------


def enveloping_dims(L, max_degree):
    """Filtered dims of U_c(L) and graded dims of gr, vs Nichols dims.

    U_c(L) = T(L)/(x (x) y - c(x (x) y) - [x, y]); the ideal is
    inhomogeneous, so filtration components are computed by echelonizing
    all word multiples u r v with |u| + |v| + 2 <= max_degree + 2; a
    row's lead is its largest key in a length-primary order, so every
    reduced row's terms are no longer than its lead, and leads of length
    <= d count dim(I cap T_{<= d}) exactly once the span has saturated.
    """
    rep = check_braided_lie(L)
    if not all(ok for ok, _ in rep.values()):
        raise ValueError(f"braided Lie axioms fail: {rep}")
    n = L.dim
    rels = []
    for i in range(n):
        for j in range(n):
            row = {(i, j): 1}
            add_term(row, (j, i), -L.q(i, j))
            for k, c in L.bra(i, j).items():
                add_term(row, (k,), -c)
            if row:
                rels.append(row)
    # columns are keyed (len(word), word), so a row's pivot is its longest word
    ech = Echelon()
    bound = max_degree + 2

    def words(length):
        if length == 0:
            yield ()
            return
        for w in words(length - 1):
            for a in range(n):
                yield w + (a,)

    for total in range(bound - 1):
        for la in range(total + 1):
            lb = total - la
            for u in words(la):
                for v in words(lb):
                    for r in rels:
                        row = {(len(w) + la + lb, u + w + v): c for w, c in r.items()}
                        ech.add(row)
    ideal_counts = [0] * (bound + 1)
    for lead in ech.pivots:
        ideal_counts[lead[0]] += 1
    filtered = []
    cum_words = 0
    cum_ideal = 0
    for d in range(max_degree + 1):
        cum_words += n ** d
        cum_ideal += ideal_counts[d]
        filtered.append(cum_words - cum_ideal)
    gr = [filtered[0]] + [
        filtered[d] - filtered[d - 1] for d in range(1, max_degree + 1)
    ]
    qmatrix = [[L.q(i, j) for j in range(n)] for i in range(n)]
    V = build_diagonal(qmatrix)
    nich = nichols_dims(V, max_degree)
    return {"filtered": filtered, "gr": gr, "nichols": nich}


# -- shipped examples --------------------------------------------------------


def heisenberg_flip():
    """3-dim Heisenberg Lie algebra x, y, z with [x, y] = z, flip braiding."""
    beta = AbelianBicharacter([[1]])
    degs = ((0,), (0,), (0,))
    bracket = {(0, 1): {2: 1}, (1, 0): {2: -1}}
    return BraidedLieData(degs, beta, bracket, ("x", "y", "z"))


def superline():
    """1-dim odd space with zero bracket and q = -1."""
    beta = AbelianBicharacter([[-1]])
    return BraidedLieData(((1,),), beta, {}, ("x",))


def color_pair():
    """x odd of degree e1, y = [x, x] of degree 2 e1, over Z with beta(1,1) = -1."""
    beta = AbelianBicharacter([[-1]])
    degs = ((1,), (2,))
    bracket = {(0, 0): {1: 1}}
    return BraidedLieData(degs, beta, bracket, ("x", "y"))


def sl2_flip(scale=None):
    """sl2 with flip braiding; optional asymmetric scaling to break axioms."""
    beta = AbelianBicharacter([[1]])
    degs = ((0,), (0,), (0,))
    bracket = {
        (0, 1): {2: 1},  # [e, f] = h
        (1, 0): {2: -1},
        (2, 0): {0: 2},  # [h, e] = 2e
        (0, 2): {0: -2},
        (2, 1): {1: -2},  # [h, f] = -2f
        (1, 2): {1: 2},
    }
    if scale is not None:
        bracket[(0, 1)] = {2: scale}
    return BraidedLieData(degs, beta, bracket, ("e", "f", "h"))


def color_triple(q):
    """Z^2-color example: x, y odd, z = [x, y] even, mixed values q, -1/q.

    beta(e1, e1) = beta(e2, e2) = -1, beta(e1, e2) = q; skew forces
    beta(e2, e1) = 1/q. The bracket constants follow from anticommutativity
    and the Jacobi identity for this grading.
    """
    beta = AbelianBicharacter([[-1, q], [inverse(q), -1]], skew=True)
    degs = ((1, 0), (0, 1), (1, 1))
    bracket = {
        (0, 1): {2: 1},
        (1, 0): {2: -inverse(q)},
    }
    return BraidedLieData(degs, beta, bracket, ("x", "y", "z"))
