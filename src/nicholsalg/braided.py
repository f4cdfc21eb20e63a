"""Braided vector spaces with a chosen basis.

Both supported kinds act on basis vectors monomially:
    c(x_i (x) x_j) = scal[i][j] * x_{act[i][j]} (x) x_i
Diagonal braidings have act[i][j] = j and scal[i][j] = q_ij; group-type
braidings (sign-twisted conjugation over a group) carry a group degree per
basis vector and an explicit action table.

The grading data the rest of the package reads lives here too: the
bicharacter of a q-matrix on Z^theta, and Grading, the one fold of letter
labels into the label of a word (the group degree of a group-type space,
the (g, chi) pair of a realization of a diagonal one).
"""

from dataclasses import dataclass
from math import lcm
from typing import Optional

from .cyclo import CycNumber, cyc_order

DEFAULT_CARTAN_CAP = 50


@dataclass(frozen=True)
class BraidedSpace:
    kind: str  # "diagonal" | "group"
    basis: tuple  # labels
    act: tuple  # act[i][j] -> basis index
    scal: tuple  # scal[i][j] -> CycNumber (diagonal) or int +-1 (group type)
    qmatrix: Optional[tuple] = None  # diagonal only
    group_degrees: Optional[tuple] = None  # group only; hashable elements

    @property
    def rank(self):
        return len(self.basis)

    def q(self, i, j):
        if self.qmatrix is None:
            raise ValueError("q-matrix only defined for diagonal braidings")
        return self.qmatrix[i][j]

    def qtilde(self, i, j):
        return self.q(i, j) * self.q(j, i)

    def braid_pair(self, i, j):
        """c(x_i (x) x_j) = coeff * x_k (x) x_i; returns (coeff, k)."""
        return self.scal[i][j], self.act[i][j]


def build_diagonal(qmatrix):
    """Braided space with c(x_i (x) x_j) = q_ij x_j (x) x_i.

    Entries may be int, Fraction or CycNumber. All are lifted once into
    Q(zeta_N), N the lcm of the entries' conductors (1 if every entry is
    rational), so the space, and what is computed from it, lies in one field.
    """
    theta = len(qmatrix)
    if any(len(row) != theta for row in qmatrix):
        raise ValueError("q-matrix must be square")
    N = lcm(*(q.n for row in qmatrix for q in row if isinstance(q, CycNumber)))
    rows = []
    for i, row in enumerate(qmatrix):
        ents = []
        for j, q in enumerate(row):
            if not isinstance(q, CycNumber):
                q = CycNumber.from_powers(N, {0: q})
            elif q.n != N:
                q = q.lift(N)
            if not q:
                raise ValueError(f"q[{i}][{j}] must be nonzero")
            ents.append(q)
        rows.append(tuple(ents))
    basis = tuple(f"x{i + 1}" for i in range(theta))
    act = tuple(tuple(range(theta)) for _ in range(theta))
    scal = tuple(rows[i] for i in range(theta))
    return BraidedSpace(kind="diagonal", basis=basis, act=act, scal=scal, qmatrix=tuple(rows))


def bichar(values, alpha, beta):
    """prod_{i,j} values_ij^(alpha_i beta_j), skipping zero exponents."""
    out = 1
    for i, a in enumerate(alpha):
        if not a:
            continue
        for j, b in enumerate(beta):
            if b:
                out = out * values[i][j] ** (a * b)
    return out


def compose_perm(p, q):
    """(p . q)[i] = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(p)))


class Grading:
    """Labels of words in a monoid: letter i has the label letters[i], and a
    word the product of its letters' labels under mul, from unit."""

    def __init__(self, letters, mul, unit):
        self.letters = tuple(letters)
        self.mul = mul
        self.unit = unit

    def label(self, word):
        lab = self.unit
        for letter in word:
            lab = self.mul(lab, self.letters[letter])
        return lab

    def element_label(self, element):
        """The label all words of a {word: coeff} element share, or None."""
        labs = {self.label(w) for w in element}
        return labs.pop() if len(labs) == 1 else None


def group_grading(group_degrees):
    """Words of a group-type space graded by the product of their letters'
    permutations (V.group_degrees)."""
    return Grading(group_degrees, compose_perm, tuple(range(len(group_degrees[0]))))


def realization(V, order=0):
    """The realization of a diagonal V: words graded by (g, chi) over
    Z^theta / N Z^theta, N = order (Z^theta for order 0); requires
    q_ij^N = 1 for all i, j. RunConfig.realization builds it from a config,
    and the category labels and the rigidity criterion read it.

    A group element is an exponent vector reduced mod N, a character its
    value table on e_1, ..., e_theta. Letter i has g_i = e_i and chi_i with
    chi_i(g_k) = q_ki; mul adds exponents and multiplies value tables.
    """
    theta = V.rank
    if order:
        for i in range(theta):
            for j in range(theta):
                if V.q(i, j) ** order != 1:
                    raise ValueError(
                        f"q[{i}][{j}]^{order} != 1: characters not defined on the quotient"
                    )

    def mul(a, b):
        g = tuple(x + y for x, y in zip(a[0], b[0]))
        return tuple(x % order for x in g) if order else g, tuple(x * y for x, y in zip(a[1], b[1]))

    unit = ((0,) * theta, (1,) * theta)
    # folded from the unit, so that e_i is reduced mod N; column i of q is chi_i
    letters = [
        mul(unit, (tuple(int(k == i) for k in range(theta)), col))
        for i, col in enumerate(zip(*V.qmatrix))
    ]
    return Grading(letters, mul, unit)


def build_group_type(basis, act, scal, group_degrees):
    return BraidedSpace(
        kind="group",
        basis=tuple(basis),
        act=tuple(tuple(r) for r in act),
        scal=tuple(tuple(r) for r in scal),
        group_degrees=tuple(group_degrees),
    )


def apply_braiding_word(V, word, pos):
    """Apply c at tensor slots (pos, pos+1) of a basis word (0-based pos).

    Returns (coeff, new_word). Monomial braidings keep words monomial.
    """
    if not 0 <= pos < len(word) - 1:
        raise ValueError(f"braiding position {pos} out of range for |word|={len(word)}")
    i, j = word[pos], word[pos + 1]
    coeff, k = V.braid_pair(i, j)
    return coeff, word[:pos] + (k, i) + word[pos + 2 :]


def braid_word_blocks(V, left, right):
    """Braiding c_{V^a, V^b} on a pair of basis words: returns (coeff, new_left, new_right).

    The left block crosses over the right one; for our monomial braidings
    the right output block equals the original left word.
    """
    word = left + right
    a, b = len(left), len(right)
    coeff = 1
    # move each left-block letter past the right block, innermost first
    for src in range(a - 1, -1, -1):
        for pos in range(src, src + b):
            c, word = apply_braiding_word(V, word, pos)
            coeff = coeff * c
    return coeff, word[:b], word[b:]


def check_braid_equation(V):
    """Exhaustively verify the braid equation on basis words of V^(x)3.

    Write c(x_i (x) x_j) = s_ij x_{i.j} (x) x_i, with i.j = act[i][j] and
    s = scal. On x_a (x) x_b (x) x_c, c1c2c1 gives
    s_{a,b} s_{a,c} s_{a.b,a.c} x_{(a.b).(a.c)} (x) x_{a.b} (x) x_a and
    c2c1c2 gives s_{b,c} s_{a,b.c} s_{a,b} x_{a.(b.c)} (x) x_{a.b} (x) x_a,
    so the tables are compared directly, with no words.

    Returns (True, None) or (False, offending_word).
    """
    act, scal = V.act, V.scal
    theta = V.rank
    for a in range(theta):
        act_a, scal_a = act[a], scal[a]
        for b in range(theta):
            ab = act_a[b]
            act_ab, scal_ab = act[ab], scal[ab]
            for c in range(theta):
                ac, bc = act_a[c], act[b][c]
                if (
                    act_ab[ac] != act_a[bc]
                    or scal_a[b] * scal_a[c] * scal_ab[ac] != scal[b][c] * scal_a[bc] * scal_a[b]
                ):
                    return False, (a, b, c)
    return True, None


def cartan_integer(V, i, j, cap=DEFAULT_CARTAN_CAP):
    """-min{n >= 0 : (n+1)_{q_ii} (1 - q_ii^n qt_ij) = 0}, or None past cap."""
    if i == j:
        raise ValueError("Cartan integer requires i != j")
    qii = V.q(i, i)
    qt = V.qtilde(i, j)
    power = 1  # q_ii^n
    qnum = 1  # (n+1)_{q_ii}
    for n in range(cap + 1):
        if not qnum or power * qt == 1:
            return -n
        power = power * qii
        qnum = qnum + power
    return None


def dynkin_diagram(V):
    """Vertex labels q_ii, edge labels qt_ij (edges present iff label != 1)."""
    theta = V.rank
    vertices = tuple(V.q(i, i) for i in range(theta))
    edges = {}
    for i in range(theta):
        for j in range(i + 1, theta):
            qt = V.qtilde(i, j)
            if qt != 1:
                edges[(i, j)] = qt
    return DynkinDiagram(vertices=vertices, edges=edges)


class DynkinDiagram:
    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = dict(edges)


def is_cartan_vertex(V, i, crow):
    """Cartan vertex test, where crow is row i of the Cartan matrix; in rank 1
    the vertex counts as Cartan iff q_11 is a root of unity of order >= 3 (so
    its cube-or-higher power relation comes from the Cartan-root family
    rather than the simple-power one)."""
    theta = V.rank
    if theta == 1:
        order = cyc_order(V.q(0, 0))
        return order is not None and order >= 3
    return all(
        V.qtilde(i, j) == V.q(i, i) ** crow[j] for j in range(theta) if j != i
    )
