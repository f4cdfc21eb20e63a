"""Minimal defining relations of finite-root-system diagonal Nichols algebras.

The catalog follows Angiono's presentation (arXiv:1008.4144). Four families
whose degree depends on Cartan integers or root data are written out in
`generate_relations`; every other family is one row of `_FAMILIES`: a name,
how many copies of each participant index go into its Z^theta degree, an
exact guard on the q-matrix (and sometimes on the root set), and a builder of
its tensor element from iterated braided commutators
x_{i1...ik} = [x_{i1}, x_{i2...ik}]_c.

A realization (braided.realization) grades words by (group, character)
pairs; the pair (g_R, chi_R) of a relation is the label of its degree, and
the rigidity criterion asks that no relation shares it with a generator.
"""

from dataclasses import dataclass
from itertools import combinations, groupby, permutations
from typing import Optional

from .cyclo import cyc_order, inverse
from .linalg import row_axpy
from .tensoralg import braided_commutator, concat, monomial, root_vector_word

ELEMENT_DEGREE_CAP = 12  # skip explicit word realizations above this degree


# -- characters ------------------------------------------------------------


def char_value(chi, g):
    """chi(g) for a character given by its value table on e_1, ..., e_theta."""
    v = 1
    for k, e in enumerate(g):
        if e:
            v = v * chi[k] ** e
    return v


# -- relation instances ----------------------------------------------------


@dataclass
class RelationInstance:
    family: str
    participants: tuple  # index tuple, or a root vector degree
    degree: tuple  # Z^theta degree
    element: Optional[dict] = None  # {word: coeff} in T(V)
    note: str = ""


# -- element builders ------------------------------------------------------


def _gen(i):
    return monomial((i,))


def _xw(V, letters):
    """Iterated commutator x_{i1...ik} = [x_{i1}, x_{i2...ik}]_c."""
    if len(letters) == 1:
        return _gen(letters[0])
    return braided_commutator(V, _gen(letters[0]), _xw(V, letters[1:]))


def _br(V, *parts):
    """Left-nested commutator [[p_1, p_2]_c, ..., p_n]_c; a part is a letter i
    (for x_i), a tuple of letters w (for x_w) or an element."""
    out = None
    for p in parts:
        if isinstance(p, int):
            p = _gen(p)
        elif isinstance(p, tuple):
            p = _xw(V, p)
        out = p if out is None else braided_commutator(V, out, p)
    return out


def _tower(V, i, j, m):
    """Root vector of degree (m+1) a_i + m a_j: [[x_iij, x_ij]_c, ..., x_ij]_c."""
    return _br(V, (i, i, j), *[(i, j)] * (m - 1))


def _power(elem, n):
    out = elem
    for _ in range(n - 1):
        out = concat(out, elem)
    return out


def _combo(*terms):
    """The linear combination sum of c * e over the (c, e) pairs."""
    out = {}
    for c, e in terms:
        row_axpy(out, c, e)
    return out


def _two_term(V, w, a, b, coef):
    """[[x_w, x_a]_c, x_b]_c - coef [[x_w, x_b]_c, x_a]_c."""
    return _combo((1, _br(V, w, a, b)), (-coef, _br(V, w, b, a)))


def _degree(theta, indices, copies):
    """Z^theta degree with copies[n] copies of the simple root a_{indices[n]}."""
    d = [0] * theta
    for i, a in zip(indices, copies):
        d[i] += a
    return tuple(d)


# -- guards ----------------------------------------------------------------


def _m1(z):
    return z == -1


def _only(holds):
    """Guard result of a family without variants: no note, or None."""
    return "" if holds else None


def _variant(*cases):
    """Guard result naming the first (variant, holds) case that holds."""
    return next((f"variant {name}" for name, holds in cases if holds), None)


class _GuardData:
    """What the family guards read, computed once per catalog: the q and
    q-tilde matrices, the Cartan matrix and root set of the root data, and
    cached root-of-unity orders."""

    def __init__(self, V, rs):
        n = range(V.rank)
        self.theta = V.rank
        self.q = V.qmatrix
        self.t = [[V.qtilde(i, j) for j in n] for i in n]
        self.c = rs.cartan
        self.roots = set(rs.positive_roots)
        self._orders = {}

    def order(self, z):
        if z not in self._orders:
            self._orders[z] = cyc_order(z)
        return self._orders[z]

    def is_root(self, indices, copies):
        return _degree(self.theta, indices, copies) in self.roots


def _nested_c3(d, i, j, k):
    q, t = d.q, d.t
    if not (_m1(q[j][j]) and t[i][k] == 1):
        return None
    qii, tij, tjk = q[i][i], t[i][j], t[j][k]
    return _variant(
        ("i", _m1(qii) and tij ** 2 == inverse(tjk)),
        ("ii", _m1(tij) and qii == -(tjk ** 2) and d.order(qii) == 3),
        ("iii", _m1(q[k][k]) and _m1(tjk) and qii == -tij and d.order(qii) == 3),
        ("iv", tij == qii ** -2 and tjk == -(qii ** 3)),
    )


def _distant(d, i, j, k, l):
    """The four-index families need no edges i-k, i-l, j-l."""
    return d.t[i][k] == 1 and d.t[i][l] == 1 and d.t[j][l] == 1


def _f4_nested_pair(d, i, j, k, l):
    q, t = d.q, d.t
    p = t[i][j] * t[j][k]
    return _only(
        _distant(d, i, j, k, l) and _m1(q[j][j])
        and q[l][l] == p ** 2 and t[l][k] == inverse(p ** 2) and q[k][k] == p ** 2
        and t[j][k] == inverse(p ** 2) and t[i][j] == p ** 3 and q[i][i] == inverse(p ** 3)
    )


def _f4_two_term(d, i, j, k, l):
    q, t = d.q, d.t
    qii = q[i][i]
    if not (_distant(d, i, j, k, l) and _m1(q[k][k]) and qii == inverse(t[i][j])):
        return None
    qjj = q[j][j]
    return _variant(
        ("i", qii == qjj ** 2 and t[k][l] == qjj ** 3
         and q[l][l] == inverse(qjj ** 3) and t[j][k] == inverse(qjj)),
        ("ii", _m1(qjj) and _m1(t[j][k]) and qii == -inverse(q[l][l]) and qii == -t[k][l]),
    )


def _tower43(d, i, j):
    cij, cji, qjj = d.c[i][j], d.c[j][i], d.q[j][j]
    holds = (
        not d.is_root((i, j), (4, 3))
        and (_m1(qjj) or -cji >= 2)
        and (-cij >= 3 or (-cij == 2 and d.order(d.q[i][i]) == 3))
    )
    if not holds:
        return None
    return "" if _m1(qjj) else "m_ji guard"


# -- builders with scalar coefficients ---------------------------------------


def _triangle(V, d, i, j, k):
    q, t = d.q, d.t
    coef1 = (1 - t[j][k]) / (q[k][j] * (1 - t[i][k]))
    coef2 = q[i][j] * (1 - t[j][k])
    return _combo(
        (1, _br(V, (i, j, k))),
        (-coef1, _br(V, (i, k), j)),
        (-coef2, concat(_gen(j), _xw(V, (i, k)))),
    )


def _three_term_cube_edge(V, d, i, j, k):
    q = d.q
    c2 = (1 + q[j][j] ** 2) * inverse(q[k][j])
    c3 = (1 + q[j][j] ** 2) * (1 + q[j][j]) * q[i][j]
    return _combo(
        (1, _br(V, i, (j, j, k))),
        (-c2, _br(V, (i, j, k), j)),
        (-c3, concat(_gen(j), _xw(V, (i, j, k)))),
    )


def _double_edge_sum(V, d, i, j, k):
    q = d.q
    return _combo(
        (1, _br(V, i, _br(V, (i, j), (i, k)))),
        (q[j][k] * q[i][k] * q[j][i], _br(V, (i, i, k), (i, j))),
        (q[i][j], concat(_xw(V, (i, j)), _xw(V, (i, i, k)))),
    )


def _two_vertex_mixed(V, d, i, j):
    q, t = d.q, d.t
    c1 = (1 - t[i][j]) * q[j][j] * q[j][i]
    c2 = (1 + q[j][j]) * (1 - q[j][j] * t[i][j])
    return _combo((c1, _br(V, i, _br(V, (i, j), j))), (-c2, _power(_xw(V, (i, j)), 2)))


def _high_root_serre(V, d, i, j):
    qii, tij = d.q[i][i], d.t[i][j]
    num = 1 - qii * tij - qii ** 2 * tij ** 2 * d.q[j][j]
    den = (1 - qii * tij) * d.q[j][i]
    return _combo(
        (1, _br(V, i, _tower(V, i, j, 2))), (-(num / den), _power(_xw(V, (i, i, j)), 2))
    )


def _high_power_square(V, d, i, j):
    z, qii = d.t[i][j], d.q[i][i]
    a = (1 - z) * (1 - qii ** 4 * z ** 3) - (1 - qii * z) * (1 + qii) * qii * z
    b = (1 - z) * (1 - qii ** 6 * z ** 5) - a * qii * z
    num = b - (1 + qii) * (1 - qii * z) * (1 + z + qii * z ** 2) * qii ** 6 * z ** 4
    den = a * qii ** 3 * d.q[i][j] ** 2 * d.q[j][i] ** 3
    return _combo(
        (1, _br(V, (i, i, j), _tower(V, i, j, 3))), (-(num / den), _power(_tower(V, i, j, 2), 2))
    )


# -- catalog ---------------------------------------------------------------

# (family, copies of each participant index in the degree, guard, builder);
# triples first, then quadruples, then pairs, as generate_relations walks them.
_FAMILIES = [
    # [x_ijk, x_j]_c with a -1 middle vertex
    ("mid_vertex_bracket", (1, 2, 1), lambda d, i, j, k: _only(
        _m1(d.q[j][j]) and d.t[i][k] == 1
        and d.t[i][j] * d.t[k][j] == 1 and not _m1(d.t[i][j])
    ), lambda V, d, i, j, k: _br(V, (i, j, k), j)),
    # [x_iijk, x_ij]_c
    ("double_i_bracket", (3, 2, 1), lambda d, i, j, k: _only(
        d.order(d.q[i][i]) == 3
        and (d.q[i][i] == d.t[i][j] or d.q[i][i] == -d.t[i][j])
        and d.t[i][k] == 1
        and (
            (_m1(d.q[j][j]) and d.t[i][j] * d.t[j][k] == 1)
            or (inverse(d.q[j][j]) == d.t[i][j] and d.t[i][j] == d.t[j][k]
                and not _m1(d.t[i][j]))
        )
    ), lambda V, d, i, j, k: _br(V, (i, i, j, k), (i, j))),
    # triangle relation: all three edges present
    ("triangle", (1, 1, 1), lambda d, i, j, k: _only(
        d.t[i][k] != 1 and d.t[i][j] != 1 and d.t[j][k] != 1
    ), _triangle),
    # [[x_ij, x_ijk]_c, x_j]_c, four guard variants
    ("nested_c3_bracket", (2, 3, 1), _nested_c3,
     lambda V, d, i, j, k: _br(V, (i, j), (i, j, k), j)),
    # [[x_ij, [x_ij, x_ijk]_c]_c, x_j]_c
    ("nested_g3_bracket", (3, 4, 1), lambda d, i, j, k: _only(
        _m1(d.q[i][i]) and _m1(d.q[j][j])
        and d.t[i][j] ** 3 == inverse(d.t[j][k]) and d.t[i][k] == 1
    ), lambda V, d, i, j, k: _br(V, (i, j), _br(V, (i, j), (i, j, k)), j)),
    # [[x_ijk, x_j]_c, x_j]_c at a cube-root middle vertex
    ("double_j_bracket", (1, 3, 1), lambda d, i, j, k: _only(
        d.order(d.q[j][j]) == 3 and d.q[j][j] == d.t[i][j] ** 2
        and d.q[j][j] == d.t[j][k] and d.t[i][k] == 1
    ), lambda V, d, i, j, k: _br(V, (i, j, k), j, j)),
    # [[x_iij, x_iijk]_c, x_ij]_c, ninth-root chain
    ("ninth_root_chain", (5, 3, 1), lambda d, i, j, k: _only(
        d.order(d.q[j][j]) == 9 and d.q[k][k] == d.q[j][j]
        and d.t[i][j] == inverse(d.q[j][j]) and d.t[j][k] == inverse(d.q[j][j])
        and d.t[i][k] == 1 and d.q[i][i] == d.q[k][k] ** 6
    ), lambda V, d, i, j, k: _br(V, (i, i, j), (i, i, j, k), (i, j))),
    # two-term ninth-root relation
    ("ninth_root_two_term", (1, 2, 2), lambda d, i, j, k: _only(
        d.order(d.q[i][i]) == 9 and d.t[i][j] == inverse(d.q[i][i])
        and d.q[j][j] == d.q[i][i] ** 5 and d.t[j][k] == inverse(d.q[i][i] ** 5)
        and d.t[i][k] == 1 and d.q[k][k] == d.q[i][i] ** 6
    ), lambda V, d, i, j, k: _two_term(
        V, (i, j, k), j, k, inverse(1 + d.t[j][k]) * d.q[j][k]
    )),
    # [[[x_ijk, x_j]_c, x_j]_c, x_j]_c at a fourth-root middle vertex
    ("triple_j_bracket", (1, 4, 1), lambda d, i, j, k: _only(
        d.order(d.q[j][j]) == 4 and d.q[j][j] == d.t[i][j] ** 3
        and d.q[j][j] == d.t[j][k] and d.t[i][k] == 1
    ), lambda V, d, i, j, k: _br(V, (i, j, k), j, j, j)),
    # [x_ij, x_ijk]_c
    ("pair_chain_bracket", (2, 2, 1), lambda d, i, j, k: _only(
        _m1(d.q[i][i]) and _m1(d.t[i][j]) and d.q[j][j] == inverse(d.t[j][k])
        and not _m1(d.q[j][j]) and d.t[i][k] == 1
    ), lambda V, d, i, j, k: _br(V, (i, j), (i, j, k))),
    # three-term relation with cube-root edge
    ("three_term_cube_edge", (1, 2, 1), lambda d, i, j, k: _only(
        _m1(d.q[i][i]) and _m1(d.q[k][k]) and d.t[i][k] == 1
        and d.order(d.t[i][j]) == 3 and d.q[j][j] == -d.t[j][k]
        and (d.q[j][j] == d.t[i][j] or d.q[j][j] == -d.t[i][j])
    ), _three_term_cube_edge),
    # [x_i, [x_ij, x_ik]_c]_c + ... with two double edges at i
    ("double_edge_sum", (3, 1, 1), lambda d, i, j, k: _only(
        d.t[j][k] == 1 and d.order(d.q[i][i]) == 3
        and d.q[i][i] == d.t[i][j] and d.q[i][i] == -d.t[i][k]
    ), _double_edge_sum),
    # [x_iijk, x_ijk]_c
    ("rank3_tail_bracket", (3, 2, 2), lambda d, i, j, k: _only(
        _m1(d.q[j][j]) and _m1(d.q[k][k]) and _m1(d.t[j][k])
        and d.q[i][i] == -d.t[i][j] and d.order(d.q[i][i]) == 3 and d.t[i][k] == 1
    ), lambda V, d, i, j, k: _br(V, (i, i, j, k), (i, j, k))),
    # [[[x_ijkl, x_k]_c, x_j]_c, x_k]_c
    ("chain_c4_bracket", (1, 2, 3, 1), lambda d, i, j, k, l: _only(
        _distant(d, i, j, k, l)
        and d.q[j][j] * d.t[i][j] == 1 and d.q[j][j] * d.t[j][k] == 1
        and _m1(d.q[k][k])
        and d.t[j][k] ** 2 == inverse(d.t[l][k]) and d.t[j][k] ** 2 == d.q[l][l]
    ), lambda V, d, i, j, k, l: _br(V, (i, j, k, l), k, j, k)),
    # [[x_ijk, [x_ijkl, x_k]_c]_c, x_jk]_c
    ("chain_c4_modified", (2, 3, 4, 1), lambda d, i, j, k, l: _only(
        _distant(d, i, j, k, l)
        and d.t[j][k] == d.t[i][j] and d.t[i][j] == inverse(d.q[j][j])
        and d.order(d.q[j][j]) in (4, 6) and _m1(d.q[i][i]) and _m1(d.q[k][k])
        and d.t[j][k] ** 3 == d.t[l][k]
    ), lambda V, d, i, j, k, l: _br(V, (i, j, k), _br(V, (i, j, k, l), k), (j, k))),
    # F4-type nested pair bracket, parameterized by q = qt_ij qt_jk
    ("f4_nested_pair", (2, 5, 3, 1), _f4_nested_pair,
     lambda V, d, i, j, k, l: _br(V, _br(V, (i, j, k), j), _br(V, (i, j, k, l), j), (j, k))),
    # F4-type two-term relation, two guard variants
    ("f4_two_term", (1, 2, 2, 1), _f4_two_term, lambda V, d, i, j, k, l: _two_term(
        V, (i, j, k, l), j, k, d.q[j][k] * (inverse(d.t[i][j]) - d.q[j][j])
    )),
    # [x_iij, x_ij]_c with a sixth-root weighted edge
    ("sixth_root_bracket", (3, 2), lambda d, i, j: _only(
        _m1(d.q[j][j]) and d.order(d.q[i][i] * d.t[i][j]) == 6 and not _m1(d.t[i][j])
        and (d.order(d.q[i][i]) == 3 or -d.c[i][j] >= 3)
    ), lambda V, d, i, j: _br(V, (i, i, j), (i, j))),
    # double Serre-type combination
    ("two_vertex_mixed", (2, 2), lambda d, i, j: _only(
        not _m1(d.q[i][i]) and not _m1(d.q[j][j])
        and d.q[i][i] * d.t[i][j] != 1 and d.q[j][j] * d.t[i][j] != 1
    ), _two_vertex_mixed),
    # [x_i, x_{3a_i+2a_j}]_c - coef x_iij^2
    ("high_root_serre", (4, 2), lambda d, i, j: _only(
        -d.c[i][j] in (4, 5)
        or (_m1(d.q[j][j]) and -d.c[i][j] == 3 and d.order(d.q[i][i]) == 4)
    ), _high_root_serre),
    # vanishing of the degree-(4,3) bracket tower
    ("tower43_vanishes", (4, 3), _tower43, lambda V, d, i, j: _tower(V, i, j, 3)),
    # [x_iij, x_{3a_i+2a_j}]_c
    ("bracket_iij_tower32", (5, 3), lambda d, i, j: _only(
        d.is_root((i, j), (3, 2)) and not d.is_root((i, j), (5, 3))
        and d.q[i][i] ** 3 * d.t[i][j] != 1
        and d.q[i][i] ** 4 * d.t[i][j] != 1
    ), lambda V, d, i, j: _br(V, (i, i, j), _tower(V, i, j, 2))),
    # vanishing of the degree-(5,4) bracket tower
    ("tower54_vanishes", (5, 4), lambda d, i, j: _only(
        d.is_root((i, j), (4, 3)) and not d.is_root((i, j), (5, 4))
    ), lambda V, d, i, j: _tower(V, i, j, 4)),
    # [[x_iiij, x_iij]_c, x_iij]_c
    ("bracket_iiij_iij_iij", (7, 3), lambda d, i, j: _only(
        d.is_root((i, j), (5, 2)) and not d.is_root((i, j), (7, 3))
    ), lambda V, d, i, j: _br(V, (i, i, i, j), (i, i, j), (i, i, j))),
    # [x_iij, x_{4a_i+3a_j}]_c - coef x_{3a_i+2a_j}^2
    ("high_power_square", (6, 4), lambda d, i, j: _only(
        _m1(d.q[j][j]) and d.is_root((i, j), (5, 4))
    ), _high_power_square),
]


def generate_relations(V, rs):
    """All relation instances whose guards hold on V, in catalog order.

    rs is the root data of V (weyl.enumerate_roots); it supplies the Cartan
    matrix and Cartan vertices, the Cartan root powers and the membership
    guards of the high two-index families. An instance gets an explicit
    element only up to ELEMENT_DEGREE_CAP.
    """
    theta = V.rank
    if not rs.finite:
        raise ValueError("relation catalog requires a finite root system")
    d = _GuardData(V, rs)
    q, t = d.q, d.t
    out = []

    def add(family, participants, degree, build, note=""):
        element = build() if sum(degree) <= ELEMENT_DEGREE_CAP else None
        out.append(RelationInstance(family, participants, degree, element, note))

    # Cartan root vector powers x_alpha^{N_alpha}
    for alpha in rs.cartan_roots:
        N = rs.root_order(V, alpha)
        if N is not None and N >= 2:
            degree = tuple(N * a for a in alpha)
            add("cartan_root_power", (alpha,), degree,
                lambda: _power(root_vector_word(V, alpha), N))
    # quantum Serre relations (ad_c x_i)^{1-c_ij} x_j
    for i, j in permutations(range(theta), 2):
        cij = d.c[i][j]
        if q[i][i] ** (1 - cij) != 1:
            degree = _degree(theta, (i, j), (1 - cij, 1))
            add("quantum_serre", (i, j), degree,
                lambda: _xw(V, (i,) * (1 - cij) + (j,)))
    # simple root powers x_i^{N_i} at non-Cartan vertices
    for i in range(theta):
        N = None if rs.cartan_vertices[i] else d.order(q[i][i])
        if N is not None and N >= 2:
            add("simple_root_power", (i,), _degree(theta, (i,), (N,)), lambda: _power(_gen(i), N))
    # x_ij^2 for a -1-triangle of q_ii, qt_ij, q_jj with an asymmetric witness k
    for i, j in combinations(range(theta), 2):
        if not (_m1(q[i][i]) and _m1(t[i][j]) and _m1(q[j][j])):
            continue
        asymmetric = (
            k for k in range(theta)
            if k not in (i, j) and not (t[i][k] ** 2 == 1 and t[j][k] ** 2 == 1)
        )
        k = next(asymmetric, None)
        if k is not None:
            degree = _degree(theta, (i, j), (2, 2))
            add("square_of_bracket", (i, j, k), degree, lambda: _power(_xw(V, (i, j)), 2))
    # the table: for each index triple, then quadruple, then pair, its families
    for arity, specs in groupby(_FAMILIES, key=lambda spec: len(spec[1])):
        specs = list(specs)
        for idx in permutations(range(theta), arity):
            for family, copies, guard, build in specs:
                note = guard(d, *idx)
                if note is not None:
                    degree = _degree(theta, idx, copies)
                    add(family, idx, degree, lambda: build(V, d, *idx), note)
    _reject_duplicates(out)
    return out


def _reject_duplicates(instances):
    seen = set()
    for r in instances:
        key = (r.family, r.participants)
        if key in seen:
            raise RuntimeError(f"duplicate relation instance {key}")
        seen.add(key)


# -- (g_R, chi_R) and rigidity --------------------------------------------


def g_chi(real, instance):
    """(g_R, chi_R table, scalar chi_R(g_R)) for a relation instance: the
    label of a word of its degree under the realization real."""
    gR, chiR = real.label([i for i, a in enumerate(instance.degree) for _ in range(a)])
    return gR, chiR, char_value(chiR, gR)


def check_prop_gchi(real, instances):
    """Per-instance report: which letters share the label (g_R, chi_R)?"""
    reports = []
    for R in instances:
        gR, chiR, scalar = g_chi(real, R)
        clashes = [t for t, lab in enumerate(real.letters) if lab == (gR, chiR)]
        witnesses = {"chi_R(g_R)": scalar}
        for t, (gt, chit) in enumerate(real.letters):
            witnesses[f"chi_R(g_{t})chi_{t}(g_R)"] = char_value(chiR, gt) * char_value(chit, gR)
        reports.append(
            {
                "instance": R,
                "ok": not clashes,
                "clashes": clashes,
                "witnesses": witnesses,
            }
        )
    return reports


def rigidity_verdict(V, rs, real, pre_nichols=False):
    """Rigid | NotDecided per the sufficient (g_R, chi_R) criterion.

    rs is the root data of V (weyl.enumerate_roots within the caller's caps).
    pre_nichols drops the Cartan root power relations (the quotient keeping
    root vectors alive) before testing.
    """
    if not rs.finite:
        raise ValueError("rigidity criterion requires a finite root system")
    instances = generate_relations(V, rs)
    if pre_nichols:
        instances = [r for r in instances if r.family != "cartan_root_power"]
    reports = check_prop_gchi(real, instances)
    failing = [rep for rep in reports if not rep["ok"]]
    verdict = "Rigid" if not failing else "NotDecided"
    return verdict, reports
