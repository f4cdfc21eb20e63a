"""Minimal defining relations of finite-root-system diagonal Nichols algebras.

Each catalog family carries an exact guard on the q-matrix (and sometimes on
the root system), an index pattern, a Z^theta degree, and where practical an
explicit tensor-element realization built from iterated braided commutators
x_{i1...ik} = [x_{i1}, x_{i2...ik}]_c.

Realizations attach group/character data (g_R, chi_R) to each relation; the
rigidity criterion asks that no relation shares its (g, chi) pair with a
generator.
"""

from dataclasses import dataclass
from typing import Optional

from .braided import DEFAULT_CARTAN_CAP, cartan_integer, is_cartan_vertex
from .cyclo import cyc_order, one, rational
from .tensoralg import TensorElement, braided_adjoint_power, braided_commutator, root_vector_word
from .weyl import bichar_eval, enumerate_roots

ELEMENT_DEGREE_CAP = 12  # skip explicit word realizations above this degree


# -- realizations ----------------------------------------------------------


@dataclass(frozen=True)
class Realization:
    """Abelian group Gamma with theta marked elements and characters.

    invariant_factors[k] is the order of the k-th generator (0 = infinite);
    g[i] is an exponent vector; chi[i][k] is the value of the i-th character
    on the k-th generator.
    """

    invariant_factors: tuple
    g: tuple
    chi: tuple

    @property
    def rank(self):
        return len(self.g)

    def normalize(self, vec):
        return tuple(
            v % n if n else v for v, n in zip(vec, self.invariant_factors)
        )

    def group_product(self, exponents):
        """g_1^{a_1} ... g_theta^{a_theta} as a normalized exponent vector."""
        ngen = len(self.invariant_factors)
        out = [0] * ngen
        for i, a in enumerate(exponents):
            for k in range(ngen):
                out[k] += a * self.g[i][k]
        return self.normalize(out)

    def char_product(self, exponents):
        """Value table of chi_1^{a_1} ... chi_theta^{a_theta}."""
        ngen = len(self.invariant_factors)
        out = []
        for k in range(ngen):
            v = one()
            for i, a in enumerate(exponents):
                if a:
                    v = v * self.chi[i][k] ** a
            out.append(v)
        return tuple(out)

    def char_value(self, table, elem):
        v = one()
        for k, e in enumerate(elem):
            if e:
                v = v * table[k] ** e
        return v


def canonical_realization(V):
    """Free realization over Z^theta with g_i = e_i, chi_j(e_i) = q_ij."""
    theta = V.rank
    g = tuple(tuple(1 if k == i else 0 for k in range(theta)) for i in range(theta))
    chi = tuple(tuple(V.q(k, j) for k in range(theta)) for j in range(theta))
    return Realization(invariant_factors=(0,) * theta, g=g, chi=chi)


def quotient_realization(V, N):
    """Realization over (Z/N)^theta; requires q_ij^N = 1 for all i, j."""
    theta = V.rank
    for i in range(theta):
        for j in range(theta):
            if not (V.q(i, j) ** N).is_one():
                raise ValueError(f"q[{i}][{j}]^{N} != 1: characters not defined on the quotient")
    base = canonical_realization(V)
    return Realization(invariant_factors=(N,) * theta, g=base.g, chi=base.chi)


# -- relation instances ----------------------------------------------------


@dataclass
class RelationInstance:
    family: str
    participants: tuple  # index tuple, or a root vector degree
    degree: tuple  # Z^theta degree
    element: Optional[TensorElement] = None
    note: str = ""

    @property
    def support(self):
        return tuple(i for i, a in enumerate(self.degree) if a)


def _gen(i):
    return TensorElement.generator(i)


def _xw(V, letters):
    """Left-nested iterated commutator x_{i1...ik}."""
    if len(letters) == 1:
        return _gen(letters[0])
    return braided_commutator(V, _gen(letters[0]), _xw(V, letters[1:]))


def _power(elem, n):
    out = elem
    for _ in range(n - 1):
        out = out.concat(elem)
    return out


def _tower_root_vector(V, i, j, m):
    """x of degree (m+1) a_i + m a_j: bracket tower over x_{2a_i+a_j}."""
    if m == 1:
        return _xw(V, (i, i, j))
    prev = _tower_root_vector(V, i, j, m - 1)
    return braided_commutator(V, prev, _xw(V, (i, j)))


def _vec(theta, pairs):
    d = [0] * theta
    for idx, a in pairs:
        d[idx] += a
    return tuple(d)


def _ord_is(q, n):
    return cyc_order(q) == n


def _minus_one(q):
    return (q + one()).is_zero()


# -- catalog ---------------------------------------------------------------


def generate_relations(V, rs=None, cap=DEFAULT_CARTAN_CAP):
    """All relation instances whose guards hold on V.

    rs: RootSystemData (computed when omitted); needed both for Cartan root
    powers and for the membership guards of the high two-index families.
    """
    theta = V.rank
    if rs is None:
        rs = enumerate_roots(V, cap=cap)
    if not rs.finite:
        raise ValueError("relation catalog requires a finite root system")
    roots = set(rs.positive_roots)
    out = []

    def q(i, j):
        return V.q(i, j)

    def qt(i, j):
        return V.qtilde(i, j)

    def c(i, j):
        return cartan_integer(V, i, j, cap=cap)

    def add(family, participants, degree, element, note=""):
        if element is not None and sum(degree) > ELEMENT_DEGREE_CAP:
            element = None
        out.append(RelationInstance(family, participants, degree, element, note))

    # Cartan root vector powers x_alpha^{N_alpha}
    for alpha in rs.cartan_roots:
        N = rs.root_order(V, alpha)
        if N is None or N < 2:
            continue
        degree = tuple(N * a for a in alpha)
        element = None
        if sum(degree) <= ELEMENT_DEGREE_CAP:
            element = _power(root_vector_word(V, alpha), N)
        add("cartan_root_power", (alpha,), degree, element)

    # quantum Serre relations (ad_c x_i)^{1-c_ij} x_j
    for i in range(theta):
        for j in range(theta):
            if i == j:
                continue
            cij = c(i, j)
            if cij is None:
                continue
            if (q(i, i) ** (1 - cij)).is_one():
                continue
            degree = _vec(theta, [(i, 1 - cij), (j, 1)])
            add(
                "quantum_serre",
                (i, j),
                degree,
                braided_adjoint_power(V, i, 1 - cij, _gen(j)),
            )

    # simple root powers x_i^{N_i} at non-Cartan vertices
    for i in range(theta):
        if is_cartan_vertex(V, i, cap=cap):
            continue
        N = cyc_order(q(i, i))
        if N is None or N < 2:
            continue
        add("simple_root_power", (i,), _vec(theta, [(i, N)]), _power(_gen(i), N))

    # x_ij^2 for a -1-triangle of q_ii, qt_ij, q_jj with an asymmetric witness
    for i in range(theta):
        for j in range(i + 1, theta):
            if not (_minus_one(q(i, i)) and _minus_one(qt(i, j)) and _minus_one(q(j, j))):
                continue
            witness = None
            for k in range(theta):
                if k in (i, j):
                    continue
                if not (qt(i, k) ** 2).is_one() or not (qt(j, k) ** 2).is_one():
                    witness = k
                    break
            if witness is None:
                continue
            el = _xw(V, (i, j))
            add(
                "square_of_bracket",
                (i, j, witness),
                _vec(theta, [(i, 2), (j, 2)]),
                el.concat(el),
            )

    for i in range(theta):
        for j in range(theta):
            for k in range(theta):
                if len({i, j, k}) != 3:
                    continue
                # [x_ijk, x_j]_c with a -1 middle vertex
                if (
                    _minus_one(q(j, j))
                    and qt(i, k).is_one()
                    and (qt(i, j) * qt(k, j)).is_one()
                    and not _minus_one(qt(i, j))
                ):
                    add(
                        "mid_vertex_bracket",
                        (i, j, k),
                        _vec(theta, [(i, 1), (j, 2), (k, 1)]),
                        braided_commutator(V, _xw(V, (i, j, k)), _gen(j)),
                    )
                # [x_iijk, x_ij]_c
                if (
                    _ord_is(q(i, i), 3)
                    and (q(i, i) == qt(i, j) or q(i, i) == -qt(i, j))
                    and qt(i, k).is_one()
                    and (
                        (_minus_one(q(j, j)) and (qt(i, j) * qt(j, k)).is_one())
                        or (
                            q(j, j).inverse() == qt(i, j)
                            and qt(i, j) == qt(j, k)
                            and not _minus_one(qt(i, j))
                        )
                    )
                ):
                    add(
                        "double_i_bracket",
                        (i, j, k),
                        _vec(theta, [(i, 3), (j, 2), (k, 1)]),
                        braided_commutator(V, _xw(V, (i, i, j, k)), _xw(V, (i, j))),
                    )
                # triangle relation: all three edges present
                if (
                    not qt(i, k).is_one()
                    and not qt(i, j).is_one()
                    and not qt(j, k).is_one()
                ):
                    coef1 = (one() - qt(j, k)) / (q(k, j) * (one() - qt(i, k)))
                    coef2 = q(i, j) * (one() - qt(j, k))
                    el = (
                        _xw(V, (i, j, k))
                        - braided_commutator(V, _xw(V, (i, k)), _gen(j)).scale(coef1)
                        - _gen(j).concat(_xw(V, (i, k))).scale(coef2)
                    )
                    add("triangle", (i, j, k), _vec(theta, [(i, 1), (j, 1), (k, 1)]), el)
                # [[x_ij, x_ijk]_c, x_j]_c, five guard variants
                sc3 = None
                if (
                    _minus_one(q(i, i))
                    and _minus_one(q(j, j))
                    and qt(i, j) ** 2 == qt(j, k).inverse()
                    and qt(i, k).is_one()
                ):
                    sc3 = "i"
                elif (
                    _minus_one(qt(i, j))
                    and _minus_one(q(j, j))
                    and q(i, i) == -(qt(j, k) ** 2)
                    and _ord_is(q(i, i), 3)
                    and qt(i, k).is_one()
                ):
                    sc3 = "ii"
                elif (
                    _minus_one(q(k, k))
                    and _minus_one(qt(j, k))
                    and _minus_one(q(j, j))
                    and q(i, i) == -qt(i, j)
                    and _ord_is(q(i, i), 3)
                    and qt(i, k).is_one()
                ):
                    sc3 = "iii"
                elif (
                    _minus_one(q(j, j))
                    and qt(i, j) == q(i, i) ** -2
                    and qt(j, k) == -(q(i, i) ** 3)
                    and qt(i, k).is_one()
                ):
                    sc3 = "iv"
                elif (
                    _minus_one(q(i, i))
                    and _minus_one(q(j, j))
                    and _minus_one(q(k, k))
                    and (qt(i, j) == qt(j, k) or qt(i, j) == -qt(j, k))
                    and _ord_is(qt(j, k), 3)
                    and qt(i, k).is_one()
                ):
                    sc3 = "v"
                if sc3 is not None:
                    el = braided_commutator(
                        V,
                        braided_commutator(V, _xw(V, (i, j)), _xw(V, (i, j, k))),
                        _gen(j),
                    )
                    add(
                        "nested_c3_bracket",
                        (i, j, k),
                        _vec(theta, [(i, 2), (j, 3), (k, 1)]),
                        el,
                        note=f"variant {sc3}",
                    )
                # [[x_ij, [x_ij, x_ijk]_c]_c, x_j]_c
                if (
                    _minus_one(q(i, i))
                    and _minus_one(q(j, j))
                    and qt(i, j) ** 3 == qt(j, k).inverse()
                    and qt(i, k).is_one()
                ):
                    inner = braided_commutator(V, _xw(V, (i, j)), _xw(V, (i, j, k)))
                    el = braided_commutator(
                        V, braided_commutator(V, _xw(V, (i, j)), inner), _gen(j)
                    )
                    add(
                        "nested_g3_bracket",
                        (i, j, k),
                        _vec(theta, [(i, 3), (j, 4), (k, 1)]),
                        el,
                    )
                # [[x_ijk, x_j]_c, x_j]_c at a cube-root middle vertex
                if (
                    _ord_is(q(j, j), 3)
                    and q(j, j) == qt(i, j) ** 2
                    and q(j, j) == qt(j, k)
                    and qt(i, k).is_one()
                ):
                    el = braided_commutator(
                        V, braided_commutator(V, _xw(V, (i, j, k)), _gen(j)), _gen(j)
                    )
                    add(
                        "double_j_bracket",
                        (i, j, k),
                        _vec(theta, [(i, 1), (j, 3), (k, 1)]),
                        el,
                    )
                # [[x_iij, x_iijk]_c, x_ij]_c, ninth-root chain
                if (
                    _ord_is(q(j, j), 9)
                    and q(k, k) == q(j, j)
                    and qt(i, j) == q(j, j).inverse()
                    and qt(j, k) == q(j, j).inverse()
                    and qt(i, k).is_one()
                    and q(i, i) == q(k, k) ** 6
                ):
                    el = braided_commutator(
                        V,
                        braided_commutator(V, _xw(V, (i, i, j)), _xw(V, (i, i, j, k))),
                        _xw(V, (i, j)),
                    )
                    add(
                        "ninth_root_chain",
                        (i, j, k),
                        _vec(theta, [(i, 5), (j, 3), (k, 1)]),
                        el,
                    )
                # two-term ninth-root relation
                if (
                    _ord_is(q(i, i), 9)
                    and qt(i, j) == q(i, i).inverse()
                    and q(j, j) == q(i, i) ** 5
                    and qt(j, k) == (q(i, i) ** 5).inverse()
                    and qt(i, k).is_one()
                    and q(k, k) == q(i, i) ** 6
                ):
                    t1 = braided_commutator(
                        V, braided_commutator(V, _xw(V, (i, j, k)), _gen(j)), _gen(k)
                    )
                    t2 = braided_commutator(
                        V, braided_commutator(V, _xw(V, (i, j, k)), _gen(k)), _gen(j)
                    )
                    coef = (one() + qt(j, k)).inverse() * q(j, k)
                    add(
                        "ninth_root_two_term",
                        (i, j, k),
                        _vec(theta, [(i, 1), (j, 2), (k, 2)]),
                        t1 - t2.scale(coef),
                    )
                # [[[x_ijk, x_j]_c, x_j]_c, x_j]_c at a fourth-root middle vertex
                if (
                    _ord_is(q(j, j), 4)
                    and q(j, j) == qt(i, j) ** 3
                    and q(j, j) == qt(j, k)
                    and qt(i, k).is_one()
                ):
                    el = _xw(V, (i, j, k))
                    for _ in range(3):
                        el = braided_commutator(V, el, _gen(j))
                    add(
                        "triple_j_bracket",
                        (i, j, k),
                        _vec(theta, [(i, 1), (j, 4), (k, 1)]),
                        el,
                    )
                # [x_ij, x_ijk]_c
                if (
                    _minus_one(q(i, i))
                    and _minus_one(qt(i, j))
                    and q(j, j) == qt(j, k).inverse()
                    and not _minus_one(q(j, j))
                    and qt(i, k).is_one()
                ):
                    add(
                        "pair_chain_bracket",
                        (i, j, k),
                        _vec(theta, [(i, 2), (j, 2), (k, 1)]),
                        braided_commutator(V, _xw(V, (i, j)), _xw(V, (i, j, k))),
                    )
                # three-term relation with cube-root edge
                if (
                    _minus_one(q(i, i))
                    and _minus_one(q(k, k))
                    and qt(i, k).is_one()
                    and _ord_is(qt(i, j), 3)
                    and q(j, j) == -qt(j, k)
                    and (q(j, j) == qt(i, j) or q(j, j) == -qt(i, j))
                ):
                    t1 = braided_commutator(V, _gen(i), _xw(V, (j, j, k)))
                    t2 = braided_commutator(V, _xw(V, (i, j, k)), _gen(j))
                    c2 = (one() + q(j, j) ** 2) * q(k, j).inverse()
                    c3 = (one() + q(j, j) ** 2) * (one() + q(j, j)) * q(i, j)
                    el = t1 - t2.scale(c2) - _gen(j).concat(_xw(V, (i, j, k))).scale(c3)
                    add(
                        "three_term_cube_edge",
                        (i, j, k),
                        _vec(theta, [(i, 1), (j, 2), (k, 1)]),
                        el,
                    )
                # [x_i, [x_ij, x_ik]_c]_c + ... with two double edges at i
                if (
                    qt(j, k).is_one()
                    and _ord_is(q(i, i), 3)
                    and q(i, i) == qt(i, j)
                    and q(i, i) == -qt(i, k)
                ):
                    t1 = braided_commutator(
                        V,
                        _gen(i),
                        braided_commutator(V, _xw(V, (i, j)), _xw(V, (i, k))),
                    )
                    t2 = braided_commutator(V, _xw(V, (i, i, k)), _xw(V, (i, j)))
                    el = (
                        t1
                        + t2.scale(q(j, k) * q(i, k) * q(j, i))
                        + _xw(V, (i, j)).concat(_xw(V, (i, i, k))).scale(q(i, j))
                    )
                    add(
                        "double_edge_sum",
                        (i, j, k),
                        _vec(theta, [(i, 3), (j, 1), (k, 1)]),
                        el,
                    )
                # [x_iijk, x_ijk]_c
                if (
                    _minus_one(q(j, j))
                    and _minus_one(q(k, k))
                    and _minus_one(qt(j, k))
                    and q(i, i) == -qt(i, j)
                    and _ord_is(q(i, i), 3)
                    and qt(i, k).is_one()
                ):
                    add(
                        "rank3_tail_bracket",
                        (i, j, k),
                        _vec(theta, [(i, 3), (j, 2), (k, 2)]),
                        braided_commutator(V, _xw(V, (i, i, j, k)), _xw(V, (i, j, k))),
                    )

    # four-index families
    for i in range(theta):
        for j in range(theta):
            for k in range(theta):
                for l in range(theta):
                    if len({i, j, k, l}) != 4:
                        continue
                    distant = (
                        qt(i, k).is_one() and qt(i, l).is_one() and qt(j, l).is_one()
                    )
                    if not distant:
                        continue
                    # [[[x_ijkl, x_k]_c, x_j]_c, x_k]_c
                    if (
                        (q(j, j) * qt(i, j)).is_one()
                        and (q(j, j) * qt(j, k)).is_one()
                        and _minus_one(q(k, k))
                        and qt(j, k) ** 2 == qt(l, k).inverse()
                        and qt(j, k) ** 2 == q(l, l)
                    ):
                        el = _xw(V, (i, j, k, l))
                        for t in (k, j, k):
                            el = braided_commutator(V, el, _gen(t))
                        add(
                            "chain_c4_bracket",
                            (i, j, k, l),
                            _vec(theta, [(i, 1), (j, 2), (k, 3), (l, 1)]),
                            el,
                        )
                    # [[x_ijk, [x_ijkl, x_k]_c]_c, x_jk]_c
                    if (
                        qt(j, k) == qt(i, j)
                        and qt(i, j) == q(j, j).inverse()
                        and cyc_order(q(j, j)) in (4, 6)
                        and _minus_one(q(i, i))
                        and _minus_one(q(k, k))
                        and qt(j, k) ** 3 == qt(l, k)
                    ):
                        inner = braided_commutator(V, _xw(V, (i, j, k, l)), _gen(k))
                        el = braided_commutator(
                            V,
                            braided_commutator(V, _xw(V, (i, j, k)), inner),
                            _xw(V, (j, k)),
                        )
                        add(
                            "chain_c4_modified",
                            (i, j, k, l),
                            _vec(theta, [(i, 2), (j, 3), (k, 4), (l, 1)]),
                            el,
                        )
                    # F4-type nested pair bracket, parameterized by q
                    qpar = qt(i, j) * qt(j, k)
                    if (
                        _minus_one(q(j, j))
                        and q(l, l) == qpar ** 2
                        and qt(l, k) == (qpar ** 2).inverse()
                        and q(k, k) == qpar ** 2
                        and qt(j, k) == (qpar ** 2).inverse()
                        and qt(i, j) == qpar ** 3
                        and q(i, i) == (qpar ** 3).inverse()
                    ):
                        left = braided_commutator(V, _xw(V, (i, j, k)), _gen(j))
                        right = braided_commutator(V, _xw(V, (i, j, k, l)), _gen(j))
                        el = braided_commutator(
                            V, braided_commutator(V, left, right), _xw(V, (j, k))
                        )
                        add(
                            "f4_nested_pair",
                            (i, j, k, l),
                            _vec(theta, [(i, 2), (j, 5), (k, 3), (l, 1)]),
                            el,
                        )
                    # F4-type two-term relation, two guard variants
                    f4b = None
                    if (
                        _minus_one(q(k, k))
                        and q(i, i) == qt(i, j).inverse()
                        and q(i, i) == q(j, j) ** 2
                        and qt(k, l) == q(j, j) ** 3
                        and q(l, l) == (q(j, j) ** 3).inverse()
                        and qt(j, k) == q(j, j).inverse()
                    ):
                        f4b = "i"
                    elif (
                        _minus_one(q(j, j))
                        and _minus_one(qt(j, k))
                        and _minus_one(q(k, k))
                        and q(i, i) == qt(i, j).inverse()
                        and q(i, i) == -q(l, l).inverse()
                        and q(i, i) == -qt(k, l)
                    ):
                        f4b = "ii"
                    if f4b is not None:
                        t1 = braided_commutator(
                            V,
                            braided_commutator(V, _xw(V, (i, j, k, l)), _gen(j)),
                            _gen(k),
                        )
                        t2 = braided_commutator(
                            V,
                            braided_commutator(V, _xw(V, (i, j, k, l)), _gen(k)),
                            _gen(j),
                        )
                        coef = q(j, k) * (qt(i, j).inverse() - q(j, j))
                        add(
                            "f4_two_term",
                            (i, j, k, l),
                            _vec(theta, [(i, 1), (j, 2), (k, 2), (l, 1)]),
                            t1 - t2.scale(coef),
                            note=f"variant {f4b}",
                        )

    # two-index families
    for i in range(theta):
        for j in range(theta):
            if i == j:
                continue
            cij = c(i, j)
            # [x_iij, x_ij]_c with a sixth-root weighted edge
            if (
                _minus_one(q(j, j))
                and _ord_is(q(i, i) * qt(i, j), 6)
                and not _minus_one(qt(i, j))
                and (_ord_is(q(i, i), 3) or (cij is not None and -cij >= 3))
            ):
                add(
                    "sixth_root_bracket",
                    (i, j),
                    _vec(theta, [(i, 3), (j, 2)]),
                    braided_commutator(V, _xw(V, (i, i, j)), _xw(V, (i, j))),
                )
            # double Serre-type combination
            if (
                not _minus_one(q(i, i))
                and not _minus_one(q(j, j))
                and not (q(i, i) * qt(i, j)).is_one()
                and not (q(j, j) * qt(i, j)).is_one()
            ):
                t1 = braided_commutator(
                    V, _gen(i), braided_commutator(V, _xw(V, (i, j)), _gen(j))
                )
                c1 = (one() - qt(i, j)) * q(j, j) * q(j, i)
                c2 = (one() + q(j, j)) * (one() - q(j, j) * qt(i, j))
                el = t1.scale(c1) - _xw(V, (i, j)).concat(_xw(V, (i, j))).scale(c2)
                add(
                    "two_vertex_mixed",
                    (i, j),
                    _vec(theta, [(i, 2), (j, 2)]),
                    el,
                )
            # [x_i, x_{3a_i+2a_j}]_c - coef x_iij^2
            if cij is not None and (
                -cij in (4, 5)
                or (_minus_one(q(j, j)) and -cij == 3 and _ord_is(q(i, i), 4))
            ):
                num = one() - q(i, i) * qt(i, j) - q(i, i) ** 2 * qt(i, j) ** 2 * q(j, j)
                den = (one() - q(i, i) * qt(i, j)) * q(j, i)
                el = braided_commutator(
                    V, _gen(i), _tower_root_vector(V, i, j, 2)
                ) - _power(_xw(V, (i, i, j)), 2).scale(num / den)
                add("high_root_serre", (i, j), _vec(theta, [(i, 4), (j, 2)]), el)
            # vanishing of the degree-(4,3) bracket tower
            mji = None if c(j, i) is None else -c(j, i)
            if (
                _vec(theta, [(i, 4), (j, 3)]) not in roots
                and (_minus_one(q(j, j)) or (mji is not None and mji >= 2))
                and cij is not None
                and (-cij >= 3 or (-cij == 2 and _ord_is(q(i, i), 3)))
            ):
                add(
                    "tower43_vanishes",
                    (i, j),
                    _vec(theta, [(i, 4), (j, 3)]),
                    _tower_root_vector(V, i, j, 3),
                    note="m_ji guard" if not _minus_one(q(j, j)) else "",
                )
            # [x_iij, x_{3a_i+2a_j}]_c
            if (
                _vec(theta, [(i, 3), (j, 2)]) in roots
                and _vec(theta, [(i, 5), (j, 3)]) not in roots
                and not (q(i, i) ** 3 * qt(i, j)).is_one()
                and not (q(i, i) ** 4 * qt(i, j)).is_one()
            ):
                el = braided_commutator(
                    V, _xw(V, (i, i, j)), _tower_root_vector(V, i, j, 2)
                )
                add("bracket_iij_tower32", (i, j), _vec(theta, [(i, 5), (j, 3)]), el)
            # vanishing of the degree-(5,4) bracket tower
            if (
                _vec(theta, [(i, 4), (j, 3)]) in roots
                and _vec(theta, [(i, 5), (j, 4)]) not in roots
            ):
                add(
                    "tower54_vanishes",
                    (i, j),
                    _vec(theta, [(i, 5), (j, 4)]),
                    _tower_root_vector(V, i, j, 4),
                )
            # [[x_iiij, x_iij]_c, x_iij]_c
            if (
                _vec(theta, [(i, 5), (j, 2)]) in roots
                and _vec(theta, [(i, 7), (j, 3)]) not in roots
            ):
                el = braided_commutator(
                    V,
                    braided_commutator(V, _xw(V, (i, i, i, j)), _xw(V, (i, i, j))),
                    _xw(V, (i, i, j)),
                )
                add("bracket_iiij_iij_iij", (i, j), _vec(theta, [(i, 7), (j, 3)]), el)
            # [x_iij, x_{4a_i+3a_j}]_c - coef x_{3a_i+2a_j}^2
            if _minus_one(q(j, j)) and _vec(theta, [(i, 5), (j, 4)]) in roots:
                z = qt(i, j)
                qii = q(i, i)
                a = (one() - z) * (one() - qii ** 4 * z ** 3) - (one() - qii * z) * (
                    one() + qii
                ) * qii * z
                b = (one() - z) * (one() - qii ** 6 * z ** 5) - a * qii * z
                num = b - (one() + qii) * (one() - qii * z) * (
                    one() + z + qii * z ** 2
                ) * qii ** 6 * z ** 4
                den = a * qii ** 3 * q(i, j) ** 2 * q(j, i) ** 3
                el = braided_commutator(
                    V, _xw(V, (i, i, j)), _tower_root_vector(V, i, j, 3)
                ) - _power(_tower_root_vector(V, i, j, 2), 2).scale(num / den)
                add("high_power_square", (i, j), _vec(theta, [(i, 6), (j, 4)]), el)

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
    """(g_R, chi_R table, scalar chi_R(g_R)) for a relation instance."""
    gR = real.group_product(instance.degree)
    chiR = real.char_product(instance.degree)
    return gR, chiR, real.char_value(chiR, gR)


def check_prop_gchi(V, real, instances):
    """Per-instance report: does (g_R, chi_R) avoid every (g_t, chi_t)?"""
    theta = V.rank
    reports = []
    for R in instances:
        gR, chiR, scalar = g_chi(real, R)
        clashes = []
        witnesses = {"chi_R(g_R)": scalar}
        for t in range(theta):
            gt = real.normalize(real.g[t])
            chit = real.chi[t]
            if gR == gt and chiR == chit:
                clashes.append(t)
            witnesses[f"chi_R(g_{t})chi_{t}(g_R)"] = real.char_value(
                chiR, real.g[t]
            ) * real.char_value(chit, gR)
        reports.append(
            {
                "instance": R,
                "ok": not clashes,
                "clashes": clashes,
                "witnesses": witnesses,
            }
        )
    return reports


def rigidity_verdict(V, real=None, pre_nichols=False, cap=DEFAULT_CARTAN_CAP):
    """Rigid | NotDecided per the sufficient (g_R, chi_R) criterion.

    pre_nichols drops the Cartan root power relations (the quotient keeping
    root vectors alive) before testing.
    """
    if real is None:
        real = canonical_realization(V)
    rs = enumerate_roots(V, cap=cap)
    if not rs.finite:
        raise ValueError("rigidity criterion requires a finite root system")
    instances = generate_relations(V, rs, cap=cap)
    if pre_nichols:
        instances = [r for r in instances if r.family != "cartan_root_power"]
    reports = check_prop_gchi(V, real, instances)
    failing = [rep for rep in reports if not rep["ok"]]
    verdict = "Rigid" if not failing else "NotDecided"
    return verdict, reports
