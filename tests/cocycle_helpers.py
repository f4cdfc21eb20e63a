"""Test-side tools on degree-l cocycle pairs of a finite graded bialgebra.

solve_cocycles gives a basis of the cocycle pairs, check_filtration_vanishing
tests the degree-filtration implications on one pair, and
first_order_deformation deforms (m, Delta) by t^r times a pair over
k[t]/(t^(r+1)) (TruncPoly) and checks every bialgebra axiom with
check_bialgebra_axioms.
"""

from itertools import product

from nicholsalg.bialgebra import check_associativity
from nicholsalg.cohomology import _cocycle_rows, d_apply, map_unknowns
from nicholsalg.linalg import add_term, nullspace, row_axpy


# -- axiom checks ------------------------------------------------------------
# The structure constants come in as callables returning sparse dicts, so the
# same checks verify a quotient bialgebra (values in Q or Q(zeta_n)) and its
# first-order deformations (values in k[t]/(t^(r+1))).


def check_coassociativity(dim, coprod):
    for i in range(dim):
        acc = {}
        for (a, b), c in coprod(i).items():
            for (a1, a2), ca in coprod(a).items():
                add_term(acc, (a1, a2, b), c * ca)
            for (b1, b2), cb in coprod(b).items():
                add_term(acc, (a, b1, b2), -(c * cb))
        if acc:
            return False, i
    return True, None


def check_unit_counit(dim, unit, mult, coprod, unit_value):
    for i in range(dim):
        expected = {i: unit_value}
        if mult(unit, i) != expected:
            return False, ("unit-left", i)
        if mult(i, unit) != expected:
            return False, ("unit-right", i)
        left = {}
        right = {}
        for (a, b), c in coprod(i).items():
            if a == unit:
                add_term(left, b, c)
            if b == unit:
                add_term(right, a, c)
        if left != expected or right != expected:
            return False, ("counit", i)
    return True, None


def check_compatibility(dim, mult, coprod, braid):
    """Delta m = (m (x) m)(id (x) c (x) id)(Delta (x) Delta) on basis pairs;
    braid(b, s) = {s': coeff} for c(e_b (x) e_s) = sum coeff e_s' (x) e_b."""
    for i, j in product(range(dim), repeat=2):
        acc = {}
        for k, c in mult(i, j).items():
            row_axpy(acc, c, coprod(k))
        for (a, b), c1 in coprod(i).items():
            for (s, t), c2 in coprod(j).items():
                for sp, cb in braid(b, s).items():
                    for u, cu in mult(a, sp).items():
                        for v, cv in mult(b, t).items():
                            add_term(acc, (u, v), -(c1 * c2 * cb * cu * cv))
        if acc:
            return False, (i, j)
    return True, None


def check_bialgebra_axioms(dim, unit, mult, coprod, braid, unit_value):
    """{axiom: (ok, witness)}; the witness is the first failing basis instance."""
    return {
        "associativity": check_associativity(dim, mult),
        "coassociativity": check_coassociativity(dim, coprod),
        "unit_counit": check_unit_counit(dim, unit, mult, coprod, unit_value),
        "compatibility": check_compatibility(dim, mult, coprod, braid),
    }


def solve_cocycles(B, ell):
    """Basis of the degree-l cocycle pairs as dicts over f/g entries (s, t)."""
    fU = map_unknowns(B, 2, 1, ell)
    gU = map_unknowns(B, 1, 2, ell)
    return [vec for _, vec in nullspace(_cocycle_rows(B, fU + gU, d_apply), fU + gU)]


def check_filtration_vanishing(B, pair_vec, ell, r):
    """Degree-filtration property of cocycle pairs.

    With f_s the restriction of f to sources of total degree s: if r > 1,
    f_{<=r} = 0 and g_{<r} = 0 then g_r = 0; if l < 0 and f_{<=r} = 0 then
    g_{<=r} = 0; and if f = 0 with l < 0 then g = 0. Returns True when all
    applicable implications hold for the given pair (f entries have 2-tuple
    sources, g entries 1-tuple ones).
    """
    f_degs = {sum(B.degree(i) for i in s) for s, _ in pair_vec if len(s) == 2}
    g_degs = {sum(B.degree(i) for i in s) for s, _ in pair_vec if len(s) == 1}
    ok = True
    if r > 1 and not any(d <= r for d in f_degs) and not any(d < r for d in g_degs):
        ok = ok and r not in g_degs
    if ell < 0 and not any(d <= r for d in f_degs):
        ok = ok and not any(d <= r for d in g_degs)
    if ell < 0 and not f_degs:
        ok = ok and not g_degs
    return ok


class TruncPoly:
    """Element of k[t]/(t^(r+1)) with cyclotomic coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @staticmethod
    def const(c, r):
        return TruncPoly((c,) + (0,) * r)

    @staticmethod
    def tpow(c, k, r):
        coeffs = [0] * (r + 1)
        if k <= r:
            coeffs[k] = c
        return TruncPoly(coeffs)

    def __add__(self, other):
        return TruncPoly(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self):
        return TruncPoly(-a for a in self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, TruncPoly):
            return TruncPoly(a * other for a in self.coeffs)
        n = len(self.coeffs)
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j < n and b:
                    out[i + j] = out[i + j] + a * b
        return TruncPoly(out)

    __rmul__ = __mul__

    def __bool__(self):
        """Truth value is the zero test, as for the package's scalars."""
        return any(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, TruncPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"TruncPoly({self.coeffs!r})"


def first_order_deformation(B, pair_vec, r):
    """Deform (m, Delta) by t^r times a cocycle pair; verify all axioms.

    Returns (tables, report) where tables hold the deformed structure
    constants over k[t]/(t^(r+1)) and report maps each axiom to (ok,
    witness). A genuine cocycle always passes; a failure pinpoints the
    violated instance.
    """
    fpart = {}
    gpart = {}
    for (s, t), c in pair_vec.items():
        if len(s) == 2:
            fpart.setdefault(s, {})[t[0]] = c
        else:
            gpart.setdefault(s[0], {})[t] = c

    def mult_t(i, j):
        out = {k: TruncPoly.tpow(c, 0, r) for k, c in B.mult(i, j).items()}
        for k, c in fpart.get((i, j), {}).items():
            cur = out.get(k, TruncPoly.const(0, r))
            out[k] = cur + TruncPoly.tpow(c, r, r)
        return {k: v for k, v in out.items() if v}

    def coprod_t(i):
        out = {p: TruncPoly.tpow(c, 0, r) for p, c in B.coprod(i).items()}
        for p, c in gpart.get(i, {}).items():
            cur = out.get(p, TruncPoly.const(0, r))
            out[p] = cur + TruncPoly.tpow(c, r, r)
        return {k: v for k, v in out.items() if v}

    report = check_bialgebra_axioms(
        B.dim, B.unit, mult_t, coprod_t, B.braid, TruncPoly.tpow(1, 0, r)
    )
    tables = {"mult": mult_t, "coprod": coprod_t}
    return tables, report
