"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are represented by their canonical form: a polynomial in zeta_n
reduced modulo the n-th cyclotomic polynomial Phi_n, stored as integer
numerators over one positive common denominator in lowest terms (the layout
of FLINT's fmpq_poly). Equality is equality of that form. A product calls the
field's straight-line kernel, generated from Phi_n on its first product.

A run computes in one field Q(zeta_N): braided.build_diagonal lifts a
q-matrix into it once, and lift is the one way between fields, so two
conductors in one operation or == raise ValueError. Rationals are plain int
and Fraction: they join any field, a rational CycNumber hashes as the int
or Fraction it equals, and inverse() takes all three.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Coefficients of Phi_n, lowest degree first, as a tuple of ints."""
    # x^n - 1 divided by the monic Phi_d of every proper divisor d of n, in
    # place: after dividing by Phi_d of degree k, poly[k:] is the quotient
    # and poly[:k] the remainder
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            phi = cyclotomic_poly(d)
            k = len(phi) - 1
            for i in range(len(poly) - 1, k - 1, -1):
                c = poly[i]
                if c:
                    for j in range(k):
                        poly[i - k + j] -= c * phi[j]
            if any(poly[:k]):
                raise RuntimeError("cyclotomic division must be exact")
            poly = poly[k:]
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_table(n):
    """(d, rows) with d = deg Phi_n and rows[k] the sparse integer form
    ((i, c), ...) of zeta^k in the canonical basis, for 0 <= k < max(n, 2d - 1).

    That range covers every exponent below n and every exponent of a product
    of two canonical forms.
    """
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    rows = [((k, 1),) for k in range(d)]
    # zeta^d = -(phi_0 + phi_1 zeta + ... + phi_{d-1} zeta^{d-1}); Phi_n is monic
    cur = [-c for c in phi[:d]]
    for _ in range(d, max(n, 2 * d - 1)):
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        # multiply by zeta: shift, then fold the overflow back in
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(d):
                cur[i] -= top * phi[i]
    return d, tuple(rows)


_KERNELS = {}  # conductor n -> _kernel(n)


def _kernel(n):
    """The product of two canonical numerator tuples of Q(zeta_n): a straight-line
    function generated on the field's first product and kept in _KERNELS. Each
    t_k of the convolution, k >= d = deg Phi_n, is folded by _reduction_table(n)."""
    d, rows = _reduction_table(n)
    conv = [" + ".join(f"a{j}*b{k - j}" for j in range(max(0, k - d + 1), min(k, d - 1) + 1))
            for k in range(2 * d - 1)]
    out = conv[:d]
    for k in range(d, 2 * d - 1):
        for i, c in rows[k]:
            out[i] += f" {'-' if c < 0 else '+'} {'' if abs(c) == 1 else f'{abs(c)}*'}t{k}"
    a, b = (", ".join(f"{x}{j}" for j in range(d)) for x in "ab")
    temps = "".join(f"    t{k} = {conv[k]}\n" for k in range(d, 2 * d - 1))
    namespace = {}
    exec(f"def _mul_zeta{n}(a, b):\n    {a}, = a\n    {b}, = b\n{temps}"
         f"    return ({', '.join(out)},)\n", namespace)
    return _KERNELS.setdefault(n, namespace[f"_mul_zeta{n}"])


def _reduce(n, terms):
    """Canonical integer coefficients of sum c zeta_n^k over (k, c) in terms, 0 <= k < n."""
    d, rows = _reduction_table(n)
    out = [0] * d
    for k, c in terms:
        for i, r in rows[k]:
            out[i] += c * r
    return tuple(out)


def _canonical(n, num, den):
    """The CycNumber num/den of Q(zeta_n) for integer num and den > 0."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return CycNumber(n, tuple(num), den)


def _embed(n, r):
    """The int or Fraction r as an element of Q(zeta_n)."""
    return CycNumber(n, (r.numerator,) + (0,) * (len(cyclotomic_poly(n)) - 2), r.denominator)


class CycNumber:
    """An element of Q(zeta_n) in canonical (reduced) form.

    The value is sum_k num[k] zeta_n^k / den over the basis 1, zeta_n, ...,
    zeta_n^(d-1), d = deg Phi_n: integer numerators over one positive common
    denominator, in lowest terms (gcd(den, *num) == 1, so zero has den 1).
    Instances are never mutated.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n, num, den=1):
        self.n = n
        self.num = num
        self.den = den

    @property
    def coeffs(self):
        """The canonical coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_powers(n, powers):
        """Build sum of coeff * zeta_n^k from {k: coeff}, reducing mod Phi_n."""
        terms = [(k % n, Fraction(c)) for k, c in powers.items() if c]
        den = lcm(*(c.denominator for _, c in terms))
        num = _reduce(n, [(k, c.numerator * (den // c.denominator)) for k, c in terms])
        return _canonical(n, num, den)

    def lift(self, m):
        """Embed into Q(zeta_m); requires n | m (zeta_n maps to zeta_m^(m/n))."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"cannot embed Q(zeta_{self.n}) into Q(zeta_{m})")
        terms = [(j * (m // self.n), c) for j, c in enumerate(self.num)]
        return _canonical(m, _reduce(m, terms), self.den)

    # -- coercion ---------------------------------------------------------

    def _pair(self, other):
        """other in the field of self: an int or Fraction joins it, a
        CycNumber of another conductor raises ValueError, and any other
        type gives None."""
        if isinstance(other, CycNumber):
            if other.n != self.n:
                raise ValueError(
                    f"cannot mix Q(zeta_{self.n}) and Q(zeta_{other.n}); lift both into one field"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return _embed(self.n, other)
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        b = other if other.__class__ is CycNumber and other.n == self.n else self._pair(other)
        if b is None:
            return NotImplemented
        if self.den == b.den:
            return _canonical(self.n, [x + y for x, y in zip(self.num, b.num)], self.den)
        da, db = self.den, b.den
        return _canonical(self.n, [x * db + y * da for x, y in zip(self.num, b.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.n, tuple([-x for x in self.num]), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, p, q):
        """self * p/q for p/q in lowest terms, q > 0; a factor of exactly 1 returns self."""
        if p == q:
            return self
        return _canonical(self.n, [x * p for x in self.num], self.den * q)

    def __mul__(self, other):
        if other.__class__ is not CycNumber:
            if isinstance(other, int):
                return self._scaled(other, 1)
            if isinstance(other, Fraction):
                return self._scaled(other.numerator, other.denominator)
            return NotImplemented
        n = self.n
        if other.n != n:
            self._pair(other)  # raises: another conductor
        num = (_KERNELS.get(n) or _kernel(n))(self.num, other.num)
        den = self.den * other.den
        return CycNumber(n, num) if den == 1 else _canonical(n, num, den)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        n, p = self.n, self.num[0]
        if not any(self.num[1:]):
            return CycNumber(n, (self.den if p > 0 else -self.den,) + self.num[1:], abs(p))
        # x^-1 = rest / (x * rest), rest the product of the Galois conjugates
        # sigma_k(num), sigma_k(zeta_n) = zeta_n^k for 1 < k < n coprime to n
        rest = None
        for k in range(2, n):
            if gcd(k, n) == 1:
                conj = CycNumber(n, _reduce(n, [(j * k % n, c) for j, c in enumerate(self.num)]))
                rest = conj if rest is None else rest * conj
        norm = self * rest
        if any(norm.num[1:]) or not norm:
            raise RuntimeError("Galois norm must be a nonzero rational")
        p = norm.num[0]
        return rest._scaled(norm.den if p > 0 else -norm.den, abs(p))

    def __truediv__(self, other):
        return self * inverse(other)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return _embed(self.n, 1)
        # square-and-multiply with no product by 1 and no square past the top bit
        result, base = None, self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    # -- predicates -------------------------------------------------------

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if other.__class__ is CycNumber and other.n == self.n:
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return (
                self.num[0] == other.numerator and self.den == other.denominator
                and not any(self.num[1:])
            )
        if isinstance(other, CycNumber):
            self._pair(other)  # raises: another conductor
        return NotImplemented

    def __hash__(self):
        # a rational value hashes as the int or Fraction it equals
        num, den = self.num, self.den
        if any(num[1:]):
            return hash((self.n, num, den))
        return hash(num[0] if den == 1 else Fraction(num[0], den))

    def __repr__(self):
        return f"CycNumber({format_cyc(self)!r})"


# -- public helpers -------------------------------------------------------

def zeta(n, exponent=1):
    """zeta_n^exponent in canonical form."""
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    return CycNumber.from_powers(n, {exponent % n: 1})


def inverse(x):
    """1/x in the field of x: an int or Fraction of Q, or a CycNumber.

    A unit int is its own inverse; other rationals give a Fraction, never a
    float. Zero raises ZeroDivisionError.
    """
    if x.__class__ is CycNumber:
        return x.inverse()
    if x == 1 or x == -1:
        return x
    return Fraction(1, x)


def cyc_order(z):
    """Smallest N with z^N = 1, or None if z is not a root of unity.

    Roots of unity in Q(zeta_n) all lie in the group generated by -1 and
    zeta_n, so the order divides lcm(2, n); only divisors are checked.
    """
    if not z:
        raise ZeroDivisionError("order of zero is undefined")
    bound = z.n if z.n % 2 == 0 else 2 * z.n
    for cand in sorted(d for d in range(1, bound + 1) if bound % d == 0):
        if z ** cand == 1:
            return cand
    return None


# -- text form ------------------------------------------------------------

def format_cyc(z):
    """Canonical text form, e.g. '1/2 + 3*zeta12^2 - zeta12^5'; an int or
    Fraction prints as the CycNumber of the same value does."""
    n, coeffs = (z.n, z.coeffs) if isinstance(z, CycNumber) else (1, (Fraction(z),))
    out = ""
    for k, c in enumerate(coeffs):
        if c:
            mag = "" if k and abs(c) == 1 else str(abs(c))
            base = "" if k == 0 else f"zeta{n}" if k == 1 else f"zeta{n}^{k}"
            out += (" - " if c < 0 else " + ") if out else ("-" if c < 0 else "")
            out += mag + ("*" if mag and base else "") + base
    return out or "0"


def parse_cyc(text, ambient_order=None):
    """Parse the text form produced by format_cyc, plus bare rationals.

    Accepts sums of terms 'r', 'r*zeta{n}^{k}', 'zeta{n}^{k}', 'zeta{n}',
    each optionally signed. Every term is built in Q(zeta_ambient_order),
    or without an ambient order in Q(zeta_m), m the lcm of the terms'
    orders; a term whose order does not divide the ambient order raises
    ValueError.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty cyclotomic literal")
    terms = []  # (n, k, coeff) for coeff * zeta_n^k
    for tok in text.replace("- ", "-").replace("+ ", "+").split():
        sign = 1
        if tok.startswith("+"):
            tok = tok[1:]
        elif tok.startswith("-"):
            sign, tok = -1, tok[1:]
        if "zeta" not in tok:
            terms.append((1, 0, sign * Fraction(tok)))
            continue
        if "*" in tok:
            coeff_txt, zpart = tok.split("*", 1)
            coeff = Fraction(coeff_txt)
        else:
            coeff, zpart = Fraction(1), tok
        body = zpart[4:]
        n_txt, k_txt = body.split("^", 1) if "^" in body else (body, "1")
        if int(n_txt) < 1:
            raise ValueError(f"cyclotomic order must be >= 1 in {tok!r}")
        terms.append((int(n_txt), int(k_txt), sign * coeff))
    m = lcm(*(n for n, _, _ in terms)) if ambient_order is None else ambient_order
    powers = {}
    for n, k, c in terms:
        if m % n:
            raise ValueError(f"cannot embed Q(zeta_{n}) into Q(zeta_{m})")
        powers[k * (m // n)] = powers.get(k * (m // n), 0) + c
    return CycNumber.from_powers(m, powers)
