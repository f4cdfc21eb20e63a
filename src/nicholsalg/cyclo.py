"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are represented by their canonical form: a polynomial in zeta_n
reduced modulo the n-th cyclotomic polynomial, stored as integer numerators
over one positive common denominator in lowest terms (the layout of FLINT's
fmpq_poly). Equality within one field is equality of that form; the hash is
shared by equal values of different fields.

Where a whole computation is rational, the kernel's scalars are plain int
and Fraction rather than elements of Q(zeta_1); inverse() takes all three.
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
    """(d, rows) with d = deg Phi_n and rows[k - d] the sparse integer form
    ((i, c), ...) of zeta^k in the canonical basis, for d <= k < max(n, 2d - 1).

    That range covers every exponent below n and every exponent of a product
    of two canonical forms.
    """
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    rows = []
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


def _reduce(n, poly):
    """Canonical integer coefficients of sum poly[k] zeta_n^k (list, low first)."""
    d, rows = _reduction_table(n)
    out = poly[:d]
    for k in range(d, len(poly)):
        c = poly[k]
        if c:
            for i, r in rows[k - d]:
                out[i] += c * r
    return out


def _canonical(n, num, den):
    """The CycNumber num/den of Q(zeta_n) for integer num and den > 0."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return CycNumber(n, tuple(num), den)


def _rational(p, q):
    """The CycNumber p/q of Q(zeta_1) for integers p and q > 0."""
    g = gcd(p, q) if q != 1 else 1
    return CycNumber(1, (p,), q) if g == 1 else CycNumber(1, (p // g,), q // g)


class CycNumber:
    """An element of Q(zeta_n) in canonical (reduced) form.

    The value is sum_k num[k] zeta_n^k / den over the basis 1, zeta_n, ...,
    zeta_n^(d-1), d = deg Phi_n: integer numerators over one positive common
    denominator, in lowest terms (gcd(den, *num) == 1, so zero has den 1).
    Instances are never mutated.
    """

    __slots__ = ("n", "num", "den", "_hash")

    def __init__(self, n, num, den=1):
        self.n = n
        self.num = num
        self.den = den
        self._hash = None

    @property
    def coeffs(self):
        """The canonical coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rational(r, n=1):
        if not isinstance(r, int):
            r = Fraction(r)
        num = [0] * (len(cyclotomic_poly(n)) - 1)
        num[0] = r.numerator
        return CycNumber(n, tuple(num), r.denominator)

    @staticmethod
    def from_powers(n, powers):
        """Build sum of coeff * zeta_n^k from {k: coeff}, reducing mod Phi_n."""
        terms = [(k % n, Fraction(c)) for k, c in powers.items() if c]
        den = lcm(*(c.denominator for _, c in terms))
        poly = [0] * n
        for k, c in terms:
            poly[k] += c.numerator * (den // c.denominator)
        return _canonical(n, _reduce(n, poly), den)

    def lift(self, m):
        """Embed into Q(zeta_m); requires n | m (zeta_n maps to zeta_m^(m/n))."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"cannot embed Q(zeta_{self.n}) into Q(zeta_{m})")
        poly = [0] * m
        poly[:: m // self.n] = self.num + (0,) * (self.n - len(self.num))
        return _canonical(m, _reduce(m, poly), self.den)

    # -- coercion ---------------------------------------------------------
    # Operands of one field skip _pair; those of Q(zeta_1) also skip the
    # coefficient lists. Every other operand goes through _pair.

    def _pair(self, other):
        if other.__class__ is CycNumber and other.n == self.n:
            return self, other
        if isinstance(other, (int, Fraction)):
            other = CycNumber.from_rational(other, self.n)
        elif not isinstance(other, CycNumber):
            return None, None
        if self.n == other.n:
            return self, other
        m = self.n * other.n // gcd(self.n, other.n)
        return self.lift(m), other.lift(m)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is CycNumber and other.n == self.n:
            a, b = self, other
            if a.n == 1:
                p, q, r, s = a.num[0], a.den, b.num[0], b.den
                return _rational(p + r, q) if q == s else _rational(p * s + r * q, q * s)
        else:
            a, b = self._pair(other)
            if a is None:
                return NotImplemented
        if a.den == b.den:
            return _canonical(a.n, [x + y for x, y in zip(a.num, b.num)], a.den)
        da, db = a.den, b.den
        return _canonical(a.n, [x * db + y * da for x, y in zip(a.num, b.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        if self.n == 1:
            return CycNumber(1, (-self.num[0],), self.den)
        return CycNumber(self.n, tuple([-x for x in self.num]), self.den)

    def __sub__(self, other):
        if other.__class__ is CycNumber and other.n == self.n:
            a, b = self, other
            if a.n == 1:
                p, q, r, s = a.num[0], a.den, b.num[0], b.den
                return _rational(p - r, q) if q == s else _rational(p * s - r * q, q * s)
        else:
            a, b = self._pair(other)
            if a is None:
                return NotImplemented
        if a.den == b.den:
            return _canonical(a.n, [x - y for x, y in zip(a.num, b.num)], a.den)
        da, db = a.den, b.den
        return _canonical(a.n, [x * db - y * da for x, y in zip(a.num, b.num)], da * db)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, p, q):
        """self * p/q for p/q in lowest terms, q > 0; a factor of exactly 1 returns self."""
        if p == q:
            return self
        if self.n == 1:
            return _rational(self.num[0] * p, self.den * q)
        return _canonical(self.n, [x * p for x in self.num], self.den * q)

    def __mul__(self, other):
        if other.__class__ is not CycNumber:
            if isinstance(other, int):
                return self._scaled(other, 1)
            if isinstance(other, Fraction):
                return self._scaled(other.numerator, other.denominator)
            return NotImplemented
        # a factor from Q(zeta_1) scales the other one in its own field;
        # when both are rational, a left factor of 1 still returns other
        if self.n == 1 and (other.n != 1 or self.num[0] == self.den):
            return other._scaled(self.num[0], self.den)
        if other.n == 1:
            return self._scaled(other.num[0], other.den)
        a, b = (self, other) if other.n == self.n else self._pair(other)
        # integer convolution, then reduction mod Phi_n
        y = b.num
        prod = [0] * (2 * len(y) - 1)
        for i, x in enumerate(a.num):
            if x:
                for k, c in enumerate(y, i):
                    if c:
                        prod[k] += x * c
        return _canonical(a.n, _reduce(a.n, prod), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        n, p = self.n, self.num[0]
        if self.is_rational():
            return CycNumber(n, (self.den if p > 0 else -self.den,) + self.num[1:], abs(p))
        # x^-1 = N(x)^-1 * prod_{k != 1} sigma_k(x) over Gal(Q(zeta_n)/Q),
        # where sigma_k sends zeta_n to zeta_n^k for k coprime to n
        rest = None
        for k in range(2, n):
            if gcd(k, n) == 1:
                poly = [0] * n
                for j, c in enumerate(self.num):
                    poly[j * k % n] += c
                conj = _canonical(n, _reduce(n, poly), self.den)
                rest = conj if rest is None else rest * conj
        norm = self * rest
        if not norm.is_rational() or norm.is_zero():
            raise RuntimeError("Galois norm must be a nonzero rational")
        p = norm.num[0]
        return rest._scaled(norm.den if p > 0 else -norm.den, abs(p))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * Fraction(1, Fraction(other))
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return CycNumber.from_rational(other, self.n) / self

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return CycNumber.from_rational(1, self.n)
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

    def is_zero(self):
        return not self.num[0] if self.n == 1 else not any(self.num)

    def is_one(self):
        return self.den == 1 and self.num[0] == 1 and self.is_rational()

    def is_rational(self):
        return not any(self.num[1:])

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if other.__class__ is CycNumber and other.n == self.n:
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return (
                self.num[0] == other.numerator and self.den == other.denominator
                and self.is_rational()
            )
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b = self._pair(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        # The normalised trace Tr(x) / [Q(zeta_n):Q] does not change under
        # lift, and equals x itself on a rational x. zeta_n^k has order
        # m = n / gcd(n, k); its conjugates are the roots of Phi_m, whose sum
        # mu(m) is minus the coefficient below the leading one, and the trace
        # over Q(zeta_n) counts them d / deg Phi_m times, d = deg Phi_n.
        if self._hash is None:
            n, num = self.n, self.num
            d = len(num)
            trace = 0
            for k, c in enumerate(num):
                if c:
                    phi = cyclotomic_poly(n // gcd(n, k))
                    trace -= phi[-2] * c * (d // (len(phi) - 1))
            self._hash = hash(Fraction(trace, d * self.den))
        return self._hash

    def __repr__(self):
        return f"CycNumber({format_cyc(self)!r})"


# -- public helpers -------------------------------------------------------

def zeta(n, exponent=1):
    """zeta_n^exponent in canonical form."""
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    return CycNumber.from_powers(n, {exponent % n: 1})


def one(n=1):
    return CycNumber.from_rational(1, n)


def rational(r, n=1):
    return CycNumber.from_rational(r, n)


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
    if z.is_zero():
        raise ZeroDivisionError("order of zero is undefined")
    bound = z.n if z.n % 2 == 0 else 2 * z.n
    for cand in sorted(d for d in range(1, bound + 1) if bound % d == 0):
        if (z ** cand).is_one():
            return cand
    return None


# -- text form ------------------------------------------------------------

def format_cyc(z):
    """Canonical text form, e.g. '1/2 + 3*zeta12^2 - zeta12^5'."""
    terms = []
    for k, c in enumerate(z.coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append((c, str(abs(c))))
            continue
        base = f"zeta{z.n}" if k == 1 else f"zeta{z.n}^{k}"
        mag = abs(c)
        terms.append((c, base if mag == 1 else f"{mag}*{base}"))
    if not terms:
        return "0"
    out = []
    for i, (c, text) in enumerate(terms):
        if i == 0:
            out.append(("-" if c < 0 else "") + text)
        else:
            out.append(("- " if c < 0 else "+ ") + text)
    return " ".join(out)


def parse_cyc(text, ambient_order=None):
    """Parse the text form produced by format_cyc, plus bare rationals.

    Accepts sums of terms 'r', 'r*zeta{n}^{k}', 'zeta{n}^{k}', 'zeta{n}',
    each optionally signed. If ambient_order is given the result is lifted
    into Q(zeta_ambient_order).
    """
    text = text.strip()
    if not text:
        raise ValueError("empty cyclotomic literal")
    tokens = text.replace("- ", "-").replace("+ ", "+").split()
    total = None
    for tok in tokens:
        sign = 1
        if tok.startswith("+"):
            tok = tok[1:]
        elif tok.startswith("-"):
            sign, tok = -1, tok[1:]
        if "zeta" in tok:
            if "*" in tok:
                coeff_txt, zpart = tok.split("*", 1)
                coeff = Fraction(coeff_txt)
            else:
                coeff, zpart = Fraction(1), tok
            body = zpart[4:]
            if "^" in body:
                n_txt, k_txt = body.split("^", 1)
                n, k = int(n_txt), int(k_txt)
            else:
                n, k = int(body), 1
            term = CycNumber.from_powers(n, {k: sign * coeff})
        else:
            term = CycNumber.from_rational(sign * Fraction(tok))
        total = term if total is None else total + term
    if ambient_order is not None:
        total = total.lift(ambient_order)
    return total
