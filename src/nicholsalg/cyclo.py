"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are represented by their canonical form: a rational-coefficient
polynomial in zeta_n reduced modulo the n-th cyclotomic polynomial, so
equality is coefficient equality and values are safe to hash.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd


def _poly_divmod(num, den):
    """Quotient/remainder of integer-coefficient polynomials (lists, low first).

    Assumes the division is exact enough for cyclotomic use: den is monic.
    """
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * max(len(num) - deg_d, 0)
    for i in range(len(num) - deg_d - 1, -1, -1):
        c = num[i + deg_d]
        if c == 0:
            continue
        quot[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Coefficients of Phi_n, lowest degree first, as a tuple of ints."""
    if n == 1:
        return (-1, 1)
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_poly(d))
            if rem != [0]:
                raise RuntimeError("cyclotomic division must be exact")
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_table(n):
    """Rows k = deg Phi_n .. n-1: zeta^k expressed in the canonical basis."""
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    rows = {}
    # zeta^d = -(phi_0 + phi_1 zeta + ... + phi_{d-1} zeta^{d-1})
    cur = [Fraction(-c) for c in phi[:d]]
    for k in range(d, n):
        rows[k] = tuple(cur)
        # multiply by zeta: shift, then fold the overflow back in
        top = cur[-1]
        cur = [Fraction(0)] + cur[:-1]
        if top:
            for i in range(d):
                cur[i] -= top * phi[i]
    return rows


class CycNumber:
    """An element of Q(zeta_n) in canonical (reduced) form."""

    __slots__ = ("n", "coeffs", "_hash")

    def __init__(self, n, coeffs):
        self.n = n
        self.coeffs = coeffs
        self._hash = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero(n=1):
        d = len(cyclotomic_poly(n)) - 1
        return CycNumber(n, (Fraction(0),) * d)

    @staticmethod
    def from_rational(r, n=1):
        d = len(cyclotomic_poly(n)) - 1
        coeffs = [Fraction(0)] * d
        coeffs[0] = Fraction(r)
        return CycNumber(n, tuple(coeffs))

    @staticmethod
    def from_powers(n, powers):
        """Build sum of coeff * zeta_n^k from {k: coeff}, reducing mod Phi_n."""
        d = len(cyclotomic_poly(n)) - 1
        table = _reduction_table(n)
        out = [Fraction(0)] * d
        for k, coeff in powers.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            k %= n
            if k < d:
                out[k] += coeff
            else:
                row = table[k]
                for i in range(d):
                    out[i] += coeff * row[i]
        return CycNumber(n, tuple(out))

    def lift(self, m):
        """Embed into Q(zeta_m); requires n | m (zeta_n maps to zeta_m^(m/n))."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"cannot embed Q(zeta_{self.n}) into Q(zeta_{m})")
        step = m // self.n
        return CycNumber.from_powers(
            m, {k * step: c for k, c in enumerate(self.coeffs) if c}
        )

    # -- coercion ---------------------------------------------------------

    def _pair(self, other):
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
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return CycNumber(a.n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.n, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return CycNumber(a.n, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, r):
        """self * r for a rational r; a factor of exactly 1 returns self."""
        if r == 1:
            return self
        return CycNumber(self.n, tuple([x * r for x in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(other))
        if isinstance(other, CycNumber):
            # a factor from Q(zeta_1) scales the other one in its own field;
            # when both are rational, a left factor of 1 still returns other
            if self.n == 1 and (other.n != 1 or self.coeffs[0] == 1):
                return other._scaled(self.coeffs[0])
            if other.n == 1:
                return self._scaled(other.coeffs[0])
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        n = a.n
        d = len(a.coeffs)
        # convolution with exponents folded mod n (zeta^n = 1), then mod Phi_n
        prod = [Fraction(0)] * n
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    prod[(i + j) % n] += x * y
        table = _reduction_table(n)
        out = prod[:d]
        for k in range(d, n):
            c = prod[k]
            if c:
                row = table[k]
                for i in range(d):
                    out[i] += c * row[i]
        return CycNumber(n, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        if self.n == 1:
            return CycNumber(1, (1 / self.coeffs[0],))
        # extended Euclid in Q[x] against Phi_n
        phi = [Fraction(c) for c in cyclotomic_poly(self.n)]
        a = list(self.coeffs)
        while len(a) > 1 and a[-1] == 0:
            a.pop()
        # invariants: s * self = r (mod Phi_n)
        r0, s0 = phi, [Fraction(0)]
        r1, s1 = a, [Fraction(1)]
        while True:
            if len(r1) == 1:
                inv = [c / r1[0] for c in s1]
                break
            q, rem = _frac_poly_divmod(r0, r1)
            while len(rem) > 1 and rem[-1] == 0:
                rem.pop()
            s2 = _frac_poly_sub(s0, _frac_poly_mul(q, s1))
            r0, s0, r1, s1 = r1, s1, rem, s2
        return CycNumber.from_powers(self.n, {k: c for k, c in enumerate(inv) if c})

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
        result = CycNumber.from_rational(1, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycNumber):
            return NotImplemented
        if self.n == other.n:
            return self.coeffs == other.coeffs
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self._hash is None:
            if self.is_rational():
                self._hash = hash(self.coeffs[0])
            else:
                self._hash = hash((self.n, self.coeffs))
        return self._hash

    def __repr__(self):
        return f"CycNumber({format_cyc(self)!r})"


def _frac_poly_divmod(num, den):
    num = list(num)
    deg_d = len(den) - 1
    quot = [Fraction(0)] * max(len(num) - deg_d, 1)
    lead = den[-1]
    for i in range(len(num) - deg_d - 1, -1, -1):
        c = num[i + deg_d] / lead
        if c == 0:
            continue
        quot[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    return quot, num[:deg_d] if deg_d else [Fraction(0)]


def _frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _frac_poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


# -- public helpers -------------------------------------------------------

def cyc_make(n, exponent=1):
    """zeta_n^exponent in canonical form."""
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    return CycNumber.from_powers(n, {exponent % n: 1})


def zeta(n, exponent=1):
    return cyc_make(n, exponent)


def one(n=1):
    return CycNumber.from_rational(1, n)


def zero(n=1):
    return CycNumber.zero(n)


def rational(r, n=1):
    return CycNumber.from_rational(r, n)


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


def is_primitive_root(z, order):
    """Membership in the set of primitive roots of unity of the given order."""
    return cyc_order(z) == order


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
