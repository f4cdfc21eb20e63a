"""Exact cyclotomic arithmetic."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicholsalg.cyclo import (
    CycNumber,
    cyc_order,
    cyclotomic_poly,
    format_cyc,
    inverse,
    parse_cyc,
    zeta,
)


def in_field(n, r):
    """The int or Fraction r as a CycNumber of Q(zeta_n)."""
    return CycNumber.from_powers(n, {0: r})


def test_field_identities():
    z = zeta(12)
    assert not (z ** 12 - 1)
    assert z ** 6 - 1
    assert not (z * inverse(z) - 1)
    a = Fraction(3, 7) + zeta(5, 2)
    assert not (a * inverse(a) - 1)


def test_minimal_polynomial_collapses():
    # zeta6 satisfies x^2 - x + 1 = 0
    z = zeta(6)
    assert not (z * z - z + 1)
    # zeta4^2 = -1
    assert not (zeta(4) ** 2 + 1)


def test_orders():
    assert cyc_order(in_field(1, 1)) == 1
    assert cyc_order(in_field(1, -1)) == 2
    assert cyc_order(zeta(3)) == 3
    assert cyc_order(zeta(12, 4)) == 3
    assert cyc_order(in_field(1, 2)) is None
    assert cyc_order(zeta(4)) == 4
    assert not cyc_order(zeta(4) ** 2) == 4


def test_mixed_order_arithmetic():
    # zeta3 * zeta4 is a primitive 12th root, once both are lifted into Q(zeta_12)
    p = zeta(3).lift(12) * zeta(4).lift(12)
    assert cyc_order(p) == 12
    assert p == zeta(12, 7)
    # two conductors never meet implicitly: the error names both
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b,
               lambda a, b: a / b, lambda a, b: a == b):
        with pytest.raises(ValueError, match=r"zeta_3.*zeta_4"):
            op(zeta(3), zeta(4))


def test_parse_format_fixed_points():
    for text in ("1", "-1", "zeta3", "1/2 + 3*zeta12^2 - zeta12^5"):
        v = parse_cyc(text)
        assert parse_cyc(format_cyc(v)) == v


def test_parse_builds_every_term_in_one_field():
    assert parse_cyc("zeta3 + zeta4") == zeta(12, 4) + zeta(12, 3)
    assert parse_cyc("-1 + zeta4", ambient_order=12).n == 12
    assert parse_cyc("zeta6^2", ambient_order=12) == zeta(12, 4)
    with pytest.raises(ValueError, match=r"zeta_5.*zeta_3"):
        parse_cyc("zeta5", ambient_order=3)
    # a zeta order below 1 names the term, with or without an ambient order
    for text in ("zeta0", "zeta-6", "1 + 2*zeta-6^5"):
        for ambient in (None, 6):
            with pytest.raises(ValueError, match=r"order must be >= 1 in '.*zeta(0|-6)"):
                parse_cyc(text, ambient_order=ambient)


def test_format_of_a_rational_matches_its_cycnumber():
    for r in (0, 1, -1, 7, Fraction(1, 2), Fraction(-3, 4)):
        for n in (1, 4, 12):
            assert format_cyc(r) == format_cyc(in_field(n, r))


coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@given(st.integers(1, 12), st.lists(coeff, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_format_parse_roundtrip(n, cs):
    v = sum((c * zeta(n, k) for k, c in enumerate(cs)), 0)
    assert parse_cyc(format_cyc(v), ambient_order=v.n) == v


@given(st.integers(1, 10), st.integers(0, 9), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_root_multiplication(n, a, b):
    assert zeta(n, a) * zeta(n, b) == zeta(n, a + b)


def test_unit_factor_returns_the_other_operand():
    for x in (zeta(3) + Fraction(2, 5), in_field(3, Fraction(-3, 4))):
        assert x * 1 is x
        assert 1 * x is x


cyc_orders = st.sampled_from([3, 4, 5, 6, 8, 12])
rationals = st.one_of(st.sampled_from([0, 1, -1]), coeff)


@given(cyc_orders, st.lists(coeff, min_size=1, max_size=12), rationals)
@settings(max_examples=60, deadline=None)
def test_rational_factor_matches_lifted_product(n, cs, r):
    a = sum((c * zeta(n, k) for k, c in enumerate(cs)), in_field(n, 0))
    lifted = a * in_field(n, r)
    for prod in (a * r, r * a):
        assert (prod.n, prod.coeffs) == (lifted.n, lifted.coeffs)


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        in_field(3, 0).inverse()


def test_inverse_stays_in_the_field_of_its_argument():
    # Q is int and Fraction: a unit int is its own inverse, never a float
    for x, want, kind in (
        (1, 1, int),
        (-1, -1, int),
        (2, Fraction(1, 2), Fraction),
        (Fraction(-3, 4), Fraction(-4, 3), Fraction),
        (zeta(3), zeta(3, 2), CycNumber),
    ):
        inv = inverse(x)
        assert type(inv) is kind and inv == want and x * inv == 1, x
    for zero in (0, Fraction(0), in_field(3, 0)):
        with pytest.raises(ZeroDivisionError):
            inverse(zero)


def test_equal_values_hash_equal_across_conductors():
    """Values from several conductors, lifted into one field, compare and
    hash alike; a rational value hashes as the int or Fraction it equals."""
    same = [zeta(3).lift(12), (zeta(6) ** 2).lift(12), parse_cyc("zeta12^4"),
            parse_cyc("zeta3", ambient_order=12)]
    assert all(v == same[0] for v in same)
    assert len({hash(v) for v in same}) == 1
    assert len(set(same)) == 1
    for r in (5, -1, 0, Fraction(-3, 4)):
        for n in (1, 9, 12):
            assert hash(in_field(n, r)) == hash(r) and in_field(n, r) == r
    # a category label mixes the int unit with characters of the field
    assert {(1, zeta(6)): "label"}[(in_field(6, 1), zeta(6))] == "label"


def test_cyclotomic_poly_degrees_and_phi_105():
    for n in range(1, 121):
        phi = cyclotomic_poly(n)
        assert phi[-1] == 1
        assert len(phi) - 1 == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1), n
    phi = cyclotomic_poly(105)
    assert len(phi) - 1 == 48
    assert [k for k, c in enumerate(phi) if c not in (-1, 0, 1)] == [7, 41]
    assert phi[7] == phi[41] == -2
    assert all(set(cyclotomic_poly(n)) <= {-1, 0, 1} for n in range(1, 105))


# -- the integer kernel against a naive Fraction reference ------------------

def ref_reduce(n, poly):
    """Fraction polynomial (low first) mod Phi_n, as deg Phi_n coefficients."""
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * d
    for k in range(len(poly) - 1, d - 1, -1):
        c = poly[k]
        if c:
            for j, p in enumerate(phi):
                poly[k - d + j] -= c * p
    return poly[:d]


def ref_lift(n, poly, m):
    """sum poly[k] zeta_n^k, written in Q(zeta_m)."""
    out = [Fraction(0)] * (m * len(poly))
    for k, c in enumerate(poly):
        out[k * (m // n)] += c
    return ref_reduce(m, out)


def ref_mul(n, a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_reduce(n, out)


def assert_canonical(x, n, ref):
    assert x.n == n
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den >= 1 and gcd(x.den, *x.num) == 1
    if not any(ref):
        assert x.den == 1 and not x
    assert list(x.coeffs) == ref


kernel_orders = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24])
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))


@st.composite
def elements(draw, n=None):
    """(n, polynomial in zeta_n) with exponents up to n - 1, unreduced."""
    if n is None:
        n = draw(kernel_orders)
    return n, draw(st.lists(small_fractions, min_size=1, max_size=n))


@st.composite
def element_pairs(draw):
    """Two elements: of any two conductors (lifted to their lcm before they
    meet), of one conductor, or both in Q(zeta_1) (where denominators other
    than 1 are common), a third each."""
    kind = draw(st.sampled_from(["mixed", "same", "rational"]))
    if kind == "mixed":
        return draw(elements()), draw(elements())
    n = 1 if kind == "rational" else draw(kernel_orders)
    return draw(elements(n)), draw(elements(n))


@given(element_pairs())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_fraction_reference(pair):
    (na, pa), (nb, pb) = pair
    a = CycNumber.from_powers(na, dict(enumerate(pa)))
    b = CycNumber.from_powers(nb, dict(enumerate(pb)))
    own = ref_reduce(na, pa)
    assert_canonical(a, na, own)
    m = lcm(na, nb)
    ra, rb = ref_lift(na, pa, m), ref_lift(nb, pb, m)
    if na != nb:
        for op in (lambda x, y: x + y, lambda x, y: x * y, lambda x, y: x == y):
            with pytest.raises(ValueError):
                op(a, b)
    la, lb = a.lift(m), b.lift(m)
    assert_canonical(la, m, ra)
    assert_canonical(la + lb, m, [x + y for x, y in zip(ra, rb)])
    assert_canonical(la - lb, m, [x - y for x, y in zip(ra, rb)])
    assert_canonical(la * lb, m, ref_mul(m, ra, rb))
    assert_canonical(-a, na, [-x for x in own])
    assert (la == lb) == (ra == rb) and (la != lb) == (ra != rb)
    assert (not a) == (not any(own))
    assert (a == 1) == (own == [1] + [0] * (len(own) - 1))
    # a rational value hashes as its Fraction, so alike in every field
    if not any(own[1:]):
        assert hash(a) == hash(own[0]) == hash(la)
    same = CycNumber.from_powers(m, dict(enumerate(ra)))
    assert same == la and hash(same) == hash(la)
    if b:
        inv = b.inverse()
        assert_canonical(inv, nb, list(inv.coeffs))
        one_ref = [Fraction(1)] + [Fraction(0)] * (len(inv.num) - 1)
        assert ref_mul(nb, ref_reduce(nb, pb), list(inv.coeffs)) == one_ref
    # powers: a^0 .. a^6 by repeated products, a^-1 and a^-2 as their inverses
    one_ref = [Fraction(1)] + [Fraction(0)] * (len(own) - 1)
    power = one_ref
    for k in range(7):
        assert_canonical(a ** k, na, power)
        if 1 <= k <= 2 and a:
            inv = a ** -k
            assert_canonical(inv, na, list(inv.coeffs))
            assert ref_mul(na, list(inv.coeffs), power) == one_ref
        power = ref_mul(na, power, own)


def test_kernel_on_every_conductor():
    """Every product kernel of n in 1..60, and of n = 105, whose Phi has
    coefficients -2, against the Fraction reference: zero, one, and seeded
    operands over denominator 1 and above 1, in every pair."""
    rng = random.Random(33)
    for n in [*range(1, 61), 105]:
        d = len(cyclotomic_poly(n)) - 1
        polys = [[0] * d, [1] + [0] * (d - 1)]
        for den in (1, 6, rng.randint(2, 30)):
            polys.append([Fraction(rng.randint(-30, 30), den) for _ in range(d)])
        xs = [(CycNumber.from_powers(n, dict(enumerate(p))), p) for p in polys]
        for (a, pa), (b, pb) in combinations_with_replacement(xs, 2):
            assert_canonical(a * b, n, ref_mul(n, pa, pb))


@given(elements())
@settings(max_examples=60, deadline=None)
def test_rational_round_trip_keeps_value_and_hash(xa):
    n, p = xa
    x = CycNumber.from_powers(n, dict(enumerate(p)))
    y = (x / 3) * 3
    assert y == x and (y.num, y.den) == (x.num, x.den)
    assert hash(y) == hash(x)
    assert_canonical(x / 3, n, [c / 3 for c in ref_reduce(n, p)])


@given(elements(), st.integers(-9, 9))
@settings(max_examples=60, deadline=None)
def test_sum_fast_paths_keep_the_canonical_form(xa, k):
    """An int joins the constant numerator, and a sum of two denominator-1
    elements skips the gcd: both stay canonical, a cancelling sum is the
    canonical zero, and the sum commutes with an int."""
    n, p = xa
    a = CycNumber.from_powers(n, dict(enumerate(p)))
    own = ref_reduce(n, p)
    shifted = [own[0] + k] + own[1:]
    assert_canonical(a + k, n, shifted)
    assert_canonical(k + a, n, shifted)
    assert 1 + a == a + 1 and hash(1 + a) == hash(a + 1)
    zero = [Fraction(0)] * len(own)
    assert_canonical(a + (-a), n, zero)
    assert_canonical(in_field(n, k) + (-k), n, zero)
    whole = a * a.den  # denominator 1
    assert_canonical(whole + (-whole), n, zero)
    assert_canonical(whole + whole * k, n, [c * a.den * (1 + k) for c in own])
