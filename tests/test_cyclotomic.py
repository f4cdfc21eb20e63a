"""Exact cyclotomic arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicholsalg.cyclo import (
    cyc_order,
    format_cyc,
    is_primitive_root,
    one,
    parse_cyc,
    rational,
    zeta,
)


def test_field_identities():
    z = zeta(12)
    assert (z ** 12 - one()).is_zero()
    assert not (z ** 6 - one()).is_zero()
    assert (z * z.inverse() - one()).is_zero()
    a = rational(Fraction(3, 7)) + zeta(5, 2)
    assert ((a * a.inverse()) - one()).is_zero()


def test_minimal_polynomial_collapses():
    # zeta6 satisfies x^2 - x + 1 = 0
    z = zeta(6)
    assert (z * z - z + one()).is_zero()
    # zeta4^2 = -1
    assert (zeta(4) ** 2 + one()).is_zero()


def test_orders():
    assert cyc_order(one()) == 1
    assert cyc_order(rational(-1)) == 2
    assert cyc_order(zeta(3)) == 3
    assert cyc_order(zeta(12, 4)) == 3
    assert cyc_order(rational(2)) is None
    assert is_primitive_root(zeta(4), 4)
    assert not is_primitive_root(zeta(4) ** 2, 4)


def test_mixed_order_arithmetic():
    # zeta3 * zeta4 is a primitive 12th root
    p = zeta(3) * zeta(4)
    assert cyc_order(p) == 12


def test_parse_format_fixed_points():
    for text in ("1", "-1", "zeta3", "1/2 + 3*zeta12^2 - zeta12^5"):
        v = parse_cyc(text)
        assert parse_cyc(format_cyc(v)) == v


coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@given(st.integers(1, 12), st.lists(coeff, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_format_parse_roundtrip(n, cs):
    v = sum(
        (rational(c) * zeta(n, k) for k, c in enumerate(cs)),
        rational(0),
    )
    assert parse_cyc(format_cyc(v)) == v


@given(st.integers(1, 10), st.integers(0, 9), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_root_multiplication(n, a, b):
    assert zeta(n, a) * zeta(n, b) == zeta(n, a + b)


def test_unit_factor_returns_the_other_operand():
    for x in (zeta(3) + rational(Fraction(2, 5)), rational(Fraction(-3, 4))):
        assert x * one() is x
        assert one() * x is x


cyc_orders = st.sampled_from([3, 4, 5, 6, 8, 12])
rationals = st.one_of(st.sampled_from([0, 1, -1]), coeff)


@given(cyc_orders, st.lists(coeff, min_size=1, max_size=12), rationals)
@settings(max_examples=60, deadline=None)
def test_rational_factor_matches_lifted_product(n, cs, r):
    a = sum((rational(c) * zeta(n, k) for k, c in enumerate(cs)), rational(0, n))
    lifted = a * rational(r).lift(n)
    for prod in (a * rational(r), rational(r) * a):
        assert (prod.n, prod.coeffs) == (lifted.n, lifted.coeffs)


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        rational(0).inverse()
