"""Reflection groupoid walks and root enumeration."""

import pytest

from nicholsalg import weyl
from nicholsalg.braided import build_diagonal
from nicholsalg.cyclo import one, rational, zeta
from nicholsalg.weyl import (
    bichar_eval,
    cartan_roots,
    enumerate_roots,
    reflect_qmatrix,
)


def a2_cartan():
    return build_diagonal([[zeta(3), zeta(3, 2)], [one(), zeta(3)]])


def test_a2_positive_roots():
    rs = enumerate_roots(a2_cartan())
    assert rs.finite
    assert rs.positive_roots == [(0, 1), (1, 0), (1, 1)]
    assert rs.cartan_roots == [(0, 1), (1, 0), (1, 1)]


def test_a2_super_roots():
    V = build_diagonal([[rational(-1), one()], [zeta(3, 2), zeta(3)]])
    rs = enumerate_roots(V)
    assert rs.finite
    assert rs.positive_roots == [(0, 1), (1, 0), (1, 1)]


def test_b2_roots():
    V = build_diagonal([[zeta(3), -zeta(3)], [one(), rational(-1)]])
    rs = enumerate_roots(V)
    assert rs.finite
    assert rs.positive_roots == [(0, 1), (1, 0), (1, 1), (2, 1)]


def test_reflection_involution():
    V = a2_cartan()
    q2 = reflect_qmatrix(V, 0)
    W = build_diagonal(q2)
    assert reflect_qmatrix(W, 0) == V.qmatrix


def test_reflection_preserves_diagram_class():
    # reflecting at a Cartan vertex of a Cartan matrix keeps q_ii values
    V = a2_cartan()
    q2 = reflect_qmatrix(V, 1)
    assert tuple(q2[i][i] for i in range(2)) == (zeta(3), zeta(3))


def test_infinite_type_detected():
    # affine-type Cartan matrix [[2,-2],[-2,2]]: the walk never closes
    V = build_diagonal([[zeta(3), zeta(3)], [one(), zeta(3)]])
    rs = enumerate_roots(V, object_cap=1)
    assert not rs.finite


def test_bichar_eval_additivity():
    V = a2_cartan()
    a, b, c = (1, 0), (0, 1), (1, 1)
    lhs = bichar_eval(V, a, c) * bichar_eval(V, b, c)
    assert lhs == bichar_eval(V, (1, 1), c)


def test_cartan_roots_raises_when_not_finite():
    V = build_diagonal([[zeta(3), zeta(3)], [one(), zeta(3)]])
    with pytest.raises(ValueError):
        cartan_roots(V, object_cap=1)


def test_each_object_reflected_once(monkeypatch):
    calls = []

    def counting(V, i, **kwargs):
        calls.append((V.qmatrix, i))
        return reflect_qmatrix(V, i, **kwargs)

    monkeypatch.setattr(weyl, "reflect_qmatrix", counting)
    rs = enumerate_roots(a2_cartan())
    assert rs.finite
    assert len(calls) == len(set(calls))
    assert len(calls) <= 2 * rs.objects


def test_undefined_cartan_integer_is_not_finite():
    # q_11 = 2 is no root of unity: c[0][1] is undefined at any cap
    V = build_diagonal([[rational(2), rational(3)], [one(), rational(-1)]])
    assert not enumerate_roots(V).finite
