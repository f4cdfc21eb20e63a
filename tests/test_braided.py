"""Braided spaces, the braid equation, and Dynkin-diagram data."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicholsalg.braided import (
    build_diagonal,
    cartan_integer,
    check_braid_equation,
    dynkin_diagram,
    is_cartan_vertex,
)
from nicholsalg.cyclo import one, rational, zeta
from nicholsalg.tensoralg import braiding_operator, monomial
from nicholsalg.weyl import cartan_matrix


def test_build_rejects_zero_entry():
    with pytest.raises(ValueError):
        build_diagonal([[rational(0)]])


def test_diagonal_braiding_action():
    V = build_diagonal([[rational(2), zeta(3)], [one(), rational(-1)]])
    el = monomial((0, 1))
    out = braiding_operator(V, el, 0)
    assert out == {(1, 0): zeta(3)}


def test_braiding_positions():
    # position is 0-based: pos acts on slots (pos, pos+1)
    V = build_diagonal([[rational(-1), zeta(5)], [one(), rational(-1)]])
    el = monomial((0, 0, 1))
    out = braiding_operator(V, el, 1)
    assert out == {(0, 1, 0): zeta(5)}
    with pytest.raises(ValueError):
        braiding_operator(V, el, 2)


small_roots = st.sampled_from(
    [one(), rational(-1), zeta(3), zeta(4), zeta(6), zeta(5, 2)]
)


@given(st.lists(small_roots, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_diagonal_always_braided(vals):
    q = [[vals[0], vals[1]], [vals[2], vals[3]]]
    ok, bad = check_braid_equation(build_diagonal(q))
    assert ok, bad


def test_cartan_integers():
    # qtilde = 1 forces 0
    V = build_diagonal([[zeta(3), zeta(5)], [zeta(5, 4), zeta(3)]])
    assert cartan_integer(V, 0, 1) == 0
    # q_ii = -1 with an edge gives -1
    V = build_diagonal([[rational(-1), zeta(3)], [one(), rational(-1)]])
    assert cartan_integer(V, 0, 1) == -1
    # non-root-of-unity diagonal: scan finds 1 - 2*(1/2) = 0
    from fractions import Fraction

    V = build_diagonal(
        [[rational(2), rational(Fraction(1, 2))], [one(), rational(2)]]
    )
    assert cartan_integer(V, 0, 1) == -1


def test_cartan_integer_zero_iff_no_edge():
    for qt in (one(), zeta(3)):
        V = build_diagonal([[zeta(3), qt], [one(), zeta(3)]])
        c = cartan_integer(V, 0, 1)
        assert (c == 0) == qt.is_one()


def test_dynkin_diagram():
    V = build_diagonal([[rational(-1), zeta(3)], [one(), rational(-1)]])
    d = dynkin_diagram(V)
    assert d.vertices == (rational(-1), rational(-1))
    assert d.edges == {(0, 1): zeta(3)}
    # inverse off-diagonal entries: no edge
    V2 = build_diagonal([[zeta(3), zeta(5)], [zeta(5, 4), zeta(3)]])
    assert dynkin_diagram(V2).edges == {}


def test_cartan_vertices_a2():
    V = build_diagonal([[zeta(3), zeta(3, 2)], [one(), zeta(3)]])
    cmat = cartan_matrix(V)
    assert is_cartan_vertex(V, 0, cmat[0]) and is_cartan_vertex(V, 1, cmat[1])
    W = build_diagonal([[rational(-1), zeta(3)], [one(), rational(-1)]])
    assert not is_cartan_vertex(W, 0, cartan_matrix(W)[0])
