"""Braided spaces, the braid equation, and Dynkin-diagram data."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicholsalg.braided import (
    apply_braiding_word,
    bichar,
    build_diagonal,
    cartan_integer,
    check_braid_equation,
    dynkin_diagram,
    is_cartan_vertex,
)
from nicholsalg.cyclo import zeta
from nicholsalg.fk import build_fk_space
from nicholsalg.weyl import cartan_matrix


def test_build_rejects_zero_entry():
    with pytest.raises(ValueError):
        build_diagonal([[0]])


def test_build_lifts_every_entry_into_one_field():
    V = build_diagonal([[zeta(3), zeta(4)], [-1, Fraction(1, 2)]])
    one_12 = zeta(1).lift(12)
    explicit = [zeta(3).lift(12), zeta(4).lift(12), -one_12, one_12 * Fraction(1, 2)]
    for q, want in zip(V.qmatrix[0] + V.qmatrix[1], explicit):
        assert (q.n, q.num, q.den) == (want.n, want.num, want.den) == (12, want.num, want.den)
    assert build_diagonal([[2, Fraction(1, 3)], [-1, 1]]).qmatrix[0][1].n == 1


def test_diagonal_braiding_action():
    V = build_diagonal([[2, zeta(3)], [1, -1]])
    assert apply_braiding_word(V, (0, 1), 0) == (zeta(3), (1, 0))


def test_braiding_positions():
    # position is 0-based: pos acts on slots (pos, pos+1)
    V = build_diagonal([[-1, zeta(5)], [1, -1]])
    assert apply_braiding_word(V, (0, 0, 1), 1) == (zeta(5), (0, 1, 0))
    with pytest.raises(ValueError):
        apply_braiding_word(V, (0, 0, 1), 2)


small_roots = st.sampled_from(
    [1, -1, zeta(3), zeta(4), zeta(6), zeta(5, 2)]
)


@given(st.lists(small_roots, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_diagonal_always_braided(vals):
    q = [[vals[0], vals[1]], [vals[2], vals[3]]]
    ok, bad = check_braid_equation(build_diagonal(q))
    assert ok, bad


def braid_equation_on_words(V):
    """The reference check: both sides of the braid equation applied to each
    word of V^(x)3, one crossing at a time."""
    theta = V.rank
    for a in range(theta):
        for b in range(theta):
            for c in range(theta):
                w = (a, b, c)
                c1, w1 = apply_braiding_word(V, w, 0)
                c2, w2 = apply_braiding_word(V, w1, 1)
                c3, w3 = apply_braiding_word(V, w2, 0)
                d1, v1 = apply_braiding_word(V, w, 1)
                d2, v2 = apply_braiding_word(V, v1, 0)
                d3, v3 = apply_braiding_word(V, v2, 1)
                if w3 != v3 or c1 * c2 * c3 != d1 * d2 * d3:
                    return False, w
    return True, None


def with_entry(V, table, i, j, value):
    """V with entry [i][j] of its act or scal table replaced."""
    rows = [list(row) for row in getattr(V, table)]
    rows[i][j] = value
    return dataclasses.replace(V, **{table: tuple(tuple(row) for row in rows)})


def test_braid_check_finds_a_negated_scalar():
    V = build_fk_space(3)
    bad = with_entry(V, "scal", 0, 1, -V.scal[0][1])
    ok, witness = check_braid_equation(bad)
    assert not ok
    assert (ok, witness) == braid_equation_on_words(bad)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", range(15))
def test_braid_check_matches_words_on_corrupted_tables(n, seed):
    """Random corruptions of the act and scal tables of FK_n give the same
    verdict and witness as the word-based check."""
    rng = random.Random(seed)
    V = build_fk_space(n)
    for _ in range(rng.randint(1, 2)):
        i, j = rng.randrange(V.rank), rng.randrange(V.rank)
        if rng.random() < 0.5:
            V = with_entry(V, "scal", i, j, rng.choice([-1, 2, zeta(3)]) * V.scal[i][j])
        else:
            V = with_entry(V, "act", i, j, rng.randrange(V.rank))
    assert check_braid_equation(V) == braid_equation_on_words(V)


def test_braid_check_matches_words_on_braided_spaces():
    spaces = [build_fk_space(n) for n in (3, 4, 5)]
    spaces.append(build_diagonal([[zeta(3), zeta(5)], [zeta(5, 4), -1]]))
    for V in spaces:
        assert check_braid_equation(V) == braid_equation_on_words(V) == (True, None)


def test_bichar_additivity():
    q = build_diagonal([[zeta(3), zeta(3, 2)], [1, zeta(3)]]).qmatrix
    a, b, c = (1, 0), (0, 1), (1, 1)
    assert bichar(q, a, c) * bichar(q, b, c) == bichar(q, (1, 1), c)
    assert bichar(q, c, a) * bichar(q, c, b) == bichar(q, c, (1, 1))
    assert bichar(q, (2, -1), (0, 0)) == 1


def test_cartan_integers():
    # qtilde = 1 forces 0
    V = build_diagonal([[zeta(3), zeta(5)], [zeta(5, 4), zeta(3)]])
    assert cartan_integer(V, 0, 1) == 0
    # q_ii = -1 with an edge gives -1
    V = build_diagonal([[-1, zeta(3)], [1, -1]])
    assert cartan_integer(V, 0, 1) == -1
    # non-root-of-unity diagonal: scan finds 1 - 2*(1/2) = 0
    from fractions import Fraction

    V = build_diagonal(
        [[2, Fraction(1, 2)], [1, 2]]
    )
    assert cartan_integer(V, 0, 1) == -1


def test_cartan_integer_zero_iff_no_edge():
    for qt in (1, zeta(3)):
        V = build_diagonal([[zeta(3), qt], [1, zeta(3)]])
        c = cartan_integer(V, 0, 1)
        assert (c == 0) == (qt == 1)


def test_dynkin_diagram():
    V = build_diagonal([[-1, zeta(3)], [1, -1]])
    d = dynkin_diagram(V)
    assert d.vertices == (-1, -1)
    assert d.edges == {(0, 1): zeta(3)}
    # inverse off-diagonal entries: no edge
    V2 = build_diagonal([[zeta(3), zeta(5)], [zeta(5, 4), zeta(3)]])
    assert dynkin_diagram(V2).edges == {}


def test_cartan_vertices_a2():
    V = build_diagonal([[zeta(3), zeta(3, 2)], [1, zeta(3)]])
    cmat = cartan_matrix(V)
    assert is_cartan_vertex(V, 0, cmat[0]) and is_cartan_vertex(V, 1, cmat[1])
    W = build_diagonal([[-1, zeta(3)], [1, -1]])
    assert not is_cartan_vertex(W, 0, cartan_matrix(W)[0])
