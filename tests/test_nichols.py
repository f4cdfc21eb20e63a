"""Quantum symmetrizer ranks and the defining ideal."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nicholsalg.braided import build_diagonal
from nicholsalg.cyclo import one, rational, zeta
from nicholsalg.linalg import row_axpy
from nicholsalg.tensoralg import (
    braided_adjoint_power,
    braided_commutator,
    braided_coproduct,
    ideal_component,
    is_in_nichols_ideal,
    matsumoto_symmetrizer,
    monomial,
    nichols_dims,
    reduced_coproduct,
    symmetrizer_rank,
)


def rank1(q):
    return build_diagonal([[q]])


def test_rank1_qfactorial_criterion():
    # dim at degree n is 1 while (n)_q! != 0, then 0 forever
    for N in (2, 3, 4, 6):
        V = rank1(zeta(N))
        dims = nichols_dims(V, N + 2)
        assert dims == [1] * N + [0, 0, 0][: len(dims) - N]


def test_rank1_generic_polynomial():
    V = rank1(rational(2))
    assert nichols_dims(V, 5) == [1] * 6


def test_symmetrizer_degree2():
    # S_2 = id + c; on the superline it kills x (x) x
    V = rank1(rational(-1))
    el = monomial((0, 0))
    assert matsumoto_symmetrizer(V, el) == {}
    assert is_in_nichols_ideal(V, el)


def test_quantum_plane_dims():
    # q_12 q_21 = 1 with generic diagonal: polynomial algebra in 2 variables
    V = build_diagonal([[rational(3), rational(5)], [rational(Fraction(1, 5)), rational(7)]])
    assert nichols_dims(V, 4) == [1, 2, 3, 4, 5]


def test_a2_cartan_zeta3_dims():
    V = build_diagonal([[zeta(3), zeta(3, 2)], [one(), zeta(3)]])
    dims = nichols_dims(V, 9)
    assert dims == [1, 2, 4, 4, 5, 4, 4, 2, 1, 0]
    assert sum(dims) == 27


def test_ideal_component_dimensions():
    # rank-1 at zeta3: first kernel appears exactly in degree 3
    V = rank1(zeta(3))
    assert ideal_component(V, 2) == []
    comp = ideal_component(V, 3)
    assert len(comp) == 1
    assert is_in_nichols_ideal(V, comp[0])


def test_braided_commutator_serre_element():
    # super A2: (ad x1)^2 x2 lies in the ideal, (ad x1) x2 does not
    V = build_diagonal([[rational(-1), one()], [zeta(3, 2), zeta(3)]])
    x2 = monomial((1,))
    ad2 = braided_adjoint_power(V, 0, 2, x2)
    assert is_in_nichols_ideal(V, ad2)
    assert not is_in_nichols_ideal(V, braided_adjoint_power(V, 0, 1, x2))


def test_coproduct_generators_primitive():
    V = build_diagonal([[zeta(3)]])
    x = monomial((0,))
    assert not reduced_coproduct(V, x)
    cop = braided_coproduct(V, monomial((0, 0)))
    assert cop[((0,), (0,))] == one() + zeta(3)


small_roots = st.sampled_from([rational(-1), zeta(3), zeta(4), zeta(6)])


@given(small_roots, small_roots, small_roots)
@settings(max_examples=20, deadline=None)
def test_ideal_kernel_matches_dims(q11, q12, q22):
    V = build_diagonal([[q11, q12], [one(), q22]])
    for d in (2, 3):
        n_words = 2 ** d
        assert symmetrizer_rank(V, d) + len(ideal_component(V, d)) == n_words


@given(small_roots, small_roots)
@settings(max_examples=20, deadline=None)
def test_commutator_antisymmetry_under_braiding(q11, q12):
    # c-symmetric inputs: [x, y] + q [y, x] has symmetrizer image 0 in deg 2
    V = build_diagonal([[q11, q12], [q12.inverse(), q11]])
    x, y = monomial((0,)), monomial((1,))
    el = braided_commutator(V, x, y)
    back = braided_commutator(V, y, x)
    comb = row_axpy(dict(el), V.q(0, 1), back)
    assert matsumoto_symmetrizer(V, comb) == {}
