"""Nichols dimensions, the defining ideal, and the dense symmetrizer oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicholsalg.braided import build_diagonal
from nicholsalg.configs import load_shipped
from nicholsalg.cyclo import inverse, zeta
from nicholsalg.fk import build_fk_space
from nicholsalg.linalg import add_term, row_axpy
from nicholsalg.relations import _xw
from nicholsalg.tensoralg import braided_commutator, monomial, nichols_dims
from symmetrizer_oracle import (
    braided_coproduct,
    dense_ideal_component,
    dense_nichols_dims,
    ideal_component,
    is_in_nichols_ideal,
    matsumoto_symmetrizer,
    nichols_layers,
    normal_form,
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
    V = rank1(2)
    assert nichols_dims(V, 5) == [1] * 6


def test_symmetrizer_degree2():
    # S_2 = id + c; on the superline it kills x (x) x
    V = rank1(-1)
    el = monomial((0, 0))
    assert matsumoto_symmetrizer(V, el) == {}
    assert is_in_nichols_ideal(V, el)


def test_quantum_plane_dims():
    # q_12 q_21 = 1 with generic diagonal: polynomial algebra in 2 variables
    V = build_diagonal([[3, 5], [Fraction(1, 5), 7]])
    assert nichols_dims(V, 4) == [1, 2, 3, 4, 5]


def test_a2_cartan_zeta3_dims():
    V = build_diagonal([[zeta(3), zeta(3, 2)], [1, zeta(3)]])
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
    # super A2: (ad x1)^2 x2 = x_112 lies in the ideal, (ad x1) x2 = x_12 does not
    V = build_diagonal([[-1, 1], [zeta(3, 2), zeta(3)]])
    ad2 = _xw(V, (0, 0, 1))
    assert is_in_nichols_ideal(V, ad2)
    assert not is_in_nichols_ideal(V, _xw(V, (0, 1)))


def test_coproduct_generators_primitive():
    V = build_diagonal([[zeta(3)]])
    x = monomial((0,))
    assert not {k: c for k, c in braided_coproduct(V, x).items() if k[0] and k[1]}
    cop = braided_coproduct(V, monomial((0, 0)))
    assert cop[((0,), (0,))] == 1 + zeta(3)


small_roots = st.sampled_from([-1, zeta(3), zeta(4), zeta(6)])


@given(small_roots, small_roots, small_roots)
@settings(max_examples=20, deadline=None)
def test_ideal_kernel_matches_dims(q11, q12, q22):
    V = build_diagonal([[q11, q12], [1, q22]])
    for d in (2, 3):
        n_words = 2 ** d
        assert symmetrizer_rank(V, d) + len(ideal_component(V, d)) == n_words


@given(small_roots, small_roots)
@settings(max_examples=20, deadline=None)
def test_commutator_antisymmetry_under_braiding(q11, q12):
    # c-symmetric inputs: [x, y] + q [y, x] has symmetrizer image 0 in deg 2
    V = build_diagonal([[q11, q12], [inverse(q12), q11]])
    x, y = monomial((0,)), monomial((1,))
    el = braided_commutator(V, x, y)
    back = braided_commutator(V, y, x)
    comb = row_axpy(dict(el), V.q(0, 1), back)
    assert matsumoto_symmetrizer(V, comb) == {}


def _random_diagonal(rng, rank, N):
    return build_diagonal(
        [[zeta(N, rng.randrange(N)) for _ in range(rank)] for _ in range(rank)]
    )


def _agreement_cases():
    rng = random.Random(12)
    cases = [
        pytest.param(_random_diagonal(rng, rank, N), 5, id=f"zeta{N}-rank{rank}")
        for N in (3, 4, 6, 12)
        for rank in (2, 3)
    ]
    return cases + [
        pytest.param(build_fk_space(3), 5, id="fk3"),
        pytest.param(build_fk_space(4), 4, id="fk4"),
    ]


@pytest.mark.parametrize("V, top", _agreement_cases())
def test_embedding_route_matches_dense_symmetrizer(V, top):
    assert nichols_dims(V, top) == dense_nichols_dims(V, top)
    cache = {}
    for d in range(2, top + 1):
        kernel = ideal_component(V, d)
        assert kernel == dense_ideal_component(V, d), d
        assert all(is_in_nichols_ideal(V, r, _cache=cache) for r in kernel), d


@pytest.mark.parametrize(
    "V",
    [
        pytest.param(load_shipped("rank3_triangle").space(), id="rank3_triangle"),
        pytest.param(build_fk_space(4), id="fk4"),
    ],
)
def test_rows_are_coproducts_and_rules_lie_in_the_ideal(V):
    layers = nichols_layers(V, 5)
    theta, cache = V.rank, {}
    for prev, layer in zip(layers, layers[1:]):
        assert len(layer.rows) == len(layer.basis)
        for w, row in zip(layer.basis, layer.rows):
            # the (n-1, 1) part of the coproduct of T(V), left legs in basis
            # indices: q (x) x_y is key q * theta + y
            expected = {}
            for (u, v), c in braided_coproduct(V, {w: 1}).items():
                if len(v) == 1:
                    for q, d in normal_form(layers, u).items():
                        add_term(expected, q * theta + v[0], c * d)
            assert row == expected, w
        assert len(layer.nf) == len(prev.basis) * theta
        for j, rule in enumerate(layer.nf):
            w = prev.basis[j // theta] + (j % theta,)
            in_basis = {layer.basis[i]: c for i, c in rule.items()}
            assert is_in_nichols_ideal(V, row_axpy({w: 1}, -1, in_basis), _cache=cache), w


@pytest.mark.parametrize(
    "name, top",
    [("rank3_triangle", 19), ("fk4", 13), ("rank3_square", 32)],
)
def test_bases_are_greedy(name, top):
    """The basis of each degree is the candidates whose rows are independent
    of the rows before them: a basis candidate's rule is itself, and a
    dependent candidate's rule names only earlier basis candidates."""
    V = build_fk_space(4) if name == "fk4" else load_shipped(name).space()
    layers = nichols_layers(V, top)
    assert not layers[-1].basis
    for prev, layer in zip(layers, layers[1:]):
        cands = [b + (x,) for b in prev.basis for x in range(V.rank)]
        at = {w: j for j, w in enumerate(cands)}
        picked = [at[w] for w in layer.basis]
        assert picked == sorted(picked)
        position = {j: i for i, j in enumerate(picked)}
        for j, rule in enumerate(layer.nf):
            if j in position:
                assert rule == {position[j]: 1}, (len(cands[j]), j)
            else:
                assert all(picked[i] < j for i in rule), (len(cands[j]), j)


def test_high_degree_dims():
    # the values of the dense symmetrizer route, past the snapshot's degree 6
    assert nichols_dims(build_fk_space(4), 6) == [1, 6, 19, 42, 71, 96, 106]
    expected = {
        "rank3_triangle": ([1, 3, 6, 11, 18, 27, 35, 42, 48, 50], 18, 432),
        "rank3_super_a3": ([1, 3, 6, 10, 14, 18, 21, 23, 24, 23], 16, 216),
        "rank3_square": ([1, 3, 6, 10, 14, 18, 21, 23, 24, 24], 31, 576),
    }
    for name, (low, top, total) in expected.items():
        dims = nichols_dims(load_shipped(name).space(), top + 1)
        assert dims[:10] == low, name
        assert (sum(dims), dims[top + 1]) == (total, 0), name
        # Poincare duality of a finite Nichols algebra
        assert dims[: top + 1] == dims[top::-1], name
