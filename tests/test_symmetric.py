"""Sign twists of symmetric braidings and braided Lie data."""

import pytest

from nicholsalg.cyclo import inverse, zeta
from nicholsalg.liealg import (
    AbelianBicharacter,
    GradedAlgebraData,
    braided_commutator,
    check_braided_lie,
    color_pair,
    color_triple,
    enveloping_dims,
    heisenberg_flip,
    scheunert_cocycle,
    sl2_flip,
    superline,
)

from twist_helpers import sign_twist_report, twist_algebra, twist_defect


def test_trivially_signed_needs_no_twist():
    beta = AbelianBicharacter([[-1]])
    sigma, bs = scheunert_cocycle(beta)
    assert sigma.values == [[1]]
    assert bs.values == [[-1]]


def test_two_generator_twist():
    q = zeta(5)
    beta = AbelianBicharacter([[-1, q], [inverse(q), -1]], skew=True)
    sigma, bs = scheunert_cocycle(beta)
    # both generators odd: sigma(e2, e1) = beta(e1, e2) / (-1) = -q
    assert sigma.values[1][0] == -q
    assert bs.values[0][1] == -1 and bs.values[1][0] == -1
    assert bs.is_sign()


def test_nonsign_diagonal_rejected():
    beta = AbelianBicharacter([[zeta(3)]])
    with pytest.raises(ValueError):
        scheunert_cocycle(beta)


def test_twist_exact_on_generators():
    q = zeta(7, 3)
    beta = AbelianBicharacter([[-1, q], [inverse(q), 1]], skew=True)
    sigma, bs = scheunert_cocycle(beta)
    assert twist_defect(beta, sigma, bs) is None
    # the trivial sigma does not twist beta into beta_sigma
    other = AbelianBicharacter([[1, 1], [1, 1]])
    assert twist_defect(beta, other, bs) == (0, 1)


def test_axioms_on_examples():
    for L in (heisenberg_flip(), superline(), color_pair(), sl2_flip(),
              color_triple(zeta(5))):
        rep = check_braided_lie(L)
        assert all(ok for ok, _ in rep.values()), (L.names, rep)


def test_scaled_sl2_fails_with_witness():
    rep = check_braided_lie(sl2_flip(scale=3))
    ok_anti, wit = rep["anticomm"]
    assert not ok_anti and wit is not None
    assert not rep["jacobi"][0]


def test_commutator_of_matrix_algebra():
    # 2x2 matrix units with trivial grading and flip braiding give gl2
    beta = AbelianBicharacter([[1]])
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    mult = {}
    for i, (a, b) in enumerate(units):
        for j, (c, d) in enumerate(units):
            if b == c:
                mult[(i, j)] = {units.index((a, d)): 1}
    A = GradedAlgebraData(((0,),) * 4, mult)
    L = braided_commutator(A, beta)
    rep = check_braided_lie(L)
    assert all(ok for ok, _ in rep.values()), rep
    e, f = units.index((0, 1)), units.index((1, 0))
    assert L.bra(e, f) == {0: 1, 3: -1}


def test_commutator_rejects_bad_braiding():
    beta = AbelianBicharacter([[zeta(3)]])
    mult = {(0, 0): {0: 1}}
    A = GradedAlgebraData(((1,),), mult)
    with pytest.raises(ValueError):
        braided_commutator(A, beta)


def test_commutator_rejects_non_associative_algebra():
    # (x x) x = y x = x but x (x x) = x y = 0
    beta = AbelianBicharacter([[1]])
    mult = {(0, 0): {1: 1}, (1, 0): {0: 1}}
    A = GradedAlgebraData(((0,), (0,)), mult)
    with pytest.raises(ValueError, match=r"not associative at \(0, 0, 0\)"):
        braided_commutator(A, beta)


def test_twist_round_trip():
    L = color_triple(zeta(5))
    out = sign_twist_report(L)
    sigma = out["sigma"]
    inv = AbelianBicharacter(
        [[inverse(v) for v in row] for row in sigma.values], sigma.orders
    )
    mult = {k: dict(v) for k, v in out["twisted"].bracket.items()}
    A = GradedAlgebraData(L.degrees, mult, L.names)
    back = twist_algebra(A, inv)
    assert back.mult == {k: dict(v) for k, v in L.bracket.items()}


def test_sign_twist_reports():
    out = sign_twist_report(color_triple(zeta(5)))
    assert out["beta_sigma"].is_sign()
    assert all(ok for ok, _ in out["report"].values())
    assert out["even_dim"] == 1 and not out["purely_odd"]
    assert sign_twist_report(superline())["purely_odd"]


def test_enveloping_dims_match():
    cases = {
        "heisenberg": (heisenberg_flip(), [1, 3, 6, 10, 15]),
        "superline": (superline(), [1, 1, 0, 0, 0]),
        "color_pair": (color_pair(), [1, 2, 2, 2, 2]),
        "color_triple": (color_triple(zeta(3)), [1, 3, 4, 4, 4]),
    }
    for name, (L, want) in cases.items():
        out = enveloping_dims(L, 4)
        assert out["gr"] == out["nichols"] == want, (name, out)
