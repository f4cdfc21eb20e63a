"""Cocycle twists of graded algebras and braided Lie data, as test references.

twist_algebra twists a multiplication by a bicharacter-valued cocycle sigma;
sign_twist_report twists a braided Lie algebra's braiding to signs with the
Scheunert cocycle and re-checks the three braided Lie axioms;
twist_defect checks a twist exactly on generators.
"""

from itertools import product

from nicholsalg.cyclo import inverse
from nicholsalg.liealg import (
    BraidedLieData,
    GradedAlgebraData,
    check_braided_lie,
    scheunert_cocycle,
)


def twist_algebra(A, sigma):
    """sigma-twist: m_sigma(a, b) = sigma(deg a, deg b) m(a, b)."""
    ok, bad = A.check_homogeneous()
    if not ok:
        raise ValueError(f"multiplication not homogeneous at {bad}")
    mult = {
        (i, j): {
            k: sigma(A.degrees[i], A.degrees[j]) * c for k, c in out.items()
        }
        for (i, j), out in A.mult.items()
    }
    return GradedAlgebraData(A.degrees, mult, A.names)


def twist_defect(beta, sigma, beta_sigma):
    """First generator pair or triple where the twist is not exact, or None.

    On generators a_i checks beta_sigma(a_i, a_j) =
    sigma(a_j, a_i)^-1 beta(a_i, a_j) sigma(a_i, a_j) and
    sigma(a_i + a_j, a_k) = sigma(a_i, a_k) sigma(a_j, a_k).
    """
    n = beta.n
    a = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    for i, j in product(range(n), repeat=2):
        twisted = inverse(sigma(a[j], a[i])) * beta(a[i], a[j]) * sigma(a[i], a[j])
        if beta_sigma(a[i], a[j]) != twisted:
            return (i, j)
    for i, j, k in product(range(n), repeat=3):
        ij = tuple(x + y for x, y in zip(a[i], a[j]))
        if sigma(ij, a[k]) != sigma(a[i], a[k]) * sigma(a[j], a[k]):
            return (i, j, k)
    return None


def sign_twist_report(L):
    """Twist the braiding to signs and re-check the braided Lie axioms.

    Returns sigma, the sign bicharacter beta_sigma, the twisted bracket
    data, its axiom report, and the dimension of the even part (generators
    g with beta(g, g) = 1); a zero even part is the purely odd case of the
    symmetric-braiding dichotomy.
    """
    sigma, beta_sigma = scheunert_cocycle(L.beta)
    bracket = {
        (i, j): {
            k: sigma(L.degrees[i], L.degrees[j]) * c for k, c in out.items()
        }
        for (i, j), out in L.bracket.items()
    }
    twisted = BraidedLieData(L.degrees, beta_sigma, bracket, L.names)
    report = check_braided_lie(twisted)
    even = sum(
        1 for d in L.degrees if L.beta(d, d) == 1
    )
    return {
        "sigma": sigma,
        "beta_sigma": beta_sigma,
        "twisted": twisted,
        "report": report,
        "even_dim": even,
        "purely_odd": even == 0,
    }
