#!/usr/bin/env python3
"""Tabulate truncated second cohomology for small finite quotients.

For each truncated line k[x]/(x^N) at a primitive N-th root and for the
n = 3 transposition algebra, prints Z/B/H dims over the relevant range of
homogeneity degrees, plus the epsilon-cohomology versus Hom(M, U) identity.
"""

import argparse

from nicholsalg.braided import build_diagonal
from nicholsalg.bialgebra import attach_diagonal_category, from_nichols
from nicholsalg.cohomology import epsilon_H2, hom_M_dim, kernel_M, truncated_H2
from nicholsalg.cyclo import zeta
from nicholsalg.fk import fk_bialgebra
from nicholsalg.relations import realization
from nicholsalg.tensoralg import monomial


def line(N):
    V = build_diagonal([[zeta(N)]])
    rel = monomial((0,) * N)
    B = from_nichols(V, [rel], N + 1)
    attach_diagonal_category(B, realization(V, N))
    return B


def table(name, B, ell_min=None):
    top = B.top_degree
    lo = ell_min if ell_min is not None else -2 * top
    print(f"{name}: dims {B.dims()}")
    print(f"  {'ell':>4} {'Z':>3} {'B':>3} {'H':>3}")
    for ell in range(0, lo - 1, -1):
        out = truncated_H2(B, ell)
        print(f"  {ell:>4} {out['Z']:>3} {out['B']:>3} {out['H']:>3}")
    eps = epsilon_H2(B)
    hm = hom_M_dim(B, kernel_M(B))
    print(f"  H2_eps = {eps['H']}, dim Hom(M, U) = {hm}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--orders", type=int, nargs="*", default=[2, 3, 4])
    ap.add_argument("--skip-fk", action="store_true")
    args = ap.parse_args()

    for N in args.orders:
        table(f"k[x]/(x^{N}) at zeta{N}", line(N))
    if not args.skip_fk:
        B, _ = fk_bialgebra(3)
        table("transposition algebra, n = 3", B, ell_min=-2)


if __name__ == "__main__":
    main()
