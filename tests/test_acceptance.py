"""End-to-end acceptance checks, one pass/fail line per criterion."""

import json
import time

from nicholsalg.braided import build_diagonal
from nicholsalg.cyclo import zeta
from nicholsalg.tensoralg import monomial, nichols_dims
from nicholsalg.weyl import enumerate_roots
from nicholsalg.relations import (
    check_prop_gchi,
    g_chi,
    generate_relations,
    realization,
    rigidity_verdict,
)
from nicholsalg.bialgebra import attach_diagonal_category, from_nichols
from nicholsalg.cohomology import (
    epsilon_H2,
    hom_M_dim,
    kernel_M,
    truncated_H2,
)
from nicholsalg.fk import build_fk_space, fk_bialgebra, fk_dims_rewriting
from nicholsalg.liealg import (
    check_braided_lie,
    color_pair,
    color_triple,
    enveloping_dims,
    heisenberg_flip,
    scheunert_cocycle,
    superline,
)
from nicholsalg.configs import load_shipped, shipped_config_names

from twist_helpers import sign_twist_report, twist_defect


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def line_algebra(N):
    V = build_diagonal([[zeta(N)]])
    rel = monomial((0,) * N)
    B = from_nichols(V, N + 1)
    attach_diagonal_category(B, realization(V, N))
    return B, [rel]


def diagonal_config_names():
    return [n for n in shipped_config_names() if not n.startswith("fk")]


def test_criterion_1_fk3_dimension_12():
    t0 = time.monotonic()
    d_rw = fk_dims_rewriting(3, 4)
    d_sym = nichols_dims(build_fk_space(3), 4)
    dt = time.monotonic() - t0
    ok = d_rw == d_sym == [1, 3, 4, 3, 1] and sum(d_rw) == 12 and dt < 5
    report(1, ok, f"dims {d_rw}, both routes, {dt:.2f}s")


def test_criterion_2_fk4_dimension_576():
    t0 = time.monotonic()
    dims = fk_dims_rewriting(4, 12)
    dt = time.monotonic() - t0
    ok = sum(dims) == 576 and dims[-1] == 1 and dt < 600
    report(2, ok, f"total {sum(dims)} through degree 12, {dt:.1f}s")


def test_criterion_3_rank1_dims():
    ok = True
    for N in (2, 3, 4, 6):
        dims = nichols_dims(build_diagonal([[zeta(N)]]), N)
        ok = ok and dims == [1] * N + [0]
    report(3, ok, "rank-1 dims 1 below N, 0 at N, for N in 2,3,4,6")


def test_criterion_4_a2_cartan_zeta3():
    V = build_diagonal([[zeta(3), zeta(3, 2)], [1, zeta(3)]])
    rs = enumerate_roots(V)
    roots_ok = rs.finite and rs.positive_roots == [(0, 1), (1, 0), (1, 1)]
    # the series ends at degree 8; see the build ledger on the degree bound
    dims = nichols_dims(V, 8)
    # PBW cross-check: product of one truncated line per positive root
    pbw = [0] * 9
    for a in range(3):
        for b in range(3):
            for c in range(3):
                d = a + b + 2 * c
                if d <= 8:
                    pbw[d] += 1
    ok = roots_ok and sum(dims) == 27 and dims == pbw
    report(4, ok, f"roots {rs.positive_roots}, total {sum(dims)}, PBW match")


def test_criterion_5_grading_pair_avoidance():
    ok = True
    for name in diagonal_config_names():
        cfg = load_shipped(name)
        V = cfg.space()
        real = cfg.realization(V)
        reports = check_prop_gchi(real, generate_relations(V, enumerate_roots(V)))
        ok = ok and all(r["ok"] for r in reports)
    # scalar witnesses on the two rank-3 families
    cfg = load_shipped("rank3_square")
    V = cfg.space()
    sq = [r for r in generate_relations(V, enumerate_roots(V)) if r.family == "square_of_bracket"]
    ok = ok and sq and all(
        g_chi(cfg.realization(V), r)[2] == 1 for r in sq
    )
    cfg = load_shipped("rank3_super_a3")
    V = cfg.space()
    mid = [r for r in generate_relations(V, enumerate_roots(V)) if r.family == "mid_vertex_bracket"]
    ok = ok and mid and all(
        g_chi(cfg.realization(V), r)[2] == V.q(0, 0) * V.q(2, 2) for r in mid
    )
    report(5, ok, "no (g_R, chi_R) clash on any shipped config; witnesses match")


def test_criterion_6_rigidity_verdicts():
    ok = True
    for name in diagonal_config_names():
        cfg = load_shipped(name)
        V = cfg.space()
        real = cfg.realization(V)
        for pre in (False, True):
            verdict, _ = rigidity_verdict(V, enumerate_roots(V), real, pre_nichols=pre)
            ok = ok and verdict == "Rigid"
    report(6, ok, "Rigid on all shipped configs, with and without --pre-nichols")


def test_criterion_7_negative_H2_vanishes():
    ok = True
    worst = None
    for N in (2, 3, 4):
        B, _ = line_algebra(N)
        for ell in range(-1, -2 * B.top_degree - 1, -1):
            h = truncated_H2(B, ell)["H"]
            if h:
                ok = False
                worst = (N, ell, h)
    report(7, ok, f"H2 = 0 in all negative degrees for N = 2, 3, 4; worst {worst}")


def test_criterion_8_epsilon_identity():
    ok = True
    for N in (2, 3, 4):
        B, _ = line_algebra(N)
        lhs = epsilon_H2(B)["H"]
        rhs = hom_M_dim(B, kernel_M(B))
        ok = ok and lhs == rhs
    B, _ = fk_bialgebra(3)
    lhs = epsilon_H2(B)["H"]
    rhs = hom_M_dim(B, kernel_M(B))
    ok = ok and lhs == rhs == 1
    report(8, ok, "dim H2_eps = dim Hom(M, U) on all four algebras")


def test_criterion_9_pbw_suite():
    cases = [heisenberg_flip(), superline(), color_pair(), color_triple(zeta(3))]
    ok = True
    for L in cases:
        out = enveloping_dims(L, 4)
        ok = ok and out["gr"] == out["nichols"]
    report(9, ok, "gr U_c(L) dims = Nichols dims through degree 4, all examples")


def test_criterion_10_scheunert_suite():
    ok = True
    for L in (superline(), color_pair(), color_triple(zeta(5))):
        sigma, bs = scheunert_cocycle(L.beta)
        ok = ok and twist_defect(L.beta, sigma, bs) is None and bs.is_sign()
        before = check_braided_lie(L)
        after = sign_twist_report(L)["report"]
        ok = ok and all(o for o, _ in before.values())
        ok = ok and all(o for o, _ in after.values())
    report(10, ok, "twist exact on generator pairs; axioms before and after twist")


def test_criterion_11_selfcheck(capsys):
    from nicholsalg.cli import main

    t0 = time.monotonic()
    code = main(["selfcheck", "--json"])
    dt = time.monotonic() - t0
    rep = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        ok = code == 0 and rep["results"]["all_green"] and dt < 120
        report(11, ok, f"selfcheck green in {dt:.1f}s")
