"""Build ``expected.json``: the results every benchmark task must report.

    python3 perfbench/build_expected.py

Runs every task any seed can produce, once, and records its exit code and
``results`` object. Each value gets a provenance line: a literature anchor
where one exists, and a cross-check made here between independent routes to
graded dimensions (quantum symmetrizer ranks, rewriting of the relation
catalog, and for diagonal type the PBW series from the root system). A failed
anchor or cross-check is an error and no file is written. Takes a few
minutes.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from nicholsalg import cli  # noqa: E402
from nicholsalg.configs import load_shipped  # noqa: E402
from nicholsalg.weyl import enumerate_roots  # noqa: E402
from workloads import all_task_variants, task_key  # noqa: E402

WORKLOADS = ("symmetrizer", "rewriting", "cohomology", "tiny")

# Degree through which the symmetrizer route is affordable, by rank.
SYMMETRIZER_REACH = {1: 16, 2: 11, 3: 7}
FK_SYMMETRIZER_REACH = {6: 4}  # Sym(n) with no literature series at hand


def _series(factors):
    """Coefficients of prod [n]_t^e for (n, e) in factors, [n]_t = 1 + ... + t^(n-1)."""
    poly = [1]
    for n, e in factors:
        for _ in range(e):
            out = [0] * (len(poly) + n - 1)
            for i, c in enumerate(poly):
                for j in range(n):
                    out[i + j] += c
            poly = out
    return poly


# Hilbert series of the Fomin-Kirillov algebras E_3, E_4, E_5 (Fomin-Kirillov
# 1999; Grana, J. Algebra 2000); totals 12, 576 and 8,294,400.
FK_SERIES = {
    3: (_series([(2, 2), (3, 1)]), "Fomin-Kirillov (1999): Hilbert series [2]^2[3], total 12"),
    4: (_series([(2, 2), (3, 2), (4, 2)]), "Fomin-Kirillov (1999): Hilbert series [2]^2[3]^2[4]^2, total 576"),
    5: (
        _series([(4, 4), (5, 2), (6, 4)]),
        "Grana (J. Algebra 2000): Hilbert series [4]^4[5]^2[6]^4, total 8294400; "
        "prefix [1, 10, 55, 220, 711, 1960, 4761, 10410] as in Fomin-Kirillov (1999)",
    ),
}
assert FK_SERIES[5][0][:8] == [1, 10, 55, 220, 711, 1960, 4761, 10410]
assert sum(FK_SERIES[4][0]) == 576 and sum(FK_SERIES[3][0]) == 12

# Total dimensions of finite Nichols algebras of diagonal type.
DIAGONAL_TOTALS = {
    "a2_cartan_zeta3": (27, "u_q(sl3)^+ at q of order 3: 3 positive roots, each of PBW height 3, 3^3 = 27"),
    "b2": (36, "4 positive roots of PBW heights 2, 3, 3, 2, product 36"),
    "rank1_zeta6": (6, "rank one, q of order N: dims 1 in degrees 0..N-1, total N = 6"),
}

_cache = {}


class CheckFailed(Exception):
    pass


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


def run(argv):
    key = task_key(argv)
    if key not in _cache:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--json"])
        _cache[key] = code, json.loads(buf.getvalue())["results"]
    return _cache[key]


def opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def symmetrizer_dims(name, degree):
    code, res = run(["nichols", "--config", name, "--max-degree", str(degree)])
    check(code == 0, f"nichols {name} exit {code}")
    return res["dims"]


def agreeing_prefix(name, dims):
    """Compare dims with the symmetrizer route as far as it reaches.

    A Nichols algebra is generated in degree one, so once the symmetrizer
    route shows a zero every higher degree is zero too, and the comparison
    covers the whole vector.
    """
    reach = min(len(dims) - 1, SYMMETRIZER_REACH[load_shipped(name).rank])
    sym = symmetrizer_dims(name, reach)
    check(dims[: reach + 1] == sym, f"{name}: routes disagree: {dims} vs {sym}")
    if 0 in sym:
        check(all(d == 0 for d in dims[sym.index(0):]), f"{name}: nonzero dims past a zero")
        return len(dims) - 1
    return reach


def pbw_series(name, degree):
    """prod over positive roots b of [N_b]_(t^|b|), N_b = ord(q_b), to degree.

    The Hilbert series of a finite-type Nichols algebra of diagonal type from
    its PBW basis (Kharchenko), with the roots from the Weyl groupoid walk: a
    route independent of both the symmetrizer and the rewriting.
    """
    cfg = load_shipped(name)
    V = cfg.space()
    rs = enumerate_roots(V, cap=cfg.budgets["cartan_cap"], object_cap=cfg.budgets["object_cap"])
    check(rs.finite, f"{name}: root system not finite")
    poly = [1] + [0] * degree
    for root in rs.positive_roots:
        order, height = rs.root_order(V, root), sum(root)
        out = [0] * (degree + 1)
        for i, c in enumerate(poly):
            for k in range(order):
                if i + k * height <= degree:
                    out[i + k * height] += c
        poly = out
    return poly


def dims_provenance(name, dims, route):
    last = len(dims) - 1
    check(dims == pbw_series(name, last), f"{name}: {dims} differs from the PBW series")
    parts = [route, f"equal to the PBW Hilbert series through degree {last}"]
    if route == "symmetrizer route":
        _, res = run(["rewrite", "--config", name, "--max-degree", str(last)])
        check(res["dims"] == dims, f"{name}: routes disagree: {dims} vs {res['dims']}")
        parts.append(f"equal to rewriting of the relation catalog through degree {last}")
    else:
        parts.append(f"equal to symmetrizer ranks through degree {agreeing_prefix(name, dims)}")
    if name in DIAGONAL_TOTALS and dims[-1] == 0:
        total, source = DIAGONAL_TOTALS[name]
        check(sum(dims) == total, f"{name}: total {sum(dims)} != {total}")
        parts.append(f"total {total}: {source}")
    return "; ".join(parts)


def provenance(argv, code, res):
    cmd = argv[0]
    name = opt(argv, "--config")
    if cmd == "nichols":
        return {"dims": dims_provenance(name, res["dims"], "symmetrizer route"), "total": "sum of dims"}
    if cmd == "rewrite":
        return {"dims": dims_provenance(name, res["dims"], "rewriting route"), "total": "sum of dims"}
    if cmd == "fk":
        n = int(opt(argv, "--n"))
        dims = res["dims"]
        prov = {"n": "input", "total": "sum of dims"}
        if n in FK_SERIES:
            series, source = FK_SERIES[n]
            check(dims == series[: len(dims)], f"fk{n}: {dims} vs literature {series}")
            prov["dims"] = f"rewriting route; literature: {source}"
        else:
            reach = FK_SYMMETRIZER_REACH[n]
            _, sres = run(["fk", "--n", str(n), "--max-degree", str(reach), "--symmetrizer"])
            check(sres["routes_agree"] and sres["dims"] == dims[: reach + 1], f"fk{n}: routes disagree")
            prov["dims"] = (
                f"rewriting route; equal to symmetrizer ranks through degree {reach}; "
                f"degrees {reach + 1}..{len(dims) - 1} from rewriting alone (no literature value)"
            )
        if "symmetrizer_dims" in res:
            check(res["routes_agree"] and res["symmetrizer_dims"] == dims, f"fk{n}: routes disagree")
            prov["symmetrizer_dims"] = "symmetrizer route; equal to dims (rewriting) and to the literature series"
            prov["routes_agree"] = "true: both routes give the literature series"
        return prov
    if cmd == "cohomology":
        dims = res["dims"]
        if name == "fk3":
            series, source = FK_SERIES[3]
            check(dims == series, f"fk3 dims {dims}")
            dims_src = f"rewriting basis of the quotient; literature: {source}"
        else:
            dims_src = dims_provenance(name, dims + [0], "rewriting basis of the quotient, zero above its top degree")
        for ell, row in res["H2_by_degree"].items():
            check(int(ell) < 0 and row["H"] == 0, f"{name}: H2 nonzero in degree {ell}")
            check(row["H"] == row["Z"] - row["B"], f"{name}: H != Z - B in degree {ell}")
        check(res["all_zero"] is True, f"{name}: all_zero false")
        return {
            "dims": dims_src,
            "H2_by_degree": "H = 0 in every negative degree (graded rigidity, as in the paper); "
            "Z and B are this program's exact ranks, no independent route",
            "all_zero": "true: H2 vanishes in negative degrees (paper)",
        }
    if cmd == "epsilon":
        check(res["identity_holds"] is True, f"{name}: identity fails")
        check(res["H2_eps"]["H"] == res["dim_Hom_M_U"], f"{name}: H2_eps != Hom(M, U)")
        shared = set(res["M_dims"]) & set(res["M_dims_word_route"])
        check(all(res["M_dims"][d] == res["M_dims_word_route"][d] for d in shared),
              f"{name}: M dims disagree between routes")
        return {
            "M_dims": f"kernel route; equal to the word route in degrees {sorted(shared, key=int)}",
            "M_dims_word_route": "word route; equal to M_dims where both are computed",
            "H2_eps": "cohomology route; H equals dim Hom(M, U) computed independently",
            "dim_Hom_M_U": "Hom(M, U) route; equals H2_eps.H",
            "identity_holds": "true: dim H2_eps(B, U) = dim Hom(M, U)",
        }
    raise CheckFailed(f"no provenance rule for {task_key(argv)}")


def main():
    tasks = {}
    for workload in WORKLOADS:
        for argv in all_task_variants(workload):
            key = task_key(argv)
            if key in tasks:
                continue
            code, res = run(argv)
            print(f"{key}: exit {code}", file=sys.stderr)
            try:
                prov = provenance(argv, code, res)
            except CheckFailed as e:
                print(f"error: {key}: {e}", file=sys.stderr)
                return 1
            missing = set(res) - set(prov)
            if missing:
                print(f"error: {key}: no provenance for {sorted(missing)}", file=sys.stderr)
                return 1
            tasks[key] = {"argv": argv, "exit_code": code, "results": res, "provenance": prov}
    doc = {
        "about": "Expected results of every benchmark task; the harness compares each "
        "report's results object with these. Rebuild with build_expected.py.",
        "tasks": tasks,
    }
    (BENCH / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(tasks)} tasks", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
