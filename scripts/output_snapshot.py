#!/usr/bin/env python3
"""Snapshot the JSON output of a fixed list of CLI commands.

Each command runs as ``python -m nicholsalg <args> --json`` against the
``src/`` of the checkout this script lives in. Its stdout is written to
``<out>/<name>.json`` and every exit code to ``<out>/exit_codes.txt``; each
command's exit code and wall seconds go to stderr only, so the files hold no
timing. At the end stderr gets the count, sum and median of those wall
seconds, over all commands and over the short ones, where interpreter start
and module loading are most of the time. Two checkouts print identical
outputs when their snapshots do not differ:

    python3 scripts/output_snapshot.py --out before/
    python3 scripts/output_snapshot.py --out after/    # in the other checkout
    diff -r before/ after/
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SHORT_S = 0.3  # a command under this many wall seconds is mostly start-up

DIAGONAL = [
    "a2_cartan_zeta3", "a2_super", "b2",
    "rank1_m1", "rank1_zeta3", "rank1_zeta4", "rank1_zeta6",
    "rank3_square", "rank3_super_a3", "rank3_triangle",
]
RANK3 = [cfg for cfg in DIAGONAL if cfg.startswith("rank3_")]
COHOMOLOGY = ["fk3", "a2_super", "rank1_m1", "rank1_zeta3", "rank1_zeta4", "rank1_zeta6"]
LIE_EXAMPLES = ["color_pair", "color_triple", "heisenberg", "sl2", "superline"]
BICHARACTER = {
    "cyclotomic_order": 5,
    "values": [["-1", "zeta5"], ["zeta5^4", "-1"]],
    "skew": True,
}
# the rewrite tasks of the perfbench rewriting workload
REWRITE_16 = [
    "a2_cartan_zeta3", "a2_super", "b2",
    "rank3_square", "rank3_super_a3", "rank3_triangle", "rank1_zeta6",
]
# q_11 = 2 is no root of unity, so c[0][1] is undefined at any cap
UNDEFINED_CARTAN = {"rank": 2, "q_values": [["2", "3"], ["1", "-1"]]}
# [[zeta3, zeta3], [1, zeta3]] has the affine Cartan matrix [[2, -2], [-2, 2]]:
# its walk never closes and stops at the bound of 1000 * object_cap states
AFFINE = {"rank": 2, "cyclotomic_order": 3, "q_exponents": [[1, 1], [0, 1]]}
# entries of three conductors (2, 3 and 4), all read into Q(zeta_12)
MIXED = {"rank": 2, "cyclotomic_order": 12, "q_values": [["-1", "zeta3"], ["zeta4", "-1"]]}


def commands(bicharacter_path, undefined_path, affine_path, mixed_path):
    """(file name, CLI arguments) for every command in the snapshot."""
    out = []
    for cfg in DIAGONAL:
        for cmd in ("diagram", "roots", "relations", "rigidity", "rewrite"):
            out.append((f"{cmd}-{cfg}", [cmd, "--config", cfg]))
        out.append((f"rigidity-{cfg}-pre-nichols", ["rigidity", "--config", cfg, "--pre-nichols"]))
        out.append((f"nichols-{cfg}", ["nichols", "--config", cfg, "--max-degree", "6"]))
    for cfg in REWRITE_16:
        out.append((f"rewrite-{cfg}-16", ["rewrite", "--config", cfg, "--max-degree", "16"]))
    for cmd in ("diagram", "roots", "relations", "rigidity", "rewrite"):
        out.append((f"{cmd}-undefined_cartan", [cmd, "--config", undefined_path]))
    out.append(("roots-affine", ["roots", "--config", affine_path]))
    for cmd in ("diagram", "roots", "relations", "rigidity", "rewrite"):
        out.append((f"{cmd}-mixed_conductors", [cmd, "--config", mixed_path]))
    for cfg in COHOMOLOGY + ["a2_cartan_zeta3", "b2"]:
        out.append((f"cohomology-{cfg}", ["cohomology", "--config", cfg]))
    for cfg in COHOMOLOGY + ["a2_cartan_zeta3", "b2"]:
        out.append((f"epsilon-{cfg}", ["epsilon", "--config", cfg]))
    # dim M and Hom(M, U) on the largest bialgebras: W18, and rank3_square,
    # whose catalog route disagrees with M at degree 24 (exit 1)
    out.append(("epsilon-rank3_super_a3-17",
                ["epsilon", "--config", "rank3_super_a3", "--max-degree", "17"]))
    out.append(("epsilon-rank3_square-32",
                ["epsilon", "--config", "rank3_square", "--max-degree", "32"]))
    out.append(("cohomology-a2_cartan_zeta3-ell-1",
                ["cohomology", "--config", "a2_cartan_zeta3", "--ell", "-1"]))
    # ell 0, where Z = B > 0 and the cocycle rank stops furthest short of its rows
    out.append(("cohomology-fk3-ell0", ["cohomology", "--config", "fk3", "--ell", "0"]))
    out.append(("cohomology-a2_super-ell0",
                ["cohomology", "--config", "a2_super", "--ell", "0"]))  # W10
    out.append(("cohomology-a2_cartan_zeta3-9-ell0",
                ["cohomology", "--config", "a2_cartan_zeta3", "--max-degree", "9",
                 "--ell", "0"]))  # W11
    # the largest Q(zeta_6) system the package answers
    out.append(("cohomology-b2-ell0", ["cohomology", "--config", "b2", "--ell", "0"]))  # W15
    # 32 negative ells with no unknowns: the cost is in enumerating the unknowns
    out.append(("cohomology-rank3_super_a3-17",
                ["cohomology", "--config", "rank3_super_a3", "--max-degree", "17"]))
    # top degree + 1 of rank3_square, whose catalog lacks an element
    out.append(("cohomology-rank3_square-32-ell-1",
                ["cohomology", "--config", "rank3_square", "--max-degree", "32", "--ell", "-1"]))
    out.append(("twist", ["twist", "--bicharacter", bicharacter_path]))
    for ex in LIE_EXAMPLES:
        out.append((f"lie-check-{ex}", ["lie-check", "--example", ex]))
        out.append((f"pbw-{ex}", ["pbw", "--example", ex]))
    out.append(("fk-n4-symmetrizer", ["fk", "--n", "4", "--max-degree", "5", "--symmetrizer"]))
    # past degree 6, where a change of the Nichols-dimension route shows first
    out.append(("fk-n4-symmetrizer-6",
                ["fk", "--n", "4", "--max-degree", "6", "--symmetrizer"]))
    for cfg in RANK3:
        out.append((f"nichols-{cfg}-9", ["nichols", "--config", cfg, "--max-degree", "9"]))
    # degrees 12 and 16 of the Nichols recursion, far past any dense word count
    out.append(("fk-n4-symmetrizer-default", ["fk", "--n", "4", "--symmetrizer"]))
    out.append(("nichols-rank3_triangle-16",
                ["nichols", "--config", "rank3_triangle", "--max-degree", "16"]))
    # top degree + 1 of two rank-3 configs (W16), and FK5's Nichols dimensions (W14)
    out.append(("nichols-rank3_triangle-19",
                ["nichols", "--config", "rank3_triangle", "--max-degree", "19"]))
    out.append(("nichols-rank3_super_a3-17",
                ["nichols", "--config", "rank3_super_a3", "--max-degree", "17"]))
    # top degree + 1 of rank3_square: the longest chain of Nichols layers
    out.append(("nichols-rank3_square-32",
                ["nichols", "--config", "rank3_square", "--max-degree", "32"]))
    out.append(("fk-n5-symmetrizer-7",
                ["fk", "--n", "5", "--max-degree", "7", "--symmetrizer"]))
    out.append(("fk-n3-rigidity", ["fk", "--n", "3", "--rigidity"]))
    # the 17 relations of FK4 through the group-degree criterion
    out.append(("fk-n4-rigidity", ["fk", "--n", "4", "--max-degree", "4", "--rigidity"]))
    # FK completion past n = 4: the fk tasks of the perfbench rewriting workload, and W12
    for n, top in ((5, 8), (6, 6), (6, 8)):
        out.append((f"fk-n{n}-{top}", ["fk", "--n", str(n), "--max-degree", str(top)]))
    out.append(("selfcheck", ["selfcheck"]))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="directory for the snapshot files")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    codes, walls = [], []
    with tempfile.TemporaryDirectory() as tmp:
        beta = Path(tmp) / "bicharacter.json"
        beta.write_text(json.dumps(BICHARACTER))
        undefined = Path(tmp) / "undefined_cartan.json"
        undefined.write_text(json.dumps(UNDEFINED_CARTAN))
        affine = Path(tmp) / "affine.json"
        affine.write_text(json.dumps(AFFINE))
        mixed = Path(tmp) / "mixed_conductors.json"
        mixed.write_text(json.dumps(MIXED))
        for name, cmd in commands(str(beta), str(undefined), str(affine), str(mixed)):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "nicholsalg", *cmd, "--json"],
                env=env, capture_output=True, text=True,
            )
            wall = time.perf_counter() - start
            walls.append(wall)
            (out / f"{name}.json").write_text(proc.stdout)
            codes.append(f"{name} {proc.returncode}\n")
            print(f"{name}: exit {proc.returncode} in {wall:.2f} s", file=sys.stderr)
    (out / "exit_codes.txt").write_text("".join(codes))
    short = [w for w in walls if w < SHORT_S]
    for what, ws in (("commands", walls), (f"commands under {SHORT_S} s", short)):
        if ws:
            print(f"{len(ws)} {what}: {sum(ws):.2f} s in all, median {statistics.median(ws):.3f} s",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
