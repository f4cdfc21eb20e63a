"""Self-test of the benchmark harness on the sub-second ``tiny`` workload.

    python3 perfbench/selftest.py

Checks that
- BENCHMARK.json lists exactly the metrics the harness emits, with the same
  units and directions, and the bounds README.md documents;
- an untraced run emits every end-to-end metric with its unit and passes;
- a deliberately corrupted expected value makes the run report a failure;
- two traced runs, in interpreters with different hash seeds, emit every
  per-layer metric with its unit and identical counts, and the layer self
  times plus ``trace.other_s`` sum to the traced wall time;
- in a directory holding only BENCHMARK.json and the benchmark's files, the
  benchmark exits nonzero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def bench(*args, hash_seed="0", cwd=ROOT, script=BENCH / "run.py"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(script), "--workload", "tiny", "--seed", "1", "--seconds", "1", *args]
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc, result


def readme_bounds():
    """{metric: bound} from the rows of README.md's tables whose last cell is a number."""
    out = {}
    for line in (BENCH / "README.md").read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) >= 2 and cells[0].startswith("`"):
            try:
                out[cells[0].strip("`")] = float(cells[-1])
            except ValueError:
                pass
    return out


def has_metrics(result, spec):
    return set(result["metrics"]) == {name for name, unit, *_ in spec} and all(
        result["metrics"][name]["unit"] == unit for name, unit, *_ in spec
    )


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"]) for m in config["end_to_end"]] == END_TO_END,
           "BENCHMARK.json end_to_end matches the harness")
    expect([(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == PER_LAYER,
           "BENCHMARK.json per_layer matches the tracer")
    expect({m["name"]: m["bound"] for m in config["end_to_end"]} == readme_bounds(),
           "BENCHMARK.json bounds match the ones README.md documents")

    proc, res = bench("--trace", "0")
    expect(res is not None and has_metrics(res, END_TO_END), "untraced run emits every end-to-end metric with its unit")
    expect(res is not None and res["correct"] and res["failed"] == 0, "untraced run is correct")

    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        tmp = Path(tmp)
        doc = json.loads((BENCH / "expected.json").read_text())
        key = "nichols --config rank1_zeta3 --max-degree 4"
        doc["tasks"][key]["results"]["total"] += 1
        bad = tmp / "expected.json"
        bad.write_text(json.dumps(doc))
        proc, res = bench("--trace", "0", "--expected", str(bad))
        expect(res is not None and res["failed"] > 0 and not res["correct"],
               "a corrupted expected value raises fail_frac above 0")

        out = tmp / "traces"
        runs = [bench("--trace", "1", "--out", str(out / h), hash_seed=h) for h in ("1", "2")]
        ok = all(res is not None and has_metrics(res, PER_LAYER) and res["correct"] for _, res in runs)
        expect(ok, "traced runs emit every per-layer metric with its unit")
        if ok:
            counts = [{n: r["metrics"][n]["value"] for n, u, _ in PER_LAYER if u == "count"} for _, r in runs]
            expect(counts[0] == counts[1], "count metrics are identical across two traced runs")
            rec = json.loads(next((out / "1").glob("trace-tiny-*.json")).read_text())
            layers = rec["self_s_by_layer"]
            total = sum(layers.values())
            expect(abs(total - rec["traced_wall_s"]) <= 1e-3 * rec["traced_wall_s"],
                   f"layer self times sum to the traced wall time ({total:.6f} vs {rec['traced_wall_s']:.6f} s)")
            expect(rec["metrics"]["trace.other_s"]["value"] == layers["task"],
                   "trace.other_s is the time no layer span covers")
            expect(len(rec["spans"]["name"]) == len(rec["spans"]["self"]) > 0, "spans are written out")

        bare = tmp / "bare"
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", "out", "tmp*"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc, res = bench("--trace", "0", cwd=bare, script=bare / BENCH.name / "run.py")
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the program's sources the benchmark exits nonzero and prints no result")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
