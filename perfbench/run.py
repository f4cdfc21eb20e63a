"""Closed-loop benchmark of the nicholsalg command line, one workload per run.

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process, one thread: each task is one in-process call of
``nicholsalg.cli.main([..., "--json"])`` with stdout captured, and the next
task starts when the previous one has returned. Every report's ``results``
is compared with ``expected.json``; a task fails if it raises, exits with
another code than expected, or reports different results.

With ``--trace 0`` the run times whole passes over the workload's tasks for
``--seconds`` and reports the end-to-end metrics. With ``--trace 1`` it runs
every task untraced and traced (see ``tracer.py``) in each of two passes,
writes the spans to ``perfbench/out/`` and reports the per-layer metrics.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
``--workload all`` runs each benchmark workload in its own interpreter and
prints a table; it prints no JSON line.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from calibration import REFERENCE_S, kernel_seconds  # noqa: E402
from workloads import config_names, make_tasks, task_key  # noqa: E402

BENCHMARK_WORKLOADS = ("symmetrizer", "rewriting", "cohomology")
# (name, unit) of the end-to-end metrics a --trace 0 run emits
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUP_SAMPLES = 15
OVERHEAD_PASSES = 2  # untraced and traced samples of each task in a --trace 1 run


class SetupError(Exception):
    pass


def setup():
    """Import the checkout's ``nicholsalg.cli`` into this process."""
    if not (SRC / "nicholsalg" / "__init__.py").is_file():
        raise SetupError(f"no nicholsalg package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("nicholsalg.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported {cli.__file__}, not the checkout's package")
    return cli


# one cold set-up: import nicholsalg.cli and resolve the configs named in argv
COLD_SETUP = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import nicholsalg.cli
from nicholsalg.configs import resolve_config
for name in sys.argv[2:]:
    resolve_config(name)
print(time.perf_counter() - t0)
"""


def setup_seconds(configs):
    """Median over SETUP_SAMPLES set-ups, each in a fresh interpreter.

    A fresh interpreter has none of the standard-library modules the package
    imports loaded yet, so every sample pays the whole import, as a user's
    first command does. The median damps the host's noise on a figure of a
    few tens of milliseconds. Not normalised to the host's speed: a cold
    import is mostly reading and unmarshalling files, and dividing by the
    calibration kernel's time made it no steadier.
    """
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", COLD_SETUP, str(SRC), *configs],
                              stdout=subprocess.PIPE, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"cold set-up exited with code {proc.returncode}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def load_expected(path):
    try:
        with open(path) as f:
            return json.load(f)["tasks"]
    except (OSError, ValueError, KeyError) as e:
        raise SetupError(f"expected results unreadable: {path}: {e}") from e


def run_task(cli, argv, expected, runner=None):
    """Run one task; returns (ok, seconds). Failures are reported on stderr."""
    want = expected.get(task_key(argv))
    buf = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if runner is None:
                code = cli.main(argv + ["--json"])
            else:
                code = runner(cli.main, argv + ["--json"])
    except Exception:
        dt = time.perf_counter() - t0
        print(f"task failed: {task_key(argv)}\n{traceback.format_exc()}", file=sys.stderr)
        return False, dt
    dt = time.perf_counter() - t0
    if want is None:
        why = "no expected results"
    elif code != want["exit_code"]:
        why = f"exit code {code}, expected {want['exit_code']}"
    else:
        try:
            results = json.loads(buf.getvalue())["results"]
        except (ValueError, KeyError) as e:
            why = f"unreadable report: {e}"
        else:
            why = None if results == want["results"] else "results differ from expected"
    if why:
        print(f"task failed: {task_key(argv)}: {why}", file=sys.stderr)
    return why is None, dt


def measure(cli, tasks, expected, seconds, rng):
    """Closed loop over the tasks for about ``seconds``.

    The first pass runs every task in the seeded order. Later passes reshuffle
    and start a task only if its last duration still fits in the window, so
    the run never outlasts the window by more than the mandatory first pass.
    The calibration kernel is timed before the first task and after each
    one. Returns ({task key: [(seconds, kernel seconds)]}, attempted,
    failed), the kernel time being the mean of the two around the task.
    """
    samples = {task_key(argv): [] for argv in tasks}
    attempted = failed = 0
    order = list(tasks)
    start = time.perf_counter()
    first = True
    cal = kernel_seconds()
    while True:
        ran = False
        for argv in order:
            key = task_key(argv)
            if not first and time.perf_counter() - start + samples[key][-1][0] > seconds:
                continue
            ok, dt = run_task(cli, argv, expected)
            attempted += 1
            failed += not ok
            cal_after = kernel_seconds()
            samples[key].append((dt, (cal + cal_after) / 2))
            cal = cal_after
            ran = True
        if not ran:
            break
        first = False
        rng.shuffle(order)
    return samples, attempted, failed


def run_untraced(cli, tasks, expected, seconds, seed, setup_s):
    """End-to-end metrics of one timed loop.

    Times are normalised to the host's speed (see ``calibration.py``): a
    task's figure is the sum of its durations in the run over the sum of the
    kernel times measured around them, times ``REFERENCE_S``. The raw wall
    times are printed alongside.
    """
    samples, attempted, failed = measure(cli, tasks, expected, seconds, random.Random(seed))
    norm = {key: REFERENCE_S * sum(dt for dt, _ in v) / sum(k for _, k in v) for key, v in samples.items()}
    wall = sum(norm.values())
    raw = sum(statistics.mean(dt for dt, _ in v) for v in samples.values())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs = min(len(v) for v in samples.values())
    print(f"wall_s      {wall:10.4f} s   one pass at reference host speed, "
          f">= {runs} run(s) of each of {len(tasks)} tasks (raw: {raw:.4f} s, sum of per-task mean durations)")
    for key, v in samples.items():
        dts = [dt for dt, _ in v]
        print(f"  norm {norm[key]:8.4f} s  raw min {min(dts):8.4f} s  median {statistics.median(dts):8.4f} s"
              f"  x{len(v):<3d} {key}")
    print(f"setup_s     {setup_s:10.4f} s   median of {SETUP_SAMPLES} set-ups in fresh interpreters")
    print(f"peak_rss_mb {rss_mb:10.1f} MB")
    print(f"fail_frac   {failed / attempted:10.4f} frac ({failed} of {attempted} tasks)")
    values = {"wall_s": wall, "setup_s": setup_s, "peak_rss_mb": rss_mb}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return attempted, failed, metrics


def run_traced(cli, tasks, expected, workload, seed, out_dir):
    """Per-layer metrics of a traced run.

    Each of OVERHEAD_PASSES passes runs every task untraced and then traced,
    under a fresh ``Tracer``, so a task's two samples lie close in time. The
    spans and counts are those of the last pass; ``trace.overhead_frac``
    compares the sums of per-task minima.
    """
    from tracer import Tracer

    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("nicholsalg.")]
    attempted = failed = 0
    untraced_min, traced_min = {}, {}
    for _ in range(OVERHEAD_PASSES):
        tracer = Tracer(seed)
        for argv in tasks:
            key = task_key(argv)
            ok, dt = run_task(cli, argv, expected)
            untraced_min[key] = min(dt, untraced_min.get(key, dt))
            tracer.install(modules)
            try:
                ok2, dt2 = run_task(cli, argv, expected, tracer.run_task)
            finally:
                tracer.uninstall()
            traced_min[key] = min(dt2, traced_min.get(key, dt2))
            attempted += 2
            failed += (not ok) + (not ok2)
    for name in tracer.missing:
        print(f"warning: not traced: {name}", file=sys.stderr)
    traced = tracer.wall()
    untraced = sum(untraced_min.values())
    overhead = sum(traced_min.values()) / untraced - 1.0
    metrics = tracer.metrics(overhead)
    layers = tracer.self_by_layer()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    record = {
        "workload": workload,
        "seed": seed,
        "tasks": [task_key(argv) for argv in tasks],
        "traced_wall_s": traced,
        "untraced_min_s": untraced,
        "traced_min_s": sum(traced_min.values()),
        "metrics": metrics,
        **tracer.dump(),
    }
    with open(path, "w") as f:
        json.dump(record, f)
    print(f"traced wall {traced:.4f} s; sums of per-task minima over {OVERHEAD_PASSES} passes: "
          f"untraced {untraced:.4f} s, traced {sum(traced_min.values()):.4f} s; spans written to {path}")
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {s:10.4f} s self")
    print(f"  {'sum':12s} {sum(layers.values()):10.4f} s")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    return attempted, failed, metrics


def run_all(args):
    """Each benchmark workload in a fresh interpreter; prints a summary table."""
    rows = []
    for workload in BENCHMARK_WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), file=sys.stderr)
        rows.append((workload, json.loads(lines[-1])))
    for workload, res in rows:
        frac = res["failed"] / res["attempted"]
        print(f"[{workload}] fail_frac = {frac:.4f} frac ({res['failed']} of {res['attempted']})")
        for name, m in res["metrics"].items():
            print(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}")
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=BENCH / "expected.json")
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        tasks = make_tasks(args.workload, args.seed)
    except KeyError:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        expected = load_expected(args.expected)
        cli = setup()
        setup_s = None if args.trace else setup_seconds(config_names(tasks))
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.trace:
        attempted, failed, metrics = run_traced(cli, tasks, expected, args.workload, args.seed, args.out)
    else:
        attempted, failed, metrics = run_untraced(cli, tasks, expected, args.seconds, args.seed, setup_s)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
