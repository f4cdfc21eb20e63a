"""Workload definitions: the CLI tasks each named workload runs.

A task is one argv list for ``nicholsalg.cli.main``; its key (the argv
joined by spaces) indexes ``expected.json``. The seed only orders the tasks
and picks the homogeneity degree of the seeded cohomology task, so every
seed runs the same kind and amount of work.

Every task takes at most about 1.5 s, so that a run's window holds ten or
more samples of each.
"""

import random

# Shipped diagonal configs of rank >= 2, plus the rank-1 config of largest
# order; fixed here so that a config added later does not change the workload.
REWRITE_CONFIGS = (
    "a2_cartan_zeta3",
    "a2_super",
    "b2",
    "rank3_square",
    "rank3_super_a3",
    "rank3_triangle",
    "rank1_zeta6",
)

SEEDED_ELLS = (-1, -2, -3)


def _symmetrizer(rng):
    return [
        ["nichols", "--config", "rank3_triangle", "--max-degree", "6"],
        ["nichols", "--config", "rank3_super_a3", "--max-degree", "6"],
        ["nichols", "--config", "b2", "--max-degree", "9"],
        ["nichols", "--config", "a2_cartan_zeta3", "--max-degree", "8"],
        ["fk", "--n", "4", "--max-degree", "4", "--symmetrizer"],
    ]


def _rewriting(rng):
    tasks = [
        ["fk", "--n", "6", "--max-degree", "6"],
        ["fk", "--n", "5", "--max-degree", "8"],
    ]
    for name in REWRITE_CONFIGS:
        tasks.append(["rewrite", "--config", name, "--max-degree", "16"])
    return tasks


def _cohomology(rng):
    ell = rng.choice(SEEDED_ELLS)
    return [
        ["cohomology", "--config", "a2_super", "--ell", str(ell)],
        ["cohomology", "--config", "fk3"],
        ["cohomology", "--config", "rank1_zeta6"],
        ["epsilon", "--config", "fk3"],
        ["epsilon", "--config", "a2_super"],
    ]


def _tiny(rng):
    """Sub-second tasks touching every traced layer; used by the self-test."""
    return [
        ["nichols", "--config", "rank1_zeta3", "--max-degree", "4"],
        ["rewrite", "--config", "a2_super", "--max-degree", "8"],
        ["cohomology", "--config", "rank1_m1"],
    ]


WORKLOADS = {
    "symmetrizer": _symmetrizer,
    "rewriting": _rewriting,
    "cohomology": _cohomology,
    "tiny": _tiny,
}


def task_key(argv):
    return " ".join(argv)


def make_tasks(workload, seed):
    """The workload's tasks for this seed, in the seeded order."""
    rng = random.Random(seed)
    tasks = WORKLOADS[workload](rng)
    rng.shuffle(tasks)
    return tasks


def all_task_variants(workload):
    """Every task any seed can produce, for building the expected file."""
    seen = {}
    for seed in range(64):
        for argv in make_tasks(workload, seed):
            seen.setdefault(task_key(argv), argv)
    return [seen[k] for k in sorted(seen)]


def config_names(tasks):
    """Config names the tasks resolve (fk tasks build their space from --n)."""
    names = []
    for argv in tasks:
        if "--config" in argv:
            name = argv[argv.index("--config") + 1]
            if name not in names:
                names.append(name)
    return names
