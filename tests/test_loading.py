"""Each package module runs on first use: what a command leaves unrun.

Every check runs in a fresh interpreter, because this one has run every
module already. A module has run once sys.modules holds it as a plain
module; a registered module that has not run is a LazyLoader module.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import nicholsalg

PACKAGE = Path(nicholsalg.__file__).resolve().parent

REPORT = """
import json, sys, types
mods = {n.split(".", 1)[1]: m for n, m in sys.modules.items() if n.startswith("nicholsalg.")}
print(json.dumps({"registered": sorted(mods),
                  "run": sorted(n for n, m in mods.items() if type(m) is types.ModuleType)}))
"""


def fresh(code):
    """{"registered", "run"}: the nicholsalg modules in sys.modules, and those
    that have run, after code in a fresh interpreter."""
    script = f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n{code}\n{REPORT}"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_config_resolution_run_four_modules():
    got = fresh(
        "import nicholsalg.cli\n"
        "from nicholsalg.configs import resolve_config, shipped_config_names\n"
        "for name in shipped_config_names():\n"
        "    resolve_config(name)"
    )
    assert got["run"] == ["braided", "cli", "configs", "cyclo"]


@pytest.mark.parametrize("argv, used, unused", [
    (["nichols", "--config", "b2", "--max-degree", "3"], "tensoralg",
     {"cohomology", "weyl", "relations", "liealg", "bialgebra", "rewriting", "fk"}),
    # fk reaches bialgebra as a module, for fk_bialgebra only
    (["fk", "--n", "5", "--max-degree", "4"], "fk",
     {"cohomology", "weyl", "relations", "liealg", "bialgebra", "tensoralg"}),
], ids=["nichols", "fk"])
def test_a_command_runs_only_what_it_uses(argv, used, unused):
    got = fresh(
        "import contextlib, io\n"
        "from nicholsalg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv + ['--json']!r}) == 0"
    )
    assert used in got["run"] and not unused & set(got["run"])


def test_every_module_is_registered_before_it_runs():
    """The lazy tuple names every module of the package but cli and __main__,
    and each sits in sys.modules right after `import nicholsalg.cli`, where a
    scan of sys.modules (as perfbench/tracer.py makes) finds it."""
    files = sorted(p.stem for p in PACKAGE.glob("*.py"))
    lazy = sorted(nicholsalg._LAZY)
    assert lazy == [f for f in files if f not in ("cli", "__main__", "__init__")]
    got = fresh("import nicholsalg.cli")
    assert got["registered"] == sorted(lazy + ["cli"])
    assert all(getattr(nicholsalg, name) is sys.modules[f"nicholsalg.{name}"] for name in lazy)
