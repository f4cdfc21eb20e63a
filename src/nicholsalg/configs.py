"""Run configurations: JSON ingestion, validation, and shipped examples.

A config describes either a diagonal braided space (cyclotomic order plus a
matrix of exponents or explicit values) or a symmetric-group quadratic
algebra, together with the realization choice and computation budgets.
"""

import json
import os
from dataclasses import dataclass

from .braided import build_diagonal
from .cyclo import parse_cyc, zeta
from .relations import canonical_realization, quotient_realization

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "configs")

DEFAULT_BUDGETS = {"max_degree": 6, "cartan_cap": 50, "object_cap": 64}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    name: str
    kind: str  # "diagonal" | "fk"
    raw: dict
    budgets: dict
    # diagonal
    rank: int = None
    qmatrix: tuple = None
    realization_spec: dict = None
    # fk
    n: int = None

    def space(self):
        if self.kind != "diagonal":
            raise ConfigError(f"{self.name}: needs a diagonal config, got kind {self.kind!r}")
        return build_diagonal([list(row) for row in self.qmatrix])

    def realization(self, V=None):
        if self.kind != "diagonal":
            raise ConfigError(f"{self.name}: needs a diagonal config, got kind {self.kind!r}")
        if V is None:
            V = self.space()
        spec = self.realization_spec or {"kind": "canonical"}
        if spec["kind"] == "canonical":
            real = canonical_realization(V)
        elif spec["kind"] == "quotient":
            real = quotient_realization(V, spec["order"])
        else:
            raise ConfigError(f"realization.kind: unknown value {spec['kind']!r}")
        _validate_realization(V, real)
        return real


def _validate_realization(V, real):
    for i in range(V.rank):
        for j in range(V.rank):
            val = real.char_value(real.chi[j], real.g[i])
            if not (val - V.q(i, j)).is_zero():
                raise ConfigError(
                    f"realization: chi_{j}(g_{i}) = {val} != q_{i}{j}"
                )


def parse_config(data, name=None):
    """Validate a config dict; raises ConfigError naming the failing field."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    kind = data.get("kind", "diagonal")
    cname = data.get("name", name or "<unnamed>")
    budgets = dict(DEFAULT_BUDGETS)
    given = data.get("budgets", {})
    if not isinstance(given, dict):
        raise ConfigError(f"budgets: need an object, got {given!r}")
    for key, value in given.items():
        if key not in DEFAULT_BUDGETS:
            raise ConfigError(f"budgets.{key}: not one of {', '.join(DEFAULT_BUDGETS)}")
        if not _is_int(value) or value < 0:
            raise ConfigError(f"budgets.{key}: need an integer >= 0, got {value!r}")
        budgets[key] = value

    if kind == "fk":
        n = data.get("n")
        if not isinstance(n, int) or n < 3:
            raise ConfigError(f"n: need an integer >= 3, got {n!r}")
        return RunConfig(cname, "fk", data, budgets, n=n)

    if kind != "diagonal":
        raise ConfigError(f"kind: unknown value {kind!r}")
    rank = data.get("rank")
    if not isinstance(rank, int) or rank < 1:
        raise ConfigError(f"rank: need a positive integer, got {rank!r}")
    order = data.get("cyclotomic_order", 1)
    if not isinstance(order, int) or order < 1:
        raise ConfigError(f"cyclotomic_order: need a positive integer, got {order!r}")

    if "q_exponents" in data:
        exps = data["q_exponents"]
        _check_square(exps, rank, "q_exponents")
        for i, row in enumerate(exps):
            for j, e in enumerate(row):
                if not _is_int(e):
                    raise ConfigError(f"q_exponents[{i}][{j}]: need an integer, got {e!r}")
        q = tuple(
            tuple(zeta(order, e) for e in row) for row in exps
        )
    elif "q_values" in data:
        vals = data["q_values"]
        _check_square(vals, rank, "q_values")
        q = []
        for i, row in enumerate(vals):
            qrow = []
            for j, text in enumerate(row):
                try:
                    v = parse_cyc(str(text), ambient_order=order)
                except Exception as e:
                    raise ConfigError(f"q_values[{i}][{j}]: {e}") from e
                if v.is_zero():
                    raise ConfigError(f"q_values[{i}][{j}] is zero")
                qrow.append(v)
            q.append(tuple(qrow))
        q = tuple(q)
    else:
        raise ConfigError("need q_exponents or q_values")

    real = data.get("realization", {"kind": "canonical"})
    if not isinstance(real, dict) or "kind" not in real:
        raise ConfigError("realization: need an object with a 'kind' field")
    if real["kind"] == "quotient" and not isinstance(real.get("order"), int):
        raise ConfigError("realization.order: need an integer for quotient kind")

    cfg = RunConfig(
        cname,
        "diagonal",
        data,
        budgets,
        rank=rank,
        qmatrix=q,
        realization_spec=real,
    )
    cfg.realization()  # validates chi_j(g_i) = q_ij
    return cfg


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_square(mat, rank, field_name):
    if len(mat) != rank or any(len(row) != rank for row in mat):
        raise ConfigError(f"{field_name}: must be a {rank}x{rank} matrix")


def load_config(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_config(data, name=name)


def shipped_config_names():
    return sorted(
        os.path.splitext(f)[0]
        for f in os.listdir(CONFIG_DIR)
        if f.endswith(".json")
    )


def load_shipped(name):
    path = os.path.join(CONFIG_DIR, name + ".json")
    if not os.path.exists(path):
        raise ConfigError(
            f"no shipped config {name!r}; available: {', '.join(shipped_config_names())}"
        )
    return load_config(path)


def resolve_config(ref):
    """A path if it exists, otherwise a shipped config name."""
    if os.path.exists(ref):
        return load_config(ref)
    return load_shipped(ref)
