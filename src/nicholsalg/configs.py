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
from .relations import realization

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
            return realization(V)
        if spec["kind"] != "quotient":
            raise ConfigError(f"realization.kind: unknown value {spec['kind']!r}")
        try:
            return realization(V, spec["order"])
        except ValueError as e:
            raise ConfigError(f"realization.order: {e}") from e


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
        if not _is_int(n) or n < 3:
            raise ConfigError(f"n: need an integer >= 3, got {n!r}")
        return RunConfig(cname, "fk", data, budgets, n=n)

    if kind != "diagonal":
        raise ConfigError(f"kind: unknown value {kind!r}")
    rank = data.get("rank")
    if not _is_int(rank) or rank < 1:
        raise ConfigError(f"rank: need a positive integer, got {rank!r}")
    order = _cyclotomic_order(data)
    if "q_exponents" in data:
        q = scalar_matrix(data, "q_exponents", order, rank)
    elif "q_values" in data:
        q = scalar_matrix(data, "q_values", order, rank)
    else:
        raise ConfigError("need q_exponents or q_values")

    real = data.get("realization", {"kind": "canonical"})
    if not isinstance(real, dict) or "kind" not in real:
        raise ConfigError("realization: need an object with a 'kind' field")
    if real["kind"] == "quotient":
        N = real.get("order")
        if not _is_int(N) or N < 1:
            raise ConfigError(f"realization.order: need an integer >= 1, got {N!r}")

    cfg = RunConfig(
        cname,
        "diagonal",
        data,
        budgets,
        rank=rank,
        qmatrix=q,
        realization_spec=real,
    )
    cfg.realization()  # validates q_ij^order = 1
    return cfg


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _cyclotomic_order(data):
    order = data.get("cyclotomic_order", 1)
    if not _is_int(order) or order < 1:
        raise ConfigError(f"cyclotomic_order: need a positive integer, got {order!r}")
    return order


def scalar_matrix(data, field, order, rank=None):
    """data[field] as a rank x rank tuple of tuples of nonzero scalars.

    A field named *exponents holds integer exponents of zeta_order, any
    other field scalar texts such as "-1" or "zeta5^4". rank None accepts
    any square size. Raises ConfigError naming the first bad entry.
    """
    mat = data[field]
    if rank is None and isinstance(mat, list):
        rank = len(mat)
    if (
        not isinstance(mat, list)
        or len(mat) != rank
        or any(not isinstance(row, list) or len(row) != rank for row in mat)
    ):
        raise ConfigError(f"{field}: must be a {rank}x{rank} matrix, a list of rows")
    out = []
    for i, row in enumerate(mat):
        out.append([])
        for j, e in enumerate(row):
            if field.endswith("exponents"):
                if not _is_int(e):
                    raise ConfigError(f"{field}[{i}][{j}]: need an integer, got {e!r}")
                out[-1].append(zeta(order, e))
                continue
            try:
                v = parse_cyc(str(e), ambient_order=order)
            except Exception as err:
                raise ConfigError(f"{field}[{i}][{j}]: {err}") from err
            if not v:
                raise ConfigError(f"{field}[{i}][{j}] is zero")
            out[-1].append(v)
    return tuple(map(tuple, out))


def parse_bicharacter(data):
    """(values, orders, skew) of a bicharacter dict, validated like parse_config."""
    if not isinstance(data, dict):
        raise ConfigError("bicharacter root must be a JSON object")
    order = _cyclotomic_order(data)
    field = next((f for f in ("values_exponents", "values") if f in data), None)
    if field is None:
        raise ConfigError("bicharacter file needs values or values_exponents")
    values = scalar_matrix(data, field, order)
    orders = data.get("orders")
    if orders is not None and (
        not isinstance(orders, list) or any(not _is_int(o) or o < 0 for o in orders)
    ):
        raise ConfigError(f"orders: need a list of integers >= 0, got {orders!r}")
    skew = data.get("skew", False)
    if not isinstance(skew, bool):
        raise ConfigError(f"skew: need true or false, got {skew!r}")
    return values, orders, skew


def read_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e


def load_config(path):
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_config(read_json(path), name=name)


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
