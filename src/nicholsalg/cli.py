"""Command-line front end.

Subcommands dispatch into the library modules; configs are shipped names or
JSON paths. Reports carry {command, config_echo, results, warnings} and are
printed as text tables or JSON. Exit codes: 0 success, 2 for undecided or
budget-limited partial results, 1 for errors.

The compute modules are called through their module objects
(weyl.enumerate_roots, ...), never bound by name here: each is loaded
lazily (see the package __init__) and runs when a command first uses it,
so importing cli runs only cli, configs, braided and cyclo.
"""

import argparse
import functools
import json
import sys

from . import bialgebra, cohomology, fk, liealg, relations, rewriting, tensoralg, weyl
from .braided import check_braid_equation
from .configs import (
    ConfigError,
    load_shipped,
    parse_bicharacter,
    read_json,
    resolve_config,
    shipped_config_names,
)
from .cyclo import CycNumber, format_cyc, zeta

# each reaches into liealg only when called
LIE_EXAMPLES = {
    "heisenberg": lambda: liealg.heisenberg_flip(),
    "superline": lambda: liealg.superline(),
    "color_pair": lambda: liealg.color_pair(),
    "sl2": lambda: liealg.sl2_flip(),
    "color_triple": lambda: liealg.color_triple(zeta(5)),
}


def _fmt(x):
    if isinstance(x, CycNumber):
        return format_cyc(x)
    if isinstance(x, dict):
        return {str(_fmt(k)): _fmt(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    return x


def _print_text(results, indent=""):
    for k, v in results.items():
        if isinstance(v, dict):
            print(f"{indent}{k}:")
            _print_text(v, indent + "  ")
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            print(f"{indent}{k}:")
            for item in v:
                parts = "  ".join(f"{kk}={vv}" for kk, vv in item.items())
                print(f"{indent}  {parts}")
        else:
            print(f"{indent}{k}: {v}")


def _diag_config(args):
    cfg = resolve_config(args.config)
    if cfg.kind != "diagonal":
        raise ConfigError(f"subcommand needs a diagonal config, got kind {cfg.kind!r}")
    return cfg


def _max_degree(args, default):
    """--max-degree if given, else default; a negative degree is bad input."""
    d = getattr(args, "max_degree", None)
    if d is None:
        return default
    if d < 0:
        raise ConfigError(f"--max-degree: need a degree >= 0, got {d}")
    return d


def _root_data(cfg, V):
    """Root data of V within the config's Cartan and object caps."""
    return weyl.enumerate_roots(
        V, cap=cfg.budgets["cartan_cap"], object_cap=cfg.budgets["object_cap"]
    )


def _catalog_elements(cfg, V):
    """Explicit relation elements of the catalog, plus one warning per
    relation that has none; elements are None if the root system is not
    shown finite within the caps."""
    rs = _root_data(cfg, V)
    if not rs.finite:
        return None, ["root system not finite"]
    elems = []
    warnings = []
    for inst in relations.generate_relations(V, rs):
        if inst.element is None:
            warnings.append(f"no explicit element for {inst.family} {inst.participants}")
        else:
            elems.append(inst.element)
    return elems, warnings


def cmd_diagram(args):
    cfg = _diag_config(args)
    V = cfg.space()
    try:
        diag, cmat, kinds = weyl.diagram_summary(V, cap=cfg.budgets["cartan_cap"])
    except ValueError as e:  # a Cartan integer undefined within the cap
        return 2, cfg, {}, [str(e)]
    results = {
        "vertices": [format_cyc(v) for v in diag.vertices],
        "edges": {f"{i}-{j}": format_cyc(v) for (i, j), v in diag.edges.items()},
        "cartan_matrix": [list(row) for row in cmat],
        "vertex_kinds": list(kinds),
    }
    return 0, cfg, results, []


def cmd_roots(args):
    cfg = _diag_config(args)
    V = cfg.space()
    rs = _root_data(cfg, V)
    results = {
        "finite": rs.finite,
        "objects": rs.objects,
        "positive_roots": [list(r) for r in rs.positive_roots],
        "cartan_roots": [list(r) for r in rs.cartan_roots],
    }
    if not rs.finite:
        return 2, cfg, results, ["root system not shown finite within caps"]
    return 0, cfg, results, []


def cmd_relations(args):
    cfg = _diag_config(args)
    V = cfg.space()
    real = cfg.realization(V)
    rs = _root_data(cfg, V)
    if not rs.finite:
        return 2, cfg, {"finite": False}, ["root system not finite; no relation list"]
    instances = relations.generate_relations(V, rs)
    rows = []
    for inst in instances:
        _, _, scalar = relations.g_chi(real, inst)
        rows.append(
            {
                "family": inst.family,
                "participants": str(inst.participants),
                "degree": str(inst.degree),
                "chi_R(g_R)": format_cyc(scalar),
            }
        )
    return 0, cfg, {"count": len(instances), "relations": rows}, []


def cmd_rigidity(args):
    cfg = _diag_config(args)
    V = cfg.space()
    real = cfg.realization(V)
    rs = _root_data(cfg, V)
    try:
        verdict, reports = relations.rigidity_verdict(V, rs, real, pre_nichols=args.pre_nichols)
    except ValueError as e:
        return 2, cfg, {"verdict": "NotDecided"}, [str(e)]
    failing = [
        {
            "family": rep["instance"].family,
            "participants": str(rep["instance"].participants),
            "clashes": rep["clashes"],
        }
        for rep in reports
        if not rep["ok"]
    ]
    results = {
        "verdict": verdict,
        "relation_count": len(reports),
        "pre_nichols": args.pre_nichols,
        "failing": failing,
    }
    return (0 if verdict == "Rigid" else 2), cfg, results, []


def cmd_nichols(args):
    cfg = _diag_config(args)
    V = cfg.space()
    dims = tensoralg.nichols_dims(V, _max_degree(args, cfg.budgets["max_degree"]))
    return 0, cfg, {"dims": dims, "total": sum(dims)}, []


def cmd_rewrite(args):
    cfg = _diag_config(args)
    max_degree = _max_degree(args, cfg.budgets["max_degree"])
    V = cfg.space()
    elems, warnings = _catalog_elements(cfg, V)
    if elems is None:
        return 2, cfg, {"finite": False}, warnings
    dims, _ = rewriting.rewrite_dims(V.rank, elems, max_degree)
    return 0, cfg, {"dims": dims, "total": sum(dims)}, warnings


class NotInIdeal(ValueError):
    """A defining relation that does not vanish in B(V)."""


def _finite_bialgebra(cfg, args):
    """(B, relations, warnings): B = B(V) with its category, read off the
    Nichols layers, and the relations meant to present it, the catalog's
    explicit elements or fk_relations; B is None if a budget is hit.

    The relations are the checked route: each must vanish in B, else
    NotInIdeal names it.
    """
    max_degree = _max_degree(args, cfg.budgets["max_degree"])
    if cfg.kind == "fk":
        if cfg.n != 3:
            return None, None, [f"bialgebra construction limited to n = 3, got {cfg.n}"]
        try:
            B, rels = fk.fk_bialgebra(3, max_degree)
        except bialgebra.NotFinite as e:
            return None, None, [f"budget: {e}"]
        warnings = []
    else:
        V = cfg.space()
        rels, warnings = _catalog_elements(cfg, V)
        if rels is None:
            return None, None, warnings
        try:
            B = bialgebra.from_nichols(V, max_degree)
        except bialgebra.NotFinite as e:
            return None, None, warnings + [f"budget: {e}"]
        bialgebra.attach_diagonal_category(B, cfg.realization(V))
    for rel in rels:
        if B.vec_of(rel):
            raise NotInIdeal(f"relation is not in the Nichols ideal: {rel}")
    return B, rels, warnings


def cmd_cohomology(args):
    cfg = resolve_config(args.config)
    B, _, warnings = _finite_bialgebra(cfg, args)
    if B is None:
        return 2, cfg, {}, warnings
    if args.ell is not None:
        ells = [args.ell]
    else:
        ells = range(-1, -2 * B.top_degree - 1, -1)
    table = {}
    all_zero = True
    for ell in ells:
        r = cohomology.truncated_H2(B, ell)
        table[ell] = r
        if r["H"]:
            all_zero = False
    results = {
        "dims": B.dims(),
        "H2_by_degree": {str(k): v for k, v in table.items()},
        "all_zero": all_zero,
    }
    return 0, cfg, results, warnings


def cmd_epsilon(args):
    cfg = resolve_config(args.config)
    B, rels, warnings = _finite_bialgebra(cfg, args)
    if B is None:
        return 2, cfg, {}, warnings
    md = cohomology.kernel_M(B)
    # the relations' own count of minimal relations, the second route to
    # dim M; completed through 2 * top, it covers every degree of md["dims"]
    minimal = rewriting.rewrite_dims(B.V.rank, rels, 2 * B.top_degree)[1].minimal
    eh = cohomology.epsilon_H2(B)
    hm = cohomology.hom_M_dim(B, md)
    results = {
        "M_dims": {str(k): v for k, v in md["dims"].items()},
        "M_dims_word_route": {
            str(d): minimal[d] for d in range(2, min(5, 2 * B.top_degree) + 1)
        },
        "H2_eps": eh,
        "dim_Hom_M_U": hm,
        "identity_holds": eh["H"] == hm,
    }
    apart = [d for d, v in md["dims"].items() if minimal[d] != v]
    if apart:
        d = apart[0]
        warnings.append(f"dim M routes disagree first at degree {d}: {md['dims'][d]} "
                        f"from structure constants, {minimal[d]} from the completion")
    return (0 if eh["H"] == hm and not apart else 1), cfg, results, warnings


def _twist_of_file(path):
    """scheunert_cocycle of a bicharacter file; one it cannot twist is a ConfigError."""
    values, orders, skew = parse_bicharacter(read_json(path))
    try:
        return liealg.scheunert_cocycle(liealg.AbelianBicharacter(values, orders, skew=skew))
    except ValueError as e:
        raise ConfigError(f"bicharacter: {e}") from e


def cmd_twist(args):
    sigma, beta_sigma = _twist_of_file(args.bicharacter)
    results = {
        "sigma": [[format_cyc(v) for v in row] for row in sigma.values],
        "beta_sigma": [[format_cyc(v) for v in row] for row in beta_sigma.values],
        "beta_sigma_is_sign": beta_sigma.is_sign(),
    }
    return 0, None, results, []


def cmd_lie_check(args):
    L = LIE_EXAMPLES[args.example]()
    rep = liealg.check_braided_lie(L)
    results = {
        axiom: {"ok": ok, "witness": str(w) if w else None}
        for axiom, (ok, w) in rep.items()
    }
    return 0, None, results, []


def cmd_pbw(args):
    L = LIE_EXAMPLES[args.example]()
    r = liealg.enveloping_dims(L, _max_degree(args, 4))
    match = r["gr"] == r["nichols"]
    results = {
        "filtered": r["filtered"],
        "gr": r["gr"],
        "nichols": r["nichols"],
        "match": match,
    }
    return (0 if match else 2), None, results, []


def cmd_fk(args):
    if args.n < 3:
        raise ConfigError(f"n: need n >= 3, got {args.n}")
    max_degree = _max_degree(args, 4 if args.n == 3 else 12)
    V = fk.build_fk_space(args.n)  # checks the braid equation, once per command
    dims = fk.fk_dims_rewriting(args.n, max_degree)
    results = {"n": args.n, "dims": dims, "total": sum(dims)}
    warnings, wrong = [], []
    if args.symmetrizer:
        sdims = tensoralg.nichols_dims(V, max_degree)
        results["symmetrizer_dims"] = sdims
        results["routes_agree"] = sdims == dims
        apart = [d for d, (s, r) in enumerate(zip(sdims, dims)) if s != r]
        # B(V) is a quotient of the quadratic algebra, equal to it for n <= 5
        # (open for n >= 6), so a symmetrizer dim above the rewriting dim is
        # always wrong, and any difference is for n <= 5
        wrong = [d for d in apart if args.n <= 5 or sdims[d] > dims[d]]
        if apart:
            d = (wrong or apart)[0]
            warnings.append(f"dim routes disagree at degree {d}: {sdims[d]} from the "
                            f"symmetrizer, {dims[d]} from rewriting")
    if args.rigidity:
        verdict, details = fk.fk_rigidity(args.n)
        results["rigidity"] = verdict
        if details:
            results["rigidity_details"] = [str(d) for d in details]
    code = 0
    if args.rigidity and results.get("rigidity") != "Rigid":
        code = 2
    return (1 if wrong else code), None, results, warnings


def cmd_selfcheck(args):
    warnings = []
    results = {}
    ok_all = True

    # each space is built once: the four whose d∘d is checked below with
    # their bialgebras. build_fk_space, which fk3's _finite_bialgebra calls,
    # checks the braid equation itself and raises RuntimeError where it fails
    squared = ("rank1_m1", "rank1_zeta3", "rank1_zeta4", "fk3")
    braid, bialgebras = {}, {}
    for name in shipped_config_names():
        cfg = load_shipped(name)
        ok = cfg.kind == "fk" or check_braid_equation(cfg.space())[0]
        try:
            if name in squared:
                bialgebras[name], _, warn = _finite_bialgebra(cfg, args)
                warnings += warn
            elif cfg.kind == "fk":
                fk.build_fk_space(cfg.n)
        except RuntimeError:
            if cfg.kind != "fk":
                raise
            bialgebras[name], ok = None, False
        braid[name] = ok
        ok_all = ok_all and ok
    results["braid_equation"] = braid

    # truncated_H2 checks d∘d = 0 exactly on every degree-ell morphism
    # h: B+ -> B+ (_coboundary_rank); -2 top..2 top holds every ell with a
    # (1, 1), (2, 1) or (1, 2) unknown, and h_entries counts the h checked
    square, h_entries = {}, {}
    for name in squared:
        B = bialgebras[name]
        ok, count = B is not None, 0
        if ok:
            ells = range(-2 * B.top_degree, 2 * B.top_degree + 1)
            try:
                for ell in ells:
                    cohomology.truncated_H2(B, ell)
            except RuntimeError:
                ok = False
            count = sum(len(cohomology.map_unknowns(B, 1, 1, ell)) for ell in ells)
        square[name], h_entries[name] = ok, count
        ok_all = ok_all and ok
    results["total_differential_squares_to_zero"] = square
    results["d_squared_h_entries"] = h_entries

    results["all_green"] = ok_all
    return (0 if ok_all else 1), None, results, warnings


COMMANDS = {
    "diagram": cmd_diagram,
    "roots": cmd_roots,
    "relations": cmd_relations,
    "rigidity": cmd_rigidity,
    "nichols": cmd_nichols,
    "rewrite": cmd_rewrite,
    "cohomology": cmd_cohomology,
    "epsilon": cmd_epsilon,
    "twist": cmd_twist,
    "lie-check": cmd_lie_check,
    "pbw": cmd_pbw,
    "fk": cmd_fk,
    "selfcheck": cmd_selfcheck,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input (exit 1); exit 2 means "not decided"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="nicholsalg",
        description="Diagonal and symmetric-group braided algebra toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, config=False, help=""):
        p = sub.add_parser(name, help=help)
        if config:
            p.add_argument("--config", required=True, help="shipped config name or JSON path")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    add("diagram", config=True, help="vertex/edge labels and Cartan data")
    add("roots", config=True, help="positive roots and Cartan roots")
    add("relations", config=True, help="defining relation instances with degrees")
    p = add("rigidity", config=True, help="(g_R, chi_R) rigidity criterion")
    p.add_argument("--pre-nichols", action="store_true", help="drop Cartan root power relations")
    p = add("nichols", config=True, help="graded dims via symmetrizer ranks")
    p.add_argument("--max-degree", type=int)
    p = add("rewrite", config=True, help="graded dims of the relation quotient")
    p.add_argument("--max-degree", type=int)
    p = add("cohomology", config=True, help="truncated second cohomology by degree")
    p.add_argument("--max-degree", type=int)
    p.add_argument("--ell", type=int, help="single homogeneity degree")
    p = add("epsilon", config=True, help="H2_eps versus Hom(M, U)")
    p.add_argument("--max-degree", type=int)
    p = add("twist", help="Scheunert cocycle and sign twist of a bicharacter")
    p.add_argument("--bicharacter", required=True, help="bicharacter JSON path")
    p = add("lie-check", help="braided Lie axioms on a shipped example")
    p.add_argument("--example", choices=sorted(LIE_EXAMPLES), required=True)
    p = add("pbw", help="envelope filtration dims versus Nichols dims")
    p.add_argument("--example", choices=sorted(LIE_EXAMPLES), required=True)
    p.add_argument("--max-degree", type=int)
    p = add("fk", help="symmetric-group quadratic algebra dims and rigidity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--rigidity", action="store_true")
    p.add_argument("--symmetrizer", action="store_true", help="cross-check via symmetrizer ranks")
    add("selfcheck", help="invariant suite over the shipped configs")
    return parser


_parser = functools.cache(build_parser)  # one parser per process; parse_args keeps no state


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        code, cfg, results, warnings = COMMANDS[args.command](args)
    except (ConfigError, NotInIdeal) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report = {
        "command": args.command,
        "config_echo": cfg.raw if cfg is not None else None,
        "results": _fmt(results),
        "warnings": warnings,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        if cfg is not None:
            print(f"config: {cfg.name}")
        _print_text(report["results"])
        for w in warnings:
            print(f"warning: {w}")
    return code


if __name__ == "__main__":
    sys.exit(main())
