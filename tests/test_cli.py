"""Command-line surface: exit codes, JSON contract, config validation."""

import json
from argparse import Namespace

import pytest

from nicholsalg import cli, cohomology, fk, tensoralg
from nicholsalg.cli import _finite_bialgebra, build_parser, main
from nicholsalg.configs import load_shipped, parse_bicharacter, shipped_config_names
from nicholsalg.cyclo import CycNumber, parse_cyc
from nicholsalg.liealg import AbelianBicharacter
from nicholsalg.rewriting import RewriteSystem

from twist_helpers import twist_defect


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_nichols_shipped(capsys):
    code, rep, _ = run_json(capsys, "nichols", "--config", "rank1_zeta3")
    assert code == 0
    assert rep["command"] == "nichols"
    assert rep["results"]["dims"][:4] == [1, 1, 1, 0]
    assert rep["results"]["total"] == 3


def test_diagram_and_roots(capsys):
    code, rep, _ = run_json(capsys, "roots", "--config", "a2_cartan_zeta3")
    assert code == 0
    assert rep["results"]["positive_roots"] == [[0, 1], [1, 0], [1, 1]]
    code, _, _ = run(capsys, "diagram", "--config", "b2")
    assert code == 0


def test_rigidity_exit_codes(capsys):
    for name in shipped_config_names():
        if name.startswith("fk"):
            continue
        code, rep, _ = run_json(capsys, "rigidity", "--config", name)
        assert code == 0 and rep["results"]["verdict"] == "Rigid", name
    code, rep, _ = run_json(
        capsys, "rigidity", "--config", "a2_cartan_zeta3", "--pre-nichols"
    )
    assert code == 0


def open_config(name):
    import os

    from nicholsalg.configs import CONFIG_DIR

    with open(os.path.join(CONFIG_DIR, name + ".json")) as f:
        return f.read()


def test_malformed_config_names_field(tmp_path, capsys):
    cases = [
        ("q_exponents", [[0, 1], [1, 0]], "q_exponents"),  # wrong shape for rank 1
        ("q_exponents", [["a"]], "q_exponents[0][0]"),
        ("budgets", {"max_degree": "6"}, "budgets.max_degree"),
        ("budgets", {"max_degree": -3}, "budgets.max_degree"),
        ("budgets", {"max_degre": 6}, "budgets.max_degre"),
        ("q_exponents", 5, "q_exponents"),
        ("q_exponents", [5], "q_exponents"),
        ("rank", True, "rank"),
        ("cyclotomic_order", True, "cyclotomic_order"),
        ("realization", {"kind": "quotient", "order": True}, "realization.order"),
        ("realization", {"kind": "quotient", "order": 0}, "realization.order"),
        ("realization", {"kind": "quotient", "order": -3}, "realization.order"),
        # zeta3^2 != 1: the characters are not defined on (Z/2)^1
        ("realization", {"kind": "quotient", "order": 2}, "realization.order"),
        ("kind", "fk", "n"),  # with "n": true below
    ]
    for field, value, named in cases:
        bad = dict(json.loads(open_config("rank1_zeta3")), n=True)
        bad[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "nichols", "--config", str(path))
        assert code == 1, named
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err


def test_entry_outside_the_config_field_is_an_error(tmp_path, capsys):
    path = tmp_path / "zeta5.json"
    path.write_text(json.dumps({"rank": 1, "cyclotomic_order": 3, "q_values": [["zeta5"]]}))
    code, _, err = run(capsys, "diagram", "--config", str(path))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "q_values[0][0]" in err and "zeta_5" in err


@pytest.mark.parametrize("literal", ["zeta0", "zeta-6"])
def test_zeta_order_below_one_is_an_error(tmp_path, capsys, literal):
    path = tmp_path / "order.json"
    path.write_text(json.dumps({"rank": 1, "cyclotomic_order": 6, "q_values": [[literal]]}))
    code, _, err = run(capsys, "nichols", "--config", str(path))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "q_values[0][0]" in err and repr(literal) in err


@pytest.mark.parametrize("argv, conductor", [
    (["cohomology", "--config", "a2_super", "--ell", "-1"], 6),
    (["rewrite", "--config", "b2", "--max-degree", "8"], 6),
    (["pbw", "--example", "color_triple"], 5),
])
def test_one_field_per_run(capsys, monkeypatch, argv, conductor):
    """Every CycNumber a command makes lies in the one field of its input."""
    seen = set()
    init = CycNumber.__init__

    def recording(self, n, num, den=1):
        seen.add(n)
        init(self, n, num, den)

    monkeypatch.setattr(CycNumber, "__init__", recording)
    code, _, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert seen == {conductor}


def test_config_echo_round_trip(tmp_path, capsys):
    code, rep, _ = run_json(capsys, "nichols", "--config", "a2_super")
    assert code == 0
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(rep["config_echo"]))
    code2, rep2, _ = run_json(capsys, "nichols", "--config", str(echo))
    assert code2 == 0
    assert rep2["results"] == rep["results"]


def test_text_and_json_agree(capsys):
    code, rep, _ = run_json(capsys, "fk", "--n", "3")
    code2, text, _ = run(capsys, "fk", "--n", "3")
    assert code == code2 == 0
    for n in rep["results"]["dims"]:
        assert str(n) in text


def test_fk_small_n_rejected(capsys):
    code, _, err = run(capsys, "fk", "--n", "2")
    assert code == 1
    assert "n" in err


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "nichols", "--config", "/no/such/file.json")
    assert code == 1 and err


def test_usage_errors_exit_1(capsys):
    # exit 2 means "not decided / budget exceeded"; a typo is bad input
    for argv in (
        ["nichols"],
        ["nichols", "--config", "b2", "--max-degree", "x"],
        ["nichols", "--config", "b2", "--no-such-flag"],
        ["nichols", "--config", "b2", "--seed", "1"],
        ["selfcheck", "--seed", "0"],
        ["no-such-command"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert "error:" in capsys.readouterr().err
    for argv in (["--help"], ["nichols", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, argv
        assert "usage:" in capsys.readouterr().out


def test_parser_built_once(capsys, monkeypatch):
    """main builds its parser once per process; usage errors still read as
    those of a fresh parser and exit 1."""
    argv = ["nichols", "--config"]
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    fresh = capsys.readouterr().err
    main(["fk", "--n", "3"])
    capsys.readouterr()
    monkeypatch.setattr(cli, "_Parser", None)  # a second build would fail
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().err == fresh
    assert main(["fk", "--n", "3", "--json"]) == 0


def test_fk_checks_the_braid_equation_once(capsys, monkeypatch):
    calls = []
    check = fk.check_braid_equation

    def counting(V):
        calls.append(V)
        return check(V)

    monkeypatch.setattr(fk, "check_braid_equation", counting)
    for flags in ([], ["--symmetrizer"], ["--symmetrizer", "--rigidity"]):
        calls.clear()
        code, rep, _ = run_json(capsys, "fk", "--n", "4", "--max-degree", "3", *flags)
        assert code == 0 and len(calls) == 1, flags
    assert rep["results"]["routes_agree"] and rep["results"]["rigidity"] == "Rigid"


def test_selfcheck_checks_each_shipped_space_once(capsys, monkeypatch):
    calls = []
    check = fk.check_braid_equation

    def counting(V):
        calls.append(V.rank)
        return check(V)

    monkeypatch.setattr(fk, "check_braid_equation", counting)
    monkeypatch.setattr(cli, "check_braid_equation", counting)
    code, rep, _ = run_json(capsys, "selfcheck")
    assert code == 0 and rep["results"]["all_green"]
    names = shipped_config_names()
    assert len(calls) == len(names)
    ranks = [load_shipped(name).space().rank for name in names if not name.startswith("fk")]
    assert sorted(calls) == sorted(ranks + [3, 6])  # fk3 and fk4 once each
    # d∘d is checked on every degree-ell morphism h: B+ -> B+, at every ell
    assert all(rep["results"]["total_differential_squares_to_zero"].values())
    assert rep["results"]["d_squared_h_entries"] == {
        "rank1_m1": 1, "rank1_zeta3": 2, "rank1_zeta4": 3, "fk3": 21,
    }


def test_selfcheck_reports_a_failed_fk_space(capsys, monkeypatch):
    build = cli.build_fk_space

    def failing(n):
        if n == 4:
            raise RuntimeError("braid equation fails at (0, 1, 2)")
        return build(n)

    monkeypatch.setattr(cli, "build_fk_space", failing)
    code, rep, _ = run_json(capsys, "selfcheck")
    results = rep["results"]
    assert code == 1 and not results["all_green"]
    assert results["braid_equation"]["fk4"] is False
    assert all(ok for name, ok in results["braid_equation"].items() if name != "fk4")


def test_selfcheck_reports_a_failed_fk3_space(capsys, monkeypatch):
    """fk3's space is built with its bialgebra: a failed braid equation there
    fails both its braid check and its d∘d check, and nothing else."""
    check = fk.check_braid_equation
    monkeypatch.setattr(fk, "check_braid_equation",
                        lambda V: (False, (0, 1, 2)) if V.rank == 3 else check(V))
    code, rep, _ = run_json(capsys, "selfcheck")
    results = rep["results"]
    assert code == 1 and not results["all_green"]
    assert [n for n, ok in results["braid_equation"].items() if not ok] == ["fk3"]
    assert [n for n, ok in results["total_differential_squares_to_zero"].items() if not ok] == ["fk3"]
    assert results["d_squared_h_entries"]["fk3"] == 0


def test_selfcheck_catches_one_corrupted_face_entry(capsys, monkeypatch):
    # fk3, basis index 11 its top-degree element: the inner Hochschild face
    # of the (1, 1) entry 11 -> 11 at the entry (1, 10) -> 11 gets a wrong
    # coefficient; no other entry of any config changes
    dh_entries = cohomology._dh_entries
    hits = []

    def corrupted(B, keys):
        for out, inp, c in dh_entries(B, keys):
            if B.dims() == [1, 3, 4, 3, 1] and (out, inp) == (((1, 10), (11,)), ((11,), (11,))):
                hits.append(c)
                c = c + 1
            yield out, inp, c

    monkeypatch.setattr(cohomology, "_dh_entries", corrupted)
    code, out, err = run(capsys, "selfcheck", "--json")
    results = json.loads(out)["results"]
    assert hits and code == 1 and not err
    assert results["total_differential_squares_to_zero"] == {
        "rank1_m1": True, "rank1_zeta3": True, "rank1_zeta4": True, "fk3": False,
    }
    assert not results["all_green"]


# neither x^2 - x (through which the braiding does not descend) nor x^2 (whose
# span is no coideal, Delta(x^2) keeping (1 + q) x (x) x) vanishes in B(V) of
# rank1_zeta3, where x^3 = 0 is the only relation
@pytest.mark.parametrize(
    "relation",
    [{(0, 0): 1, (0,): -1}, {(0, 0): 1}],
    ids=["not_descending", "not_coideal"],
)
@pytest.mark.parametrize("command", ["cohomology", "epsilon"])
def test_failed_bialgebra_identity_is_an_error(capsys, monkeypatch, command, relation):
    catalog = cli._catalog_elements

    def with_relation(cfg, V):
        elems, warnings = catalog(cfg, V)
        return elems + [relation], warnings

    monkeypatch.setattr(cli, "_catalog_elements", with_relation)
    code, out, err = run(capsys, command, "--config", "rank1_zeta3", "--json")
    assert code == 1 and not out
    assert err == f"error: relation is not in the Nichols ideal: {relation}\n"


def test_seed_only_where_read():
    # selfcheck draws nothing at random: its checks are exact
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    with_seed = {
        name for name, p in sub.choices.items()
        if any("--seed" in a.option_strings for a in p._actions)
    }
    assert with_seed == set()


def test_twist_command(tmp_path, capsys):
    beta = {
        "cyclotomic_order": 5,
        "values": [["-1", "zeta5"], ["zeta5^4", "-1"]],
        "skew": True,
    }
    path = tmp_path / "beta.json"
    path.write_text(json.dumps(beta))
    code, rep, _ = run_json(capsys, "twist", "--bicharacter", str(path))
    assert code == 0
    assert rep["results"]["beta_sigma_is_sign"]
    values, _, _ = parse_bicharacter(beta)
    sigma, beta_sigma = (
        AbelianBicharacter([[parse_cyc(v, ambient_order=5) for v in row] for row in rows])
        for rows in (rep["results"]["sigma"], rep["results"]["beta_sigma"])
    )
    assert twist_defect(AbelianBicharacter(values), sigma, beta_sigma) is None


def test_malformed_bicharacter_names_field(tmp_path, capsys):
    cases = [
        ({"cyclotomic_order": 3, "values_exponents": [["a"]]}, "values_exponents[0][0]"),
        ({"cyclotomic_order": True, "values_exponents": [[1]]}, "cyclotomic_order"),
        ({"values": "-1"}, "values"),
        ({"values": [["-1"]], "orders": "2"}, "orders"),
        ({"values": [["-1"]], "skew": "yes"}, "skew"),
        ({"cyclotomic_order": 3, "values": [["-1", "zeta3"], ["zeta3", "-1"]], "skew": True},
         "skew-symmetric"),
        # valid bicharacters that scheunert_cocycle cannot twist
        ({"cyclotomic_order": 3, "values": [["-1", "zeta3"], ["zeta3", "-1"]]},
         "skew-symmetric"),
        ({"cyclotomic_order": 3, "values": [["zeta3", "1"], ["1", "zeta3^2"]]}, "not a sign"),
    ]
    for beta, named in cases:
        path = tmp_path / "beta.json"
        path.write_text(json.dumps(beta))
        code, out, err = run(capsys, "twist", "--bicharacter", str(path))
        assert code == 1, named
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err


def test_lie_and_pbw(capsys):
    code, rep, _ = run_json(capsys, "lie-check", "--example", "color_pair")
    assert code == 0 and all(v["ok"] for v in rep["results"].values())
    code, rep, _ = run_json(capsys, "pbw", "--example", "heisenberg")
    assert code == 0 and rep["results"]["match"]
    assert rep["results"]["gr"] == [1, 3, 6, 10, 15]


def test_epsilon_command(capsys):
    code, rep, _ = run_json(capsys, "epsilon", "--config", "rank1_zeta3")
    assert code == 0
    assert rep["results"]["identity_holds"]


def miscount_minimal_relations(monkeypatch, degree):
    """Make every completion report one minimal relation too many at degree."""
    complete = RewriteSystem.complete

    def one_too_many(self, relations):
        complete(self, relations)
        self.minimal[degree] += 1

    monkeypatch.setattr(RewriteSystem, "complete", one_too_many)


def test_epsilon_routes_to_dim_m_must_agree(capsys, monkeypatch):
    miscount_minimal_relations(monkeypatch, 3)
    code, rep, _ = run_json(capsys, "epsilon", "--config", "rank1_zeta3")
    assert code == 1
    assert rep["results"]["identity_holds"]
    assert "degree 3" in rep["warnings"][0]


def test_epsilon_compares_dim_m_past_degree_5(capsys, monkeypatch):
    # a2_cartan_zeta3's minimal relations lie in degrees 3 and 6
    miscount_minimal_relations(monkeypatch, 6)
    code, rep, _ = run_json(capsys, "epsilon", "--config", "a2_cartan_zeta3")
    assert code == 1
    assert rep["results"]["identity_holds"]
    assert "degree 6" in rep["warnings"][0]


@pytest.mark.parametrize("n, step, code", [(4, 1, 1), (4, -1, 1), (6, 1, 1), (6, -1, 0)])
def test_fk_routes_must_agree(capsys, monkeypatch, n, step, code):
    """The quadratic algebra maps onto B(V), and is B(V) for n <= 5: a
    symmetrizer dim above the rewriting dim is an error for every n, one
    below it only for n <= 5."""
    def off_at_degree_3(V, max_degree):
        dims = list(fk.fk_dims_rewriting(n, max_degree))
        dims[3] += step
        return dims

    monkeypatch.setattr(cli, "nichols_dims", off_at_degree_3)
    got, rep, _ = run_json(capsys, "fk", "--n", str(n), "--max-degree", "4", "--symmetrizer")
    assert got == code and rep["results"]["routes_agree"] is False
    assert len(rep["warnings"]) == 1 and "degree 3" in rep["warnings"][0], rep["warnings"]
    dims = rep["results"]["dims"]
    assert f"{dims[3] + step} from the symmetrizer, {dims[3]} from rewriting" in rep["warnings"][0]


def test_cohomology_single_degree(capsys):
    code, rep, _ = run_json(
        capsys, "cohomology", "--config", "rank1_m1", "--ell", "-1"
    )
    assert code == 0
    assert rep["results"]["H2_by_degree"]["-1"]["H"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["nichols", "--config", "rank1_zeta3"],
        ["rewrite", "--config", "rank1_zeta3"],
        ["cohomology", "--config", "rank1_zeta3"],
        ["epsilon", "--config", "rank1_zeta3"],
        ["pbw", "--example", "heisenberg"],
        ["fk", "--n", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_max_degree_rejected(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-degree", "-1")
    assert code == 1
    assert not out
    assert err.startswith("error: --max-degree")


def test_cohomology_warns_on_dropped_relation(capsys):
    code, rep, _ = run_json(
        capsys, "cohomology", "--config", "rank3_square", "--max-degree", "2"
    )
    assert code == 2
    assert "no explicit element for cartan_root_power ((1, 2, 1),)" in rep["warnings"]


def test_rank3_square_answers_without_its_dropped_relation(capsys):
    # B(V) (dim 576, top 31) comes from the Nichols layers; the catalog lacks
    # the element above, so its quotient never closes and gave a false budget
    code, rep, _ = run_json(
        capsys, "cohomology", "--config", "rank3_square", "--max-degree", "32", "--ell", "-1"
    )
    assert code == 0
    assert rep["results"]["H2_by_degree"] == {"-1": {"Z": 0, "B": 0, "H": 0}}
    assert sum(rep["results"]["dims"]) == 576 and len(rep["results"]["dims"]) == 32
    assert rep["warnings"] == ["no explicit element for cartan_root_power ((1, 2, 1),)"]


def test_fk3_bialgebra_honours_max_degree(capsys):
    for command in (["cohomology", "--ell", "-1"], ["epsilon"]):
        code, rep, _ = run_json(capsys, *command, "--config", "fk3", "--max-degree", "1")
        assert code == 2, command
        assert rep["warnings"] == ["budget: quotient not finite within degree 1: dims [1, 3]"]
    code, rep, _ = run_json(capsys, "cohomology", "--config", "fk3", "--ell", "-1")
    assert code == 0
    assert rep["results"]["dims"] == [1, 3, 4, 3, 1]


def test_b2_finite_at_shipped_budget():
    B, _, warnings = _finite_bialgebra(load_shipped("b2"), Namespace(max_degree=None))
    assert B is not None, warnings
    assert B.dims() == [1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1]


# q_11 = 2 is no root of unity, so c[0][1] is undefined at any cap
UNDEFINED_CARTAN = {"rank": 2, "q_values": [["2", "3"], ["1", "-1"]]}


@pytest.mark.parametrize(
    "command", ["diagram", "roots", "relations", "rigidity", "rewrite", "cohomology", "epsilon"]
)
def test_undefined_cartan_integer_is_not_finite(tmp_path, capsys, command):
    path = tmp_path / "undefined.json"
    path.write_text(json.dumps(UNDEFINED_CARTAN))
    code, rep, err = run_json(capsys, command, "--config", str(path))
    assert code == 2 and not err
    assert rep["warnings"]
    if command == "diagram":
        assert "c[0][1] undefined" in rep["warnings"][0]


def test_rigidity_honours_object_cap(tmp_path, capsys):
    cfg = json.loads(open_config("rank3_triangle"))
    cfg["budgets"]["object_cap"] = 4  # the walk needs 16 objects
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(cfg))
    for command in ("roots", "relations", "rigidity"):
        code, rep, _ = run_json(capsys, command, "--config", str(path))
        assert code == 2, command
    assert rep["results"]["verdict"] == "NotDecided"


def test_fk4_symmetrizer_at_default_degree(capsys):
    # degree 12 has 6^12 words; the Nichols recursion never enumerates them
    code, rep, _ = run_json(capsys, "fk", "--n", "4", "--symmetrizer")
    assert code == 0
    assert rep["results"]["routes_agree"] is True
    assert rep["results"]["total"] == 576


def test_real_memory_error_propagates(monkeypatch):
    # running out of memory is no budget outcome (exit 2): the error propagates
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(tensoralg, "NicholsDegree", out_of_memory)
    with pytest.raises(MemoryError):
        main(["nichols", "--config", "rank1_zeta3"])
