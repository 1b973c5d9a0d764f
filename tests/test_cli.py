import json
import time
from pathlib import Path

import pytest

import fgmod
from fgmod import cli, verify
from fgmod.cli import main
from fgmod.grammar import GRAMMAR_HELP, MAX_GENERATORS
from test_cli_golden import COMMANDS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err


def test_check_examples(capsys):
    code, out, _ = run(capsys, "check", "reduced-wrt", "--ring", "Z", "--ideal", "2", "Z/2", "Z/4")
    assert code == 0 and out == "true"
    code, out, _ = run(capsys, "check", "coreduced", "--ring", "Z", "--ideal", "2", "Z/4")
    assert code == 0 and out == "false"
    code, out, _ = run(capsys, "check", "coreduced-wrt", "--ring", "Z", "--ideal", "2", "Z/2", "Z/4")
    assert code == 0 and out == "true"
    code, out, _ = run(capsys, "check", "reduced", "--ring", "Z", "--ideal", "2", "Z/4")
    assert code == 0 and out == "false"


@pytest.mark.parametrize("name, arity, takes_ideal, degree", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_a_subcommand_refuses_a_missing_ideal_exactly_when_it_takes_one(capsys, name, arity, takes_ideal, degree):
    argv = [*name.split(), *(["1"] if degree else []), *["Z/4"] * arity]
    code, out, err = run(capsys, *argv)
    given = run(capsys, *argv, "--ideal", "2")
    if takes_ideal:
        assert (code, out) == (2, "")
        assert err == "error: this command requires --ideal\n" + GRAMMAR_HELP + "\n"
        assert given[0] == 0 and given[1]
    else:
        # an ideal it does not use changes nothing
        assert code == 0 and out
        assert given == (code, out, err)


def test_nonstabilizing_exit_code(capsys):
    code, _, err = run(capsys, "lambda", "--ring", "Z", "--ideal", "2", "Z")
    assert code == 3
    assert "stabilize" in err


def test_canon_and_roundtrip(capsys):
    code, out, _ = run(capsys, "canon", "coker[[2,4],[6,8]]")
    assert code == 0 and out == "Z/2 + Z/4"
    # the printed form re-parses to an isomorphic module
    code, again, _ = run(capsys, "canon", out)
    assert code == 0 and again == out
    code, zero, _ = run(capsys, "canon", "Z/1")
    assert code == 0 and zero == "0"
    code, z0, _ = run(capsys, "canon", "0")
    assert code == 0 and z0 == "0"
    code, out, _ = run(capsys, "canon", "Z/2^2 + Z^2")
    assert code == 0 and out == "Z^2 + Z/2 + Z/2"


def test_functor_commands(capsys):
    assert run(capsys, "hom", "Z/2", "Z/4")[1] == "Z/2"
    assert run(capsys, "tensor", "Z/2", "Z/3")[1] == "0"
    assert run(capsys, "dual", "Z/4")[1] == "Z/4"
    assert run(capsys, "ext", "1", "Z/2", "Z/2")[1] == "Z/2"
    assert run(capsys, "tor", "1", "Z/2", "Z/4")[1] == "Z/2"
    assert run(capsys, "gammagen", "--ideal", "2", "Z/2", "Z/4")[1] == "Z/2"
    assert run(capsys, "lambdagen", "--ideal", "2", "Z/2", "Z/4")[1] == "Z/2"
    assert run(capsys, "glc", "1", "--ideal", "2", "Z/2", "Z/4")[1] == "Z/2"
    assert run(capsys, "glh", "1", "--ideal", "2", "Z/2", "Z/2")[1] == "Z/2"


def test_local_cohomology_answers_the_limit_in_positive_degree(capsys):
    # the chain 2^k (Z/4) flattens at k = 2, so the limit is Ext(Z/4, Z)
    assert run(capsys, "glc", "1", "--ideal", "2", "Z/4", "Z")[1] == "Z/4"
    # 8 (Z/8) = 0, so the limit is Tor_2(Z/8, Z/2) over Z/8, which vanishes
    assert run(capsys, "glh", "2", "--ring", "Z/8", "--ideal", "2", "Z/8", "Z/2")[1] == "0"
    # the limit is the Pruefer 2-group, which is not finitely generated
    code, out, err = run(capsys, "glc", "1", "--ideal", "2", "Z", "Z")
    assert code == 3 and out == ""
    assert "stabilize" in err and "Traceback" not in err


def test_gamma_reports_exponent(capsys):
    code, out, _ = run(capsys, "gamma", "--ideal", "2", "Z/4")
    assert code == 0 and out == "Z/4\tk=2"
    code, out, _ = run(capsys, "gamma", "--ideal", "2", "Z/4", "--format", "json-lines")
    rec = json.loads(out)
    assert rec == {"result": "Z/4", "exponent": 2}


def test_modular_ring_commands(capsys):
    code, out, _ = run(capsys, "dual", "--ring", "Z/6", "Z/2 + Z/6")
    assert code == 0 and out == "Z/2 + Z/6"
    code, out, _ = run(capsys, "canon", "--ring", "Z/6", "coker[[4]]")
    assert code == 0 and out == "Z/2"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "canon", "Q/Z")
    assert code == 2 and "atom" in err
    code, _, err = run(capsys, "gamma", "Z/4")  # missing --ideal
    assert code == 2
    code, _, err = run(capsys, "canon", "--ring", "Z/6", "Z")  # Z illegal over Z/n
    assert code == 2
    code, _, err = run(capsys, "check", "reduced", "--ideal", "2", "Z/2", "Z/4")
    assert code == 2
    for expr, message in (("Z/0", "cyclic modulus must be >= 1"), ("Z/2^-1", "exponent must be nonnegative")):
        code, out, err = run(capsys, "canon", expr)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}\n") and "Traceback" not in err, expr
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_verify_list_claims(capsys):
    code, out, _ = run(capsys, "verify", "--list-claims")
    assert code == 0
    assert "equiv-reduced-wrt" in out.splitlines()


@pytest.mark.parametrize("flag, value", [("--ring", "Z/6"), ("--ideal", "2,3")])
def test_verify_claims_run_refuses_value_flags(flag, value, capsys):
    # the grids fix rings and ideals; a flag the run would ignore is a usage error
    for extra in ((), ("--grid", str(Path(__file__).parent / "golden" / "verify_small_grid.json"))):
        code, out, err = run(capsys, "verify", flag, value, "--claims", "gamma-left-exact", *extra)
        assert code == 2 and out == ""
        assert err.startswith(f"error: verify does not use {flag}:") and "--grid" in err
        assert err.count("\n") == 1
    code, out, _ = run(capsys, "verify", flag, value, "--list-claims")
    assert code == 0 and "gamma-left-exact" in out.splitlines()


def test_verify_with_grid_file(tmp_path, capsys):
    grid = {
        "ring": "Z",
        "max_torsion_order": 4,
        "max_free_rank": 1,
        "ideal_generators": [0, 2],
        "label": "file-grid",
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    code, out, _ = run(
        capsys,
        "verify",
        "--grid",
        str(path),
        "--claims",
        "equiv-reduced-wrt,extension-closure-R",
        "--format",
        "json-lines",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[-1]["summary"]["all_expected"] is True
    claims = {r.get("claim"): r for r in records if "claim" in r}
    assert claims["equiv-reduced-wrt"]["verdict"] == "pass"
    assert claims["extension-closure-R"]["verdict"] == "fail"
    assert claims["extension-closure-R"]["expected"] == "fail"


def test_verify_text_format(tmp_path, capsys):
    grid = {"ring": "Z/6", "max_torsion_order": 6, "ideal_generators": [2], "label": "g6"}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    code, out, _ = run(capsys, "verify", "--grid", str(path), "--claims", "gamma-dual")
    assert code == 0
    assert any(line.startswith("PASS") and "gamma-dual" in line for line in out.splitlines())
    assert out.splitlines()[-1].startswith("summary:")


def test_an_unexpected_verdict_is_flagged_and_exits_4(tmp_path, monkeypatch, capsys):
    # no claim gives an unexpected verdict on a committed grid, so one that
    # is expected to pass is made to fail everywhere
    claim = verify._BY_ID["gamma-hom-commute"]
    monkeypatch.setitem(verify._BY_ID, claim.claim_id, claim._replace(check=verify._each(lambda *values: False)))
    path = tmp_path / "z6.json"
    path.write_text(json.dumps([{"ring": "Z/6", "max_torsion_order": 6, "ideal_generators": [2]}]))
    argv = ("verify", "--grid", str(path), "--claims", claim.claim_id)
    code, out, _ = run(capsys, *argv)
    assert code == 4
    lines = out.splitlines()
    [line] = [line for line in lines if not line.startswith(("note:", " ", "summary:"))]
    assert line.startswith("FAIL    gamma-hom-commute [") and line.endswith(" (UNEXPECTED)")
    assert lines[-1] == "summary: 1 reports, 1 unexpected verdicts"
    code, out, _ = run(capsys, *argv, "--format", "json-lines")
    assert code == 4
    assert json.loads(out.splitlines()[-1]) == {"summary": {"reports": 1, "all_expected": False}}


def test_negative_degree_and_kmax_are_usage_errors(capsys):
    for argv in (
        ("ext", "-1", "Z/2", "Z/2"),
        ("tor", "-1", "Z/2", "Z/2"),
        ("glc", "-1", "--ideal", "2", "Z/2", "Z/4"),
        ("glh", "-2", "--ideal", "2", "Z/2", "Z/4"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, argv
    # the input alone decides where a chain settles: there is no step budget to set
    for argv in (
        ("glc", "1", "--ideal", "2", "--kmax", "-3", "Z", "Z/4"),
        ("gamma", "--kmax", "3", "--ideal", "2", "Z/8"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments: --kmax" in capsys.readouterr().err


def test_bad_grid_files_are_usage_errors(tmp_path, capsys):
    bad = {
        "broken.json": '{"ring": "Z",',
        "no-ideals.json": '{"ring": "Z", "max_torsion_order": 4}',
        "negative.json": '{"ring": "Z", "max_torsion_order": -1, "ideal_generators": [2]}',
        "no-ideal.json": '{"ring": "Z/6", "ideal_generators": []}',
        "bool-ideal.json": '{"ring": "Z", "ideal_generators": [2, true]}',
        "float-ideal.json": '{"ring": "Z", "ideal_generators": [2.0]}',
        "string-ideal.json": '{"ring": "Z", "ideal_generators": ["2"]}',
        "float-order.json": '{"ring": "Z", "max_torsion_order": 2.7, "ideal_generators": [2]}',
        "string-order.json": '{"ring": "Z", "max_torsion_order": "16", "ideal_generators": [2]}',
        "bool-rank.json": '{"ring": "Z", "max_free_rank": true, "ideal_generators": [2]}',
        "unknown-key.json": '{"ring": "Z/6", "ideal_generators": [2], "max_torsion": 4}',
        "list-label.json": '{"ring": "Z/6", "ideal_generators": [2], "label": ["x"]}',
        "number-label.json": '{"ring": "Z/6", "ideal_generators": [2], "label": 6}',
        "no-module.json": '{"ring": "Z/4", "ideal_generators": [2], "module_whitelist": []}',
        "rank-over-zn.json": '{"ring": "Z/6", "max_free_rank": 3, "ideal_generators": [2]}',
        "negative-rank.json": '{"ring": "Z", "max_free_rank": -1, "ideal_generators": [2]}',
        "too-many-forms.json": '{"ring": "Z", "max_torsion_order": 1000000, "ideal_generators": [2]}',
        # listing the divisors of 2**62 up to 10**30 takes 2**31 trial divisions
        "too-many-trials.json": '{"ring": "Z/4611686018427387904", "max_torsion_order": 1' + "0" * 30
        + ', "ideal_generators": [2]}',
        "not-an-object.json": "[1]",
        "number-ring.json": '{"ring": 6, "ideal_generators": [2]}',
        "string-whitelist.json": '{"ring": "Z", "ideal_generators": [2], "module_whitelist": "Z/2"}',
        "one-label.json": '[{"ring": "Z/6", "ideal_generators": [2], "label": "g"},'
        ' {"ring": "Z/8", "ideal_generators": [2], "label": "g"}]',
        # json.load raises RecursionError, not ValueError, on this one
        "deep.json": "[" * 5000 + "]" * 5000,
    }
    paths = [str(tmp_path / "missing.json")]
    for name, text in bad.items():
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    for path in paths:
        code, out, err = run(capsys, "verify", "--grid", path)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, path
    # a null label, like a null whitelist, is no label: the grid gets its default name
    (tmp_path / "null-label.json").write_text('{"ring": "Z/6", "max_torsion_order": 6, "ideal_generators": [2], "label": null}')
    code, out, _ = run(capsys, "verify", "--grid", str(tmp_path / "null-label.json"), "--claims", "gamma-dual")
    assert code == 0 and "PASS    gamma-dual [Z/6(o<=6,r<=0)] checked=" in out


def test_a_grid_file_with_no_grid_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    code, out, err = run(capsys, "verify", "--grid", str(path))
    assert code == 2 and out == ""
    assert err == f"error: grid file {str(path)!r} holds no grid\n"


def test_a_claim_selection_with_nothing_to_check_is_a_usage_error(tmp_path, capsys):
    # neither claim applies over Z, so the run would check nothing
    path = tmp_path / "z.json"
    path.write_text(json.dumps([{"ring": "Z", "ideal_generators": [0, 2]}]))
    code, out, err = run(capsys, "verify", "--claims", "vnr-homology-vanish,reflexive", "--grid", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_grid_moduli_past_the_squarefree_test_bound_are_usage_errors(tmp_path, capsys):
    # whether Z/n is von Neumann regular is found by trial division up to the
    # cube root of n: quick below 2**64, and refused from there on
    for n, expected in ((1000000007, 0), (2**64 - 1, 0), (2**64, 2)):
        path = tmp_path / f"{n}.json"
        path.write_text(json.dumps({"ring": f"Z/{n}", "ideal_generators": [0, 1], "module_whitelist": ["0", f"Z/{n}"]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--grid", str(path), "--claims", "vnr-homology-vanish")
        assert code == expected and time.perf_counter() - start < 5, n
        if expected == 2:
            assert out == "" and err.startswith("error: grid ring modulus must be below 2**64")


def test_boolean_coker_entries_are_rejected(capsys):
    for literal in ("coker[[True]]", "coker[[1, False]]"):
        code, out, err = run(capsys, "canon", literal)
        assert code == 2 and out == ""
        assert "integers" in err


def test_oversized_module_expressions_are_usage_errors_and_fail_fast(capsys):
    coker_257 = "coker[" + ",".join(["[2]"] * 257) + "]"
    for argv in (
        ("canon", "Z/2^20000"),
        ("canon", "Z^257"),
        ("canon", "Z/2^200 + Z/3^57"),
        ("canon", coker_257),
        ("hom", "Z/2", "Z/4^300"),
        ("check", "reduced", "--ring", "Z/8", "--ideal", "2", "Z/2^1000"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("error:") == 1, argv
        assert f"more than {MAX_GENERATORS} generators" in err


def test_module_expressions_at_the_generator_limit_are_accepted(capsys):
    code, out, _ = run(capsys, "canon", f"Z^{MAX_GENERATORS}")
    assert code == 0 and out == f"Z^{MAX_GENERATORS}"
    # zero summands have no generators, however many there are
    code, out, _ = run(capsys, "canon", "0^1000000000000000000000 + coker[]^7 + Z/3")
    assert code == 0 and out == "Z/3"


def test_moduli_too_long_to_convert_are_usage_errors(capsys):
    # Python refuses int() on decimal strings past about 4300 digits
    huge = "1" * 5000
    for argv in (("canon", f"Z/{huge}"), ("canon", "--ring", f"Z/{huge}", "Z"), ("canon", f"Z/2 + Z/{huge}")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv[:2]
        assert err.startswith("error:") and err.count("error:") == 1
        assert "Traceback" not in err and "5000 digits" in err


def test_unknown_claim_names_the_id_and_the_listing(capsys):
    code, out, err = run(capsys, "verify", "--claims", "nope")
    assert code == 2 and out == ""
    assert err == "error: unknown claim 'nope'; `fgmod verify --list-claims` lists the known ids\n"


def test_a_repeated_claim_id_is_reported_once(capsys):
    grid = str(Path(__file__).parent / "golden" / "verify_small_grid.json")
    once = run(capsys, "verify", "--claims", "gamma-dual", "--grid", grid)
    twice = run(capsys, "verify", "--claims", "gamma-dual,gamma-dual", "--grid", grid)
    assert once == twice and once[0] == 0
    assert sum(line.startswith("PASS") for line in once[1].splitlines()) == 3


@pytest.mark.parametrize("claims", [",", "", " , "])
def test_a_claims_value_that_names_no_id_is_a_usage_error(capsys, claims):
    code, out, err = run(capsys, "verify", "--claims", claims)
    assert code == 2 and out == ""
    assert err == "error: --claims names no claim id; `fgmod verify --list-claims` lists them\n"


def test_value_queries_cost_what_their_answers_cost(capsys):
    # summand counts bound hom and tensor; canonical operands bound the coker queries
    for argv, expected in (
        (("tensor", "Z/2^40", "Z/2^40"), " + ".join(["Z/2"] * 1600)),
        (("hom", "Z/2^30", "Z/2^30"), " + ".join(["Z/2"] * 900)),
        (
            ("check", "reduced-wrt", "--ring", "Z", "--ideal", "6",
             "coker[[-5,-2,1],[7,-2,-2],[-4,0,2]]", "coker[[4,-8,-5],[-9,3,-7],[-7,-5,4]]"),
            "true",
        ),
        (
            ("glh", "1", "--ring", "Z", "--ideal", "2",
             "coker[[6,-7,-5],[2,4,-8],[5,3,5]]", "coker[[-8,-6,6],[-5,-9,-8],[-5,1,-6]]"),
            "Z/2 + Z/4",
        ),
    ):
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv[:2]
        assert code == 0 and out == expected, argv[:2]


def test_answers_too_long_to_print_are_usage_errors(capsys):
    # each operand parses, but the lcm of the two moduli has about 8000 digits
    code, out, err = run(capsys, "canon", "Z/1" + "0" * 4000 + " + Z/" + "3" * 4000)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err and "too long to print" in err


def test_degree_zero_local_cohomology_is_the_two_argument_torsion(capsys):
    # colim Hom(Z/2^k, Z/4) = Γ_2(Hom(Z, Z/4)) = Z/4, although 2^k Z never flattens
    assert run(capsys, "glc", "0", "--ideal", "2", "Z", "Z/4")[:2] == (0, "Z/4")
    assert run(capsys, "gammagen", "--ideal", "2", "Z", "Z/4")[:2] == (0, "Z/4")


def test_degree_zero_local_homology_is_the_two_argument_completion(capsys):
    # lim Z/2^k (x) Z/4 = Λ_2(Z/4) = Z/4
    assert run(capsys, "glh", "0", "--ideal", "2", "Z", "Z/4")[:2] == (0, "Z/4")
    assert run(capsys, "lambdagen", "--ideal", "2", "Z", "Z/4")[:2] == (0, "Z/4")


def test_degree_zero_local_homology_of_free_modules_still_leaves_finite_generation(capsys):
    # Λ_2(Z) is the 2-adic integers
    code, out, err = run(capsys, "glh", "0", "--ideal", "2", "Z", "Z")
    assert code == 3 and out == "" and "stabilize" in err


def test_limits_settle_however_long_their_chain(capsys):
    # gcd(2^k, 2^70) grows until k = 70
    m = f"Z/{2**70}"
    for limit in ("gamma", "lambda"):
        assert run(capsys, limit, "--ideal", "2", m)[:2] == (0, f"{m}\tk=70"), limit
    for sub in ("gammagen",), ("lambdagen",), ("glc", "0"), ("glh", "0"):
        assert run(capsys, *sub, "--ideal", "2", m, m)[:2] == (0, m), sub


def test_long_chains_at_the_generator_cap_cost_milliseconds(capsys):
    # the chains settle at k = 8000, read off one closed form per distinct
    # summand order
    m = f"Z/{3**8000}"
    for expr in (f"{m}^{MAX_GENERATORS}", f"{m} + {m}^{MAX_GENERATORS - 1}"):
        for limit in ("gamma", "lambda"):
            fgmod.clear_caches()
            start = time.perf_counter()
            code, out, _ = run(capsys, limit, "--ideal", "3", expr)
            assert time.perf_counter() - start < 1.0, (limit, expr[-8:])
            assert code == 0 and out == " + ".join([m] * MAX_GENERATORS) + "\tk=8000"


def test_value_queries_eliminate_only_their_operands(capsys, monkeypatch):
    from fgmod import elimination
    from fgmod.modules import canonical_form

    calls = []
    cokernel_orders = elimination.cokernel_orders

    def counted(*args):
        calls.append(args)
        return cokernel_orders(*args)

    monkeypatch.setattr(elimination, "cokernel_orders", counted)
    m, n = "coker[[2,1],[0,4]]", "coker[[3,1],[1,5]]"
    queries = [
        ("canon", m), ("dual", m), ("gamma", "--ideal", "2", m), ("lambda", "--ideal", "2", m),
        ("check", "reduced", "--ideal", "2", m), ("check", "coreduced", "--ideal", "2", m),
        ("hom", m, n), ("tensor", m, n), ("ext", "1", m, n), ("tor", "1", m, n),
        ("gammagen", "--ideal", "2", m, n), ("lambdagen", "--ideal", "2", m, n),
        ("check", "reduced-wrt", "--ideal", "2", m, n), ("check", "coreduced-wrt", "--ideal", "2", m, n),
    ]
    queries += [(cmd, str(i), "--ideal", "2", m, n) for cmd in ("glc", "glh") for i in range(3)]
    for argv in queries:
        calls.clear()
        canonical_form.cache_clear()
        code, _, _ = run(capsys, *argv)
        operands = sum(a.startswith("coker") for a in argv)
        assert code == 0 and len(calls) == operands, argv
        # and nothing is canonicalized through the matrix route
        assert canonical_form.cache_info().misses == 0, argv


def parsed(capsys, argv):
    """(exit code, stdout, stderr) of `main(argv)` when parsing stops it."""
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_the_subcommand_parser_prints_what_the_full_parser_prints(monkeypatch, capsys, command):
    # help, a missing operand or option value, a bad --format, and operands
    # or an option the subcommand does not take (an error the top-level
    # parser prints, under its usage line)
    cases = [
        [command, "--help"],
        [command, "-h"],
        [command] if command != "verify" else [command, "--grid"],
        [command, "--format", "xml", "1"],
        [command, "1", "1", "1", "1"],
        [command, "reduced" if command == "check" else "1", "1", "1", "--no-such-option"],
    ]
    built = []
    reduced = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: built.append(command) or reduced(command))
    got = [parsed(capsys, argv) for argv in cases]
    assert built == [command] * len(cases)
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: reduced())
    want = [parsed(capsys, argv) for argv in cases]
    assert got == want
    assert all(code in (0, 2) for code, _, _ in got)
    assert any("unrecognized arguments" in err for _, _, err in got), command


def test_a_missing_or_unknown_subcommand_gets_the_full_parser(monkeypatch, capsys):
    built = []
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: built.append(command) or full(command))
    for argv in ([], ["--help"], ["nosuch", "Z"], ["--ring", "Z", "canon", "Z"]):
        code, out, err = parsed(capsys, argv)
        assert code == (0 if argv == ["--help"] else 2), argv
    assert built == [None] * 4
    # the full help and the unknown-name error list every subcommand
    full_help = parsed(capsys, ["--help"])[1]
    assert all(f"\n    {name} " in full_help for name in cli._COMMANDS)
    assert "invalid choice: 'nosuch'" in parsed(capsys, ["nosuch"])[2]
