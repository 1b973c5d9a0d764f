import json
import time

import pytest

from fgmod.cli import main
from fgmod.grammar import MAX_GENERATORS


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
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_verify_list_claims(capsys):
    code, out, _ = run(capsys, "verify", "--list-claims")
    assert code == 0
    assert "equiv-reduced-wrt" in out.splitlines()


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


def test_negative_degree_and_kmax_are_usage_errors(capsys):
    for argv in (
        ("ext", "-1", "Z/2", "Z/2"),
        ("tor", "-1", "Z/2", "Z/2"),
        ("glc", "-1", "--ideal", "2", "Z/2", "Z/4"),
        ("glh", "-2", "--ideal", "2", "Z/2", "Z/4"),
        ("glc", "1", "--ideal", "2", "--kmax", "-3", "Z", "Z/4"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, argv


def test_bad_grid_files_are_usage_errors(tmp_path, capsys):
    bad = {
        "broken.json": '{"ring": "Z",',
        "no-ideals.json": '{"ring": "Z", "max_torsion_order": 4}',
        "negative.json": '{"ring": "Z", "max_torsion_order": -1, "ideal_generators": [2]}',
    }
    paths = [str(tmp_path / "missing.json")]
    for name, text in bad.items():
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    for path in paths:
        code, out, err = run(capsys, "verify", "--grid", path)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, path


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
