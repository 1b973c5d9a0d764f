"""Tests of the benchmark itself: `python -m pytest -q perfbench/tests`."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spawn  # noqa: E402
import workloads  # noqa: E402

CLAIMS = list(layers.CLAIM_IDS)


def test_same_seed_gives_identical_argv():
    for seed in (0, 7):
        assert workloads.cli_small_ops(seed, 40) == workloads.cli_small_ops(seed, 40)
        assert workloads.cli_coker_ops(seed, 40) == workloads.cli_coker_ops(seed, 40)
        assert workloads.verify_ops(seed, 2, CLAIMS, "g.json") == workloads.verify_ops(seed, 2, CLAIMS, "g.json")
    assert workloads.cli_small_ops(0, 40) != workloads.cli_small_ops(1, 40)
    # cli-coker and verify-reduced seeds only permute a fixed set of inputs
    assert workloads.cli_coker_ops(0, 40) != workloads.cli_coker_ops(1, 40)
    assert sorted(workloads.cli_coker_ops(0, 40)) == sorted(workloads.cli_coker_ops(1, 40))
    g0, (a0, *_) = workloads.verify_ops(0, 1, CLAIMS, "g.json")
    g1, (a1, *_) = workloads.verify_ops(1, 1, CLAIMS, "g.json")
    assert a0 != a1 and sorted(a0[-1].split(",")) == sorted(a1[-1].split(",")) == sorted(CLAIMS)
    assert sorted(json.loads(g0), key=str) == sorted(json.loads(g1), key=str)


def test_subcommand_coverage():
    ops = workloads.cli_small_ops(0, 400)
    seen = {" ".join(a[:2]) if a[0] == "check" else a[0] for a in ops}
    assert seen == {c[0] for c in workloads.SMALL_COMMANDS}
    assert all(a[0] != "verify" for a in ops)


def test_mutated_answer_is_rejected():
    checker = checks.QueryChecker()
    argv = ["tensor", "--ring", "Z/12", "coker[[3,6],[2,8]]", "Z/4 + Z/6"]
    code, out = checks.run_inprocess(argv)
    assert (code, out) == (0, "Z/2 + Z/12\n")
    assert checker.problems(argv, code, out) == []
    assert checker.problems(argv, code, "Z/2 + Z/6\n") != []
    assert checker.problems(argv, 3, out) != []

    hom = ["hom", "--ring", "Z", "Z/4 + Z/6", "Z/8"]
    assert checker.problems(hom, 0, "Z/2 + Z/4\n") == []
    assert any("closed form" in p for p in checker.problems(hom, 0, "Z/2 + Z/8\n"))

    reference = run.REFERENCE.read_text()
    assert checks.verify_problems(reference, 0, reference) == []
    assert checks.verify_problems(reference, 0, reference.replace("PASS", "FAIL", 1)) != []
    assert checks.verify_problems(reference, 4, reference) != []


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_mutated_answer_fails_the_run(monkeypatch, capsys):
    real = spawn.run_op

    def mutated(argv, *a, **kw):
        r = real(argv, *a, **kw)
        r.stdout = r.stdout + "Z/2\n"
        return r

    monkeypatch.setattr(spawn, "run_op", mutated)
    assert run.main(["--workload", "cli-small", "--seed", "3", "--seconds", "1"]) == 1
    result = _last_json(capsys)
    assert result["correct"] is False and result["failed"] == 0


def test_query_killed_at_deadline_counts_as_failed(monkeypatch, capsys):
    monkeypatch.setitem(workloads.DEADLINE_S, "cli-small", 0.001)
    assert run.main(["--workload", "cli-small", "--seed", "3", "--seconds", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is True
    assert result["attempted"] == workloads.op_count("cli-small", 1)
    assert result["failed"] == result["attempted"]
    assert "failed_frac 1.0000 frac" in out[-2]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_latencies_at_reference_speed():
    op = spawn.OpResult(["canon", "--ring", "Z", "Z/4"], 0.3, 0, "Z/4\n", "", 19.0)
    p = run.Pass([op, op], [1.5, 0.75])  # probes took 1.5x and 0.75x the reference
    assert p.latencies() == pytest.approx([0.2, 0.4])
    assert p.wall() == pytest.approx(0.6)


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    xs = [float(i) for i in range(1, 41)]
    assert run.tail(xs) == (30.0, 75.0)  # ten samples (31..40) lie beyond


@pytest.mark.parametrize("text,want", [
    ("coker[[2,4],[6,8]]", "Z/2 + Z/4"),
    ("Z + coker[[0],[3]]", "Z + Z + Z/3"),
    ("Z/4 + Z/6", "Z/4 + Z/6"),
])
def test_diagonal_expr_over_z(text, want):
    assert checks.diagonal_expr("Z", text) == want


def test_diagonal_expr_over_z_mod_n():
    assert checks.diagonal_expr("Z/12", "coker[[3,6,6],[2,8,8],[3,6,2]]") == "Z/4 + Z/12"
    assert checks.diagonal_expr("Z/8", "Z/6") == "Z/2"


def test_nonzero_components():
    from launcher import nonzero_components

    assert nonzero_components(((1, 0), (0, 2)), 2) == 2
    assert nonzero_components(((1, 1), (0, 2)), 2) == 1
    assert nonzero_components(((0, 0), (0, 0)), 2) == 0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["verify-reduced", "cli-small"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.metric_units()


def test_claim_ids_match_the_registry():
    from fgmod.verify import registered_claims

    assert sorted(layers.CLAIM_IDS) == sorted(registered_claims())
