"""The pair runner's summary of fixed benchmark results (no benchmark runs)."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(side, workload, seed, failed=0, correct=True, **metrics):
    result = {"correct": correct, "attempted": 9, "failed": failed,
              "metrics": {k: {"value": v, "unit": "ms"} for k, v in metrics.items()}}
    return {"side": side, "workload": workload, "seed": seed, "result": result}


def test_the_summary_pairs_runs_by_workload_and_seed(bench_pairs):
    parent = [100.0, 104.0, 101.0, 103.0, 102.0]
    change = [95.0, 96.0, 102.0, 94.0, 97.0]
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        # alternating order, as the runner makes it; pairing must not depend on it
        sides = [run("parent", "w", 10 + i, op_p50_ms=p), run("change", "w", 10 + i, op_p50_ms=c, failed=i % 2)]
        runs += sides if i % 2 == 0 else sides[::-1]
    runs += [run("parent", "v", 20, op_p50_ms=5.0, failed=2), run("change", "v", 20, op_p50_ms=5.0)]
    # an unpaired run counts its failures but joins no pair
    runs.append(run("change", "v", 21, op_p50_ms=1.0))
    summary, failed = bench_pairs.summarize(runs, ["op_p50_ms", "wall_s"])
    assert failed == {"w": {"parent": 0, "change": 2}, "v": {"parent": 2, "change": 0}}
    assert summary == {
        "w": {"op_p50_ms": {
            "parent_median": 102.0, "parent_quartiles": [100.5, 103.5],
            "change_median": 96.0, "change_quartiles": [94.5, 99.5],
            "change_lower_in_pairs": 4, "pairs": 5,
            "change_over_parent_median": 0.95, "gain_rule_met": False,
        }},
        "v": {"op_p50_ms": {
            "parent_median": 5.0, "parent_quartiles": [5.0, 5.0],
            "change_median": 5.0, "change_quartiles": [5.0, 5.0],
            "change_lower_in_pairs": 0, "pairs": 1,
            "change_over_parent_median": 1.0, "gain_rule_met": False,
        }},
    }


@pytest.mark.parametrize("lower, drop, met", [
    # lower in 9 of 10 pairs and a tie, by far more than the parent's spread
    (9, 10.0, True),
    # lower in 8, with two ties: a tie counts for neither side
    (8, 10.0, False),
    # lower in all 10, but by less than the parent's interquartile range
    (10, 2.0, False),
])
def test_the_gain_rule_asks_nine_pairs_in_ten_and_a_drop_beyond_the_parents_spread(bench_pairs, lower, drop, met):
    parent = [100.0, 98.0, 102.0, 100.0, 97.0, 103.0, 100.0, 99.0, 101.0, 100.0]
    change = [p - drop for p in parent[:lower]] + parent[lower:]
    runs = [run(side, "w", i, op_p50_ms=v) for i, pair in enumerate(zip(parent, change))
            for side, v in zip(("parent", "change"), pair)]
    entry = bench_pairs.summarize(runs, ["op_p50_ms"])[0]["w"]["op_p50_ms"]
    assert entry["parent_quartiles"] == [98.75, 101.25] and entry["change_lower_in_pairs"] == lower
    assert entry["gain_rule_met"] is met
    assert entry["change_over_parent_median"] == round(statistics.median(c / p for p, c in zip(parent, change)), 4)


def test_runs_with_wrong_output_are_counted_named_and_fail_the_script(bench_pairs, monkeypatch, tmp_path, capsys):
    # the change gives a wrong answer on one seed of the first workload: its
    # timings are summarized as usual, but the record counts the run beside
    # the failed operations and the script exits 1 once the file is written
    def run_once(tar, workload, seed, seconds):
        wrong = tar == b"change" and workload == "verify-reduced" and seed == 31
        return run("", workload, seed, correct=not wrong, op_p50_ms=10.0)["result"]

    monkeypatch.setattr(bench_pairs, "archive", lambda commit: commit.encode())
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["parent", "change", "--pairs", "2", "--seed0", "30", "--out", str(out)]) == 1
    record = json.loads(out.read_text())
    assert record["wrong_output_runs"] == {
        "verify-reduced": {"parent": 0, "change": 1},
        "cli-small": {"parent": 0, "change": 0},
    }
    assert record["summary"]["verify-reduced"]["op_p50_ms"]["pairs"] == 2
    assert capsys.readouterr().err.splitlines()[-1] == "wrong output in 1 runs: verify-reduced seed 31 change"
    # every output right: exit 0, all counts zero
    monkeypatch.setattr(bench_pairs, "run_once", lambda tar, w, seed, seconds: run("", w, seed, op_p50_ms=1.0)["result"])
    assert bench_pairs.main(["parent", "change", "--pairs", "1", "--seed0", "0", "--out", str(out)]) == 0
    assert all(sides == {"parent": 0, "change": 0} for sides in json.loads(out.read_text())["wrong_output_runs"].values())
