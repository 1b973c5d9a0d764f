"""Run the benchmark on two commits in alternating pairs and summarize them.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --seed0 S --out BENCH_<n>.json

Run from the repository root.  Each run extracts the tracked files of its
commit (`git archive`) into a fresh temporary directory, so that no
bytecode or work directory left by an earlier run is read, and runs
`python3 perfbench/run.py --workload W --seed s --seconds T --trace 0` there
with `PYTHONDONTWRITEBYTECODE=1`.  This script only invokes the benchmark.

The workloads, the run length T and the end-to-end metrics are
BENCHMARK.json's.  The workloads run one after the other, each as `--pairs`
pairs.  Pair i of the w-th workload uses seed `seed0 + w * pairs + i` on
both sides and runs the parent first when i is even, the change first when
i is odd.  The output JSON holds, per workload and metric, each side's
median and exclusive quartiles, the number of pairs in which the change
read lower, the median over pairs of change / parent, and whether the gain
rule holds (see `gain_rule_met`); then the failed operations of each side,
the runs of each side whose output was wrong, and every run.  The script
exits 1 when any run's output was wrong, after writing the file and naming
those runs on stderr.  Every end-to-end metric of the benchmark is better
lower.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(runs: list[dict], metrics: list[str]) -> tuple[dict, dict]:
    """(summary, failed_ops) of runs, each {"side", "workload", "seed",
    "result"} with the benchmark's result object.  Runs pair up by workload
    and seed; a pair with either side missing a metric is left out of it."""
    by_pair: dict[tuple, dict] = {}
    failed: dict[str, dict] = {}
    for run in runs:
        by_pair.setdefault((run["workload"], run["seed"]), {})[run["side"]] = run["result"]
        sides = failed.setdefault(run["workload"], {"parent": 0, "change": 0})
        sides[run["side"]] += run["result"].get("failed", 0)
    summary: dict[str, dict] = {}
    for workload in failed:
        pairs = [p for (w, _), p in sorted(by_pair.items()) if w == workload and len(p) == 2]
        for metric in metrics:
            got = [
                (p["parent"]["metrics"][metric]["value"], p["change"]["metrics"][metric]["value"])
                for p in pairs
                if all(metric in p[side].get("metrics", {}) for side in ("parent", "change"))
            ]
            if not got:
                continue
            parent, change = zip(*got)
            ratio = statistics.median(c / p for p, c in got) if all(parent) else None
            entry = {
                "parent_median": round(statistics.median(parent), 4),
                "parent_quartiles": quartiles(parent),
                "change_median": round(statistics.median(change), 4),
                "change_quartiles": quartiles(change),
                "change_lower_in_pairs": sum(c < p for p, c in got),
                "pairs": len(got),
                "change_over_parent_median": None if ratio is None else round(ratio, 4),
            }
            entry["gain_rule_met"] = gain_rule_met(entry)
            summary.setdefault(workload, {})[metric] = entry
    return summary, failed


def gain_rule_met(entry: dict) -> bool:
    """Whether a summary entry shows a gain: the change read lower in at
    least nine pairs in ten (a tie counts for neither side), and its median
    is below the parent's by more than the parent's interquartile range."""
    q1, q3 = entry["parent_quartiles"]
    nine_in_ten = 10 * entry["change_lower_in_pairs"] >= 9 * entry["pairs"]
    return nine_in_ten and entry["parent_median"] - entry["change_median"] > q3 - q1


def wrong_output(runs: list[dict]) -> tuple[dict, list[str]]:
    """(counts, names) of the runs whose result does not say `"correct":
    true`: their number per workload and side, and one name per run.  Their
    timings are those of a program that gave wrong answers."""
    counts: dict[str, dict] = {}
    names = []
    for run in runs:
        sides = counts.setdefault(run["workload"], {"parent": 0, "change": 0})
        if run["result"].get("correct") is not True:
            sides[run["side"]] += 1
            names.append(f"{run['workload']} seed {run['seed']} {run['side']}")
    return counts, names


def quartiles(values) -> list[float]:
    """[Q1, Q3] by `statistics.quantiles(n=4)`, the exclusive method; one
    value is its own quartiles."""
    if len(values) < 2:
        return [round(values[0], 4)] * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 4), round(q3, 4)]


def archive(commit: str) -> bytes:
    return subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout


def run_once(tar: bytes, workload: str, seed: int, seconds: int) -> dict:
    """The benchmark's result object from one run on a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tree:
        with tarfile.open(fileobj=io.BytesIO(tar)) as files:
            files.extractall(tree, filter="data")
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed no result: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    tars = {"parent": archive(args.parent), "change": archive(args.change)}
    runs = []
    for w, workload in enumerate(workloads):
        for i in range(args.pairs):
            seed = args.seed0 + w * args.pairs + i
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result = run_once(tars[side], workload, seed, seconds)
                runs.append({"side": side, "workload": workload, "seed": seed, "trace": 0,
                             "seconds": seconds, "result": result})
                print(f"{workload} seed {seed} {side}: {json.dumps(result.get('metrics', result))[:160]}",
                      file=sys.stderr)
    summary, failed = summarize(runs, metrics)
    wrong, wrong_runs = wrong_output(runs)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    record = {
        "what": f"perfbench results for the parent commit {args.parent} and the change {args.change}, run"
                " alternately on the same host, each from a fresh copy of its tracked files",
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds} --trace 0",
        "host": f"{cpus}-CPU {platform.system()} host, Python {platform.python_version()}, PYTHONDONTWRITEBYTECODE=1",
        "order": f"pair i runs the parent first when i is even and the change first when i is odd; workload w"
                 f" of {workloads} uses seeds {args.seed0} + {args.pairs}w + i",
        "quartiles": "statistics.quantiles(n=4), exclusive method: [Q1, Q3]",
        "failed_ops": failed,
        "wrong_output_runs": wrong,
        "summary": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    if wrong_runs:
        print(f"wrong output in {len(wrong_runs)} runs: {', '.join(wrong_runs)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
