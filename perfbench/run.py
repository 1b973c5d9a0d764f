"""fgmod benchmark: one seeded command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every operation is a real CLI invocation,
`python -m fgmod.cli ...` in a fresh interpreter, one at a time (a closed
loop with one client).  The number of operations is fixed by the workload
and `--seconds`, never by measured time.  Timings are reported at a
reference speed, measured by probes run between operations (see
`spawn.PROBE`).  Answers are checked after the timed loop; a wrong answer
makes the run invalid (exit 1).

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs the first half
of the same operations once untraced and once under `launcher.py`, and
prints the per-layer metrics plus the tracing overhead.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import spawn
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference" / "verify-reduced.txt"
SETUP_REPS = 5
# Stop starting operations this long after the benchmark started; the rest
# count as failed, so a regression cannot push a run past its time limit.
RUN_GUARD_S = 140.0
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    pass


def setup(workload: str, seed: int, seconds: int, work: Path) -> list[list[str]]:
    """Check the program runs, then generate this run's operations."""
    if not (ROOT / "src" / "fgmod" / "cli.py").is_file():
        raise SetupError(f"no fgmod sources under {ROOT / 'src'}")
    proc = subprocess.run(
        [sys.executable, "-m", "fgmod.cli", "verify", "--list-claims"],
        capture_output=True, text=True, timeout=60, env=spawn.fgmod_env(str(ROOT)), cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SetupError(f"fgmod does not start: {proc.stderr.strip()[-300:]}")
    n = workloads.op_count(workload, seconds)
    if workload == "cli-small":
        return workloads.cli_small_ops(seed, n)
    if workload == "cli-coker":
        return workloads.cli_coker_ops(seed, n)
    grid = work / "grid.json"
    text, ops = workloads.verify_ops(seed, n, proc.stdout.split(), str(grid.relative_to(ROOT)))
    grid.write_text(text)
    return ops


@dataclass
class Pass:
    """One pass over the operations.  `slow[i]` is the median latency of the
    reference probes run just before and just after operation i, over
    `spawn.REFERENCE_PROBE_S`: how much slower than the reference the host
    ran at the time."""

    results: list[spawn.OpResult]
    slow: list[float]

    def latencies(self) -> list[float]:
        """Operation latencies at the reference speed, in seconds."""
        return [r.latency_s / s for r, s in zip(self.results, self.slow)]

    def wall(self) -> float:
        return sum(self.latencies())


def run_pass(ops, deadline_s, probes, env, t_start, work: Path, trace_dir: Path | None = None) -> Pass:
    """Run every operation in order, with a batch of `probes` reference
    probes before each one and after the last.  Deadlines scale with the
    probes run before the operation, so the same operations miss them on a
    slow host as on a fast one."""
    results = []
    batches: list[list[float]] = []
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        def probe_batch() -> list[float]:
            return [spawn.run_probe(out, err, ROOT) for _ in range(probes)]

        batches.append(probe_batch())
        for i, argv in enumerate(ops):
            slow = statistics.median(batches[-1]) / spawn.REFERENCE_PROBE_S
            left = RUN_GUARD_S - (time.perf_counter() - t_start)
            if left <= 0:
                # never started: it missed its deadline
                results.append(spawn.OpResult(argv, deadline_s * slow, None, "", "", 0.0))
                batches.append(batches[-1])
                continue
            launcher = None
            if trace_dir is not None:
                launcher = [str(HERE / "launcher.py"), str(trace_dir / f"op{i}")]
            results.append(spawn.run_op(argv, env, min(deadline_s * slow, left), out, err, launcher, cwd=ROOT))
            batches.append(probe_batch())
    slow = [statistics.median(a + b) / spawn.REFERENCE_PROBE_S for a, b in zip(batches, batches[1:])]
    return Pass(results, slow)


def timed_setup(args, work: Path) -> tuple[list[list[str]], float]:
    """Set up SETUP_REPS times, each between two reference probes; returns
    the operations and the median set-up time at the reference speed."""
    times, probes = [], []
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        probes.append(spawn.run_probe(out, err, ROOT))
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            ops = setup(args.workload, args.seed, args.seconds, work)
            times.append(time.perf_counter() - t0)
            probes.append(spawn.run_probe(out, err, ROOT))
    ref = spawn.REFERENCE_PROBE_S
    return ops, statistics.median(t * 2 * ref / (a + b) for t, a, b in zip(times, probes, probes[1:]))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def check_answers(workload: str, results: list[spawn.OpResult]) -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    import checks  # imports sympy and fgmod; kept out of set-up and the timed loop

    problems = []
    if workload == "verify-reduced":
        reference = REFERENCE.read_text()
        for r in results:
            if not r.failed:
                problems += checks.verify_problems(reference, r.exit_code, r.stdout)
        return problems
    checker = checks.QueryChecker()
    for r in results:
        if not r.failed:
            problems += [f"{' '.join(r.argv)}: {p}" for p in checker.problems(r.argv, r.exit_code, r.stdout)]
    return problems


def end_to_end(setup_s: float, p: Pass) -> tuple[dict, str]:
    lat = p.latencies()
    tail_s, pct = tail(lat)
    failed = sum(r.failed for r in p.results)
    raw = [r.latency_s for r in p.results]
    metrics = {
        "setup_s": setup_s,
        "wall_s": p.wall(),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_tail_ms": 1000.0 * tail_s,
        # a child killed at its deadline stops at an arbitrary size
        "peak_rss_mb": max((r.maxrss_mb for r in p.results if not r.killed), default=0.0),
    }
    note = (f"op_tail_ms is p{pct:.1f} of {len(lat)} samples; "
            f"failed_frac {failed / len(lat):.4f} frac ({failed}/{len(lat)}); "
            f"as measured: wall {sum(raw):.3f} s, op p50 {1000.0 * statistics.median(raw):.1f} ms, "
            f"host {statistics.median(p.slow):.3f}x the reference probe time")
    return metrics, note


def per_layer(traced_wall: float, untraced_wall: float, trace_dir: Path, n_ops: int) -> dict:
    totals = layers.LayerTotals()
    for i in range(n_ops):
        prefix = trace_dir / f"op{i}"
        if (trace_dir / f"op{i}.json").is_file():
            totals.add(str(prefix))
    return totals.metrics(traced_wall / untraced_wall - 1.0)


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = HERE / "_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.mkdir(parents=True)
        ops, setup_s = timed_setup(args, work)
        if args.trace:
            # both passes of a traced run together take about as long as one
            # untraced run
            ops = ops[: (len(ops) + 1) // 2]
        env = spawn.fgmod_env(str(ROOT))
        deadline = workloads.DEADLINE_S[args.workload]
        probes = workloads.PROBES_PER_GAP[args.workload]
        untraced = run_pass(ops, deadline, probes, env, t_start, work)
        results = untraced.results
        if args.trace:
            trace_dir = work / "trace"
            trace_dir.mkdir()
            traced = run_pass(ops, deadline, probes, env, t_start, work, trace_dir)
            values = per_layer(traced.wall(), untraced.wall(), trace_dir, len(ops))
            units = {k: u for k, (u, _) in layers.metric_units().items()}
            results = results + traced.results
            note = (f"{len(ops)} operations traced; wall at the reference speed "
                    f"{untraced.wall():.3f} s untraced, {traced.wall():.3f} s traced")
        else:
            values, note = end_to_end(setup_s, untraced)
            units = END_TO_END_UNITS
        problems = check_answers(args.workload, results)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    for p in problems[:20]:
        print(f"WRONG ANSWER: {p}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {note}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
