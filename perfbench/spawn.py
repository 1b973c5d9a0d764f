"""Run one fgmod CLI invocation, or the reference probe, in a fresh interpreter."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

# Exit codes the CLI documents: success, usage error, non-stabilizing chain,
# unexpected claim verdict.
DOCUMENTED_EXIT_CODES = (0, 2, 3, 4)
TRACE_GRACE_S = 5.0

# The reference probe: a fixed program that does not touch fgmod, started the
# way operations are (a fresh interpreter that imports part of the standard
# library, then does integer and list work).  Its latency measures the
# host's current speed for this kind of work; `REFERENCE_PROBE_S` is its
# latency on the machine the benchmark was sized on.
PROBE = """\
import argparse, dataclasses, fractions, functools, itertools, json, re
x = 1
for i in range(40000):
    x = (x * 3 + i) % 1000000007
rows = [[(i * 7 + j * 3) % 19 - 9 for j in range(12)] for i in range(12)]
for k in range(12):
    for i in range(12):
        if i != k and rows[k][k]:
            f = rows[i][k]
            rows[i] = [a * rows[k][k] - f * b for a, b in zip(rows[i], rows[k])]
"""
REFERENCE_PROBE_S = 0.125


@dataclass
class OpResult:
    argv: list[str]
    latency_s: float
    exit_code: int | None  # None when killed at the deadline
    stdout: str
    stderr: str
    maxrss_mb: float

    @property
    def killed(self) -> bool:
        return self.exit_code is None

    @property
    def failed(self) -> bool:
        """Killed, crashed with a traceback, or exited off the documented codes."""
        return (
            self.killed
            or "Traceback (most recent call last)" in self.stderr
            or self.exit_code not in DOCUMENTED_EXIT_CODES
        )


def run_child(cmd: list[str], env: dict, deadline_s: float, out, err, cwd=None,
              grace_s: float = 0.0) -> tuple[float, int | None, float]:
    """Spawn cmd with stdout/stderr to the given files; stop it at the deadline.

    At the deadline the child gets SIGTERM and `grace_s` seconds to exit
    before SIGKILL (with no grace, SIGKILL at once).  Returns (latency from
    spawn to exit, exit code or None if stopped at the deadline, peak
    resident set in MB).  The child is always reaped before returning.
    """
    for f in (out, err):
        f.seek(0)
        f.truncate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=cwd)
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        killed = not poller.poll(deadline_s * 1000)
        if killed:
            if grace_s > 0:
                signal.pidfd_send_signal(pidfd, signal.SIGTERM)
            if grace_s <= 0 or not poller.poll(grace_s * 1000):
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return latency, (None if killed else proc.returncode), usage.ru_maxrss / 1024.0


def run_probe(out, err, cwd=None) -> float:
    """Latency of one run of the reference probe, in seconds."""
    latency, code, _ = run_child([sys.executable, "-c", PROBE], dict(os.environ), 60.0, out, err, cwd)
    if code != 0:
        raise RuntimeError(f"reference probe exited {code}")
    return latency


def fgmod_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_op(argv: list[str], env: dict, deadline_s: float, out, err, launcher: list[str] | None = None,
           cwd=None) -> OpResult:
    """One CLI operation.  `launcher` replaces `-m fgmod.cli` for traced
    runs; a traced child stopped at its deadline gets time to write its spans."""
    prefix = launcher if launcher is not None else ["-m", "fgmod.cli"]
    grace = TRACE_GRACE_S if launcher is not None else 0.0
    latency, code, rss = run_child([sys.executable, *prefix, *argv], env, deadline_s, out, err, cwd, grace)
    out.seek(0)
    err.seek(0)
    return OpResult(argv, latency, code, out.read().decode(), err.read().decode(), rss)
