"""`run_suite(..., processes=k)` shares its work with forked workers one
claim, grid and ideal at a time; a process that runs out of units takes half
of another's.  Which process takes which unit depends on timing, so every
test here holds whichever way they are shared: its reports are those of the
serial run, and no worker outlives the call, whichever process fails.
"""

import collections
import importlib.util
import json
import os
import select
import signal
import time
from pathlib import Path

import pytest
from fresh_interpreter import python

import fgmod
from fgmod import verify
from fgmod.errors import InvalidGrid

ROOT = Path(__file__).resolve().parents[1]
GRID = ROOT / "tests" / "golden" / "verify_small_grid.json"


def small_grids():
    return [verify.grid_from_dict(d) for d in json.loads(GRID.read_text())]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cold_run(grids, processes):
    fgmod.clear_caches()  # so that workers compute their values themselves
    return verify.run_suite(grids, processes=processes)


# 8 processes, more than the CPUs of a small host, contend for the slices: a
# unit taken twice or never would change a count
@pytest.mark.parametrize("processes", [1, 2, 3, 8])
def test_workers_give_the_serial_reports(processes):
    grids = small_grids()
    serial = cold_run(grids, 1)
    forked = cold_run(grids, processes)
    assert_no_child_left()
    assert len(forked.reports) == 108
    assert forked.reports == serial.reports  # every field: counts, samples, skips
    by_key = {(r.claim_id, r.grid): r for r in forked.reports}
    # the comparison covers counterexample samples and skip samples
    assert by_key[("extension-closure-R", "Z")].verdict == "fail"
    assert by_key[("extension-closure-R", "Z")].counterexamples
    assert by_key[("finiteness", "Z")].verdict == "partial"
    assert by_key[("finiteness", "Z")].skipped


@pytest.fixture(scope="module")
def default_serial():
    return cold_run(None, 1)


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_workers_give_the_serial_reports_on_the_default_grids(default_serial, processes):
    # counterexample samples cut at the cap across ideals: extension-closure-R
    # on Z finds more than the cap kept
    forked = cold_run(None, processes)
    assert_no_child_left()
    assert forked.reports == default_serial.reports
    capped = [r for r in forked.reports if r.counterexample_count > len(r.counterexamples)]
    assert capped and all(len(r.counterexamples) == verify._SAMPLE_CAP for r in capped)


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_permuted_claims_and_grids_give_the_reference_report(seed):
    # the benchmark's seeds permute the grids of its grid file and the ids
    # of --claims; the sorted report is its reference byte for byte
    text, ops = _workloads().verify_ops(seed, 1, verify.registered_claims(), "grids.json")
    grids = [verify.grid_from_dict(d) for d in json.loads(text)]
    claims = ops[0][ops[0].index("--claims") + 1].split(",")
    fgmod.clear_caches()
    report = verify.format_reports_text(verify.run_suite(grids, claims, processes=2))
    assert_no_child_left()
    assert report == (ROOT / "perfbench" / "reference" / "verify-reduced.txt").read_text()


def test_one_process_checks_each_job_through_check_claim(monkeypatch):
    # the traced benchmark wraps `verify.check_claim` for its per-claim spans
    calls = collections.Counter()
    real = verify.check_claim

    def counted(claim_id, grid, *args):
        calls[claim_id, grid] += 1
        return real(claim_id, grid, *args)

    monkeypatch.setattr(verify, "check_claim", counted)
    grids = small_grids()
    suite = verify.run_suite(grids, processes=1)
    by_name = {g.name(): g for g in grids}
    assert calls == {(r.claim_id, by_name[r.grid]): 1 for r in suite.reports}


# Units of two claims on Z/4 at three ideals: six units, so two processes
# start on three each.
CLAIMS = ["reflexive", "finiteness"]


def _z4():
    return [g for g in small_grids() if g.name() == "Z/4"]


class Handshake:
    """A worker calls `started()` as it starts a unit; this process calls
    `wait()`, which returns once some worker has, or fails after 30 s.  So
    some unit runs in a worker, whatever the timing, while this process
    waits before its first."""

    def __init__(self):
        self.parent = os.getpid()
        self.read, self.write = os.pipe()

    def in_worker(self) -> bool:
        return os.getpid() != self.parent

    def started(self):
        os.write(self.write, b".")

    def wait(self):
        if not select.select([self.read], [], [], 30)[0]:
            raise AssertionError("no worker started a unit")


@pytest.fixture
def in_workers(monkeypatch):
    """`in_workers(act, here=None)` makes each unit of a forked worker call
    `act` and each unit of this process call `here`, if given, once a
    worker has started a unit.  It returns the `Handshake`."""
    handshake = Handshake()
    real = verify._counts

    def install(act, here=None):
        def counts(cdef, ctx):
            if handshake.in_worker():
                handshake.started()
                act()
            else:
                handshake.wait()
                if here is not None:
                    here()
            return real(cdef, ctx)

        monkeypatch.setattr(verify, "_counts", counts)
        return handshake

    yield install
    os.close(handshake.read)
    os.close(handshake.write)


def test_a_worker_error_is_raised_here_and_no_worker_is_left(in_workers):
    def boom():
        raise InvalidGrid(f"raised in process {os.getpid()}")

    in_workers(boom)
    with pytest.raises(InvalidGrid, match=r"raised in process \d+") as info:
        verify.run_suite(_z4(), CLAIMS, processes=2)
    assert str(info.value) != f"raised in process {os.getpid()}"  # it came from the worker
    assert_no_child_left()


def test_a_worker_error_stops_this_process_early(in_workers):
    # the worker empties every slice as it fails, so this process stops
    # after a unit or two instead of checking at least its own half
    def boom():
        raise InvalidGrid("raised in a worker")

    here = []
    in_workers(boom, here=lambda: here.append(1))
    grids = small_grids()
    units = sum(
        len(ctx.ideals) for ctx in map(verify._make_ctx, grids) for c in verify._REGISTRY if c.applies(ctx)
    )
    with pytest.raises(InvalidGrid, match="raised in a worker"):
        verify.run_suite(grids, processes=2)
    assert_no_child_left()
    assert 1 <= len(here) < units // 4


def test_an_error_in_every_process_is_raised_and_no_worker_is_left(monkeypatch):
    def boom(*values):
        raise InvalidGrid(f"raised in process {os.getpid()}")

    for cid in CLAIMS:
        monkeypatch.setitem(verify._BY_ID, cid, verify._BY_ID[cid]._replace(check=boom))
    for processes in (2, 3):
        with pytest.raises(InvalidGrid, match=r"raised in process \d+"):
            verify.run_suite(_z4(), CLAIMS, processes=processes)
        assert_no_child_left()


def test_a_worker_that_cannot_send_its_error_is_reported(in_workers):
    def unpicklable():
        exc = InvalidGrid("not sent")
        exc.hook = lambda: None  # pickle refuses a lambda
        raise exc

    in_workers(unpicklable)
    with pytest.raises(RuntimeError, match="exited with status 1"):
        verify.run_suite(_z4(), CLAIMS, processes=2)
    assert_no_child_left()


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("holding_the_lock", [False, True])
def test_a_worker_killed_mid_run_is_reported_and_no_worker_is_left(monkeypatch, in_workers, holding_the_lock):
    # a worker killed in a unit leaves the rest of its slice to the others;
    # one killed holding the lock on the slice bounds leaves it to the kernel
    if holding_the_lock:
        import fcntl

        real_lockf = fcntl.lockf
        handshake = in_workers(lambda: None)

        def lockf(fd, cmd, *args):
            real_lockf(fd, cmd, *args)
            if cmd == fcntl.LOCK_EX and handshake.in_worker():
                handshake.started()
                _kill_self()

        monkeypatch.setattr(fcntl, "lockf", lockf)
    else:
        in_workers(_kill_self)

    def expire(signum, frame):
        raise TimeoutError("run_suite still running after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)  # a hang fails this test instead of stalling the run
    start = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match=f"exited with status {-signal.SIGKILL}"):
            verify.run_suite(_z4(), CLAIMS, processes=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 5
    assert_no_child_left()


def test_an_interrupt_here_kills_the_running_worker(in_workers):
    def interrupt():
        raise KeyboardInterrupt

    in_workers(lambda: time.sleep(60), here=interrupt)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify.run_suite(_z4(), CLAIMS, processes=2)
    assert time.monotonic() - start < 30  # the stalled worker was not waited for
    assert_no_child_left()


def test_processes_must_be_positive():
    with pytest.raises(ValueError, match="at least 1"):
        verify.run_suite(_z4(), CLAIMS, processes=0)


_IMPORTS_OF_A_RUN = """
import sys
from fgmod import verify
grids = [verify.grid_from_dict(d) for d in ({"ring": "Z/4", "ideal_generators": [0, 2]},)]
verify.run_suite(grids, ["reflexive", "finiteness"], processes=int(sys.argv[1]))
print(*(name in sys.modules for name in ("fcntl", "mmap", "pickle", "signal")))
"""


@pytest.mark.parametrize("processes, loaded", [(1, "False False False False"), (2, "True True False False")])
def test_workers_share_a_locked_map_loaded_once_and_send_no_pickle(processes, loaded):
    # the parent imports fcntl and mmap before its first fork, so no worker
    # imports them again; a worker's reports come back as marshal data, so
    # only a worker's error loads pickle, and only killing workers loads signal
    proc = python("-X", "importtime", "-c", _IMPORTS_OF_A_RUN, str(processes))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == loaded + "\n"
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert imported.count("fcntl") == imported.count("mmap") == (processes > 1)
    assert "pickle" not in imported
