"""`run_suite(..., processes=k)` shares the (claim, grid) jobs with forked
workers: process w of k runs the jobs w, w + k, ...  Its reports are those of
the serial run, and no worker outlives the call, whichever process fails.
"""

import json
import os
import time
from pathlib import Path

import pytest

import fgmod
from fgmod import verify
from fgmod.errors import InvalidGrid

GRID = Path(__file__).parent / "golden" / "verify_small_grid.json"


def small_grids():
    return [verify.grid_from_dict(d) for d in json.loads(GRID.read_text())]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("processes", [2, 3])
def test_workers_give_the_serial_reports(processes):
    grids = small_grids()
    fgmod.clear_caches()
    serial = verify.run_suite(grids)
    fgmod.clear_caches()
    forked = verify.run_suite(grids, processes=processes)
    assert_no_child_left()
    assert len(forked.reports) == 108
    assert forked.reports == serial.reports  # every field: counts, samples, skips
    by_key = {(r.claim_id, r.grid): r for r in forked.reports}
    # the comparison covers counterexample samples and skip samples
    assert by_key[("extension-closure-R", "Z")].verdict == "fail"
    assert by_key[("extension-closure-R", "Z")].counterexamples
    assert by_key[("finiteness", "Z")].verdict == "partial"
    assert by_key[("finiteness", "Z")].skipped


def _patched(monkeypatch, claim_id, check):
    monkeypatch.setitem(verify._BY_ID, claim_id, verify._BY_ID[claim_id]._replace(check=check))


# two jobs on one grid: job 0 (reflexive) runs here, job 1 (finiteness) in the worker
TWO_JOBS = ["reflexive", "finiteness"]


def _z4():
    return [g for g in small_grids() if g.name() == "Z/4"]


def test_a_worker_error_is_raised_here_and_no_worker_is_left(monkeypatch):
    def boom(*values):
        raise InvalidGrid(f"raised in process {os.getpid()}")

    _patched(monkeypatch, "finiteness", boom)
    with pytest.raises(InvalidGrid, match=r"raised in process \d+") as info:
        verify.run_suite(_z4(), TWO_JOBS, processes=2)
    assert str(info.value) != f"raised in process {os.getpid()}"  # it came from the worker
    assert_no_child_left()


def test_a_worker_that_cannot_send_its_error_is_reported(monkeypatch):
    def unpicklable(*values):
        exc = InvalidGrid("not sent")
        exc.hook = lambda: None  # pickle refuses a lambda
        raise exc

    _patched(monkeypatch, "finiteness", unpicklable)
    with pytest.raises(RuntimeError, match="exited with status 1"):
        verify.run_suite(_z4(), TWO_JOBS, processes=2)
    assert_no_child_left()


def test_an_interrupt_here_kills_the_running_worker(monkeypatch):
    def interrupt(*values):
        raise KeyboardInterrupt

    def stall(*values):
        time.sleep(60)
        raise InvalidGrid("the worker was not killed")

    _patched(monkeypatch, "reflexive", interrupt)
    _patched(monkeypatch, "finiteness", stall)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify.run_suite(_z4(), TWO_JOBS, processes=2)
    assert time.monotonic() - start < 30  # the stalled worker was not waited for
    assert_no_child_left()


def test_processes_must_be_positive():
    with pytest.raises(ValueError, match="at least 1"):
        verify.run_suite(_z4(), TWO_JOBS, processes=0)
