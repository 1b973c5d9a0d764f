"""Work stealing across forked processes, for `fgmod verify`.

`run(n, k, work)` calls `work(u)` once for every unit u in range(n), spread
over this process and k - 1 workers forked from it, and returns the results
in unit order.  Each process starts on its own contiguous slice of the
units and takes them from its front; one that runs out takes the far half
of the largest slice left.  So each process's units stay few contiguous
ranges, and with k = 2 the process on the later slice, if it runs out
first, steals next to its own units: the two meet in the middle.

The slice bounds lie in a memory file that every process maps, under a
POSIX lock on that file, which the kernel releases when its holder dies.
So a worker killed at any point, also holding the lock, leaves its slice to
the others, and this process raises its exit status.  A worker sends its
results back through a pipe as `marshal` data, so a result is a plain value
(numbers, strings, tuples, lists); the exception that stops a worker is
sent pickled, and raised here.  Workers are forked rather than spawned: a
spawned one would start an interpreter and load the caller's code again,
and fgmod starts no thread that a fork could cut off.  No worker outlives
`run`: on any exception, KeyboardInterrupt included, the workers still
running are killed and reaped before it propagates.

Only a run with workers loads this module; `AVAILABLE` says whether the
platform has what it needs.
"""

from __future__ import annotations

import fcntl
import marshal
import mmap
import os
from typing import Callable

AVAILABLE = hasattr(os, "fork") and hasattr(os, "memfd_create")


class _Slices:
    """k contiguous slices of the units 0, ..., n - 1, one per process, in a
    shared memory file: slice w is [bounds[2w], bounds[2w + 1])."""

    def __init__(self, n: int, k: int):
        self._fd = os.memfd_create("fgmod-units")
        os.ftruncate(self._fd, 16 * k)
        self._map = mmap.mmap(self._fd, 16 * k)
        self._bounds = memoryview(self._map).cast("q")
        for w in range(k):
            self._bounds[2 * w], self._bounds[2 * w + 1] = n * w // k, n * (w + 1) // k

    def take(self, w: int) -> int | None:
        """The next unit of process w, or None when every slice is empty: the
        front of its own slice, or else the middle of the largest slice
        left, whose far half from there on becomes its own."""
        bounds = self._bounds
        fcntl.lockf(self._fd, fcntl.LOCK_EX)
        try:
            lo, hi = bounds[2 * w], bounds[2 * w + 1]
            if lo == hi:
                v = max(range(0, len(bounds), 2), key=lambda v: bounds[v + 1] - bounds[v])
                lo, hi = bounds[v], bounds[v + 1]
                if lo == hi:
                    return None
                lo = bounds[v + 1] = (lo + hi) // 2
            bounds[2 * w], bounds[2 * w + 1] = lo + 1, hi
            return lo
        finally:
            fcntl.lockf(self._fd, fcntl.LOCK_UN)

    def clear(self):
        """Empty every slice, so that each process stops after its unit."""
        fcntl.lockf(self._fd, fcntl.LOCK_EX)
        self._bounds[1::2] = self._bounds[::2]
        fcntl.lockf(self._fd, fcntl.LOCK_UN)

    def close(self):
        self._bounds.release()
        self._map.close()
        os.close(self._fd)


def run(n: int, k: int, work: Callable[[int], object]) -> list:
    """[work(0), ..., work(n - 1)], computed in k processes (see the module
    docstring); k must be at least 2 and at most n."""
    slices = _Slices(n, k)

    def own(w: int) -> list[tuple]:
        done = []
        while (u := slices.take(w)) is not None:
            done.append((u, work(u)))
        return done

    children = {}  # pid -> the read end of its pipe
    try:
        for w in range(1, k):
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(own, w, write, slices)
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            children[pid] = open(read, "rb")
        done = own(0)
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code:
                raise RuntimeError(f"verify worker {pid} exited with status {code}")
            result = marshal.loads(data)
            if isinstance(result, bytes):
                import pickle  # only a worker's exception comes pickled

                raise pickle.loads(result)
            done += result
    except BaseException:
        import signal

        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        slices.close()
    results: list = [None] * n
    for u, result in done:
        results[u] = result
    return results


def _worker(own: Callable[[int], list], w: int, write: int, slices: _Slices):
    """The body of forked worker w: write `own(w)` as `marshal` data to the
    pipe end `write`, or, if it raises, clear the slices, so that the other
    processes stop soon, and write the pickled exception.  It never returns:
    `os._exit` ends the worker, so it neither unwinds into the caller's
    stack nor flushes buffers it shares with the parent."""
    code = 1
    try:
        try:
            data = marshal.dumps(own(w))
        except BaseException as exc:
            slices.clear()
            import pickle

            data = marshal.dumps(pickle.dumps(exc))
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)
