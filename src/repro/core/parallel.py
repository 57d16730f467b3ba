"""Ordered, dependency-aware ``map`` over a pool of worker processes.

Every (method × dataset) cell of the paper's figure grid is independent
— the same observation *NScale* and the billion-node matching line of
work exploit — so reproducing a figure is an embarrassingly parallel
workload.  :class:`ParallelRunner` fans picklable work items out to a
``ProcessPoolExecutor`` and knows nothing about what they are: the sweep
engine maps :func:`repro.core.scheduling.run_batch` over query batches
(index build, query execution and budget enforcement all happen inside
the worker, and only the scalar outcome crosses the process boundary
back); ``repro build`` / ``repro query`` / ``repro serve`` map their own
per-method workers.

Determinism guarantee
---------------------
Results come back **in item order**, regardless of the order workers
finish, and a ``jobs=1`` runner executes the same queue in-process.
What a task computes therefore cannot depend on the worker count —
only wall-clock timing fields differ run to run, exactly as they do
between two sequential runs.
:func:`repro.core.serialization.canonical_sweep` strips those timing
fields, under which a parallel sweep serializes byte-identically to a
sequential one; ``tests/test_parallel_runner.py`` holds that property.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from collections import deque
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait

__all__ = [
    "ParallelRunner",
    "PersistentPool",
    "persistent_pool",
]


def _mp_context():
    """Prefer fork (cheap on Linux: no re-import, datasets inherited by
    the executor machinery's pickling only); fall back to the platform
    default where fork is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


class ParallelRunner:
    """Run picklable tasks across ``jobs`` worker processes.

    Parameters
    ----------
    jobs:
        Worker process count.  ``None`` means ``os.cpu_count()``;
        ``jobs <= 1`` runs every task in-process with no pool and no
        pickling — the sequential path, byte-for-byte the code the
        workers run.
    worker_initializer / initargs:
        Optional callable invoked once in each worker at startup
        (per-worker logging, instrumentation, warm caches).

    Use as a context manager to keep the pool alive across several
    :meth:`map` calls; otherwise each call manages its own short-lived
    pool.

    Examples
    --------
    >>> runner = ParallelRunner(jobs=1)
    >>> runner.jobs
    1
    """

    def __init__(
        self,
        jobs: int | None = None,
        worker_initializer: Callable | None = None,
        initargs: tuple = (),
    ) -> None:
        self.jobs = (os.cpu_count() or 1) if jobs is None else max(1, int(jobs))
        self._worker_initializer = worker_initializer
        self._initargs = initargs
        self._executor: ProcessPoolExecutor | None = None

    # -- pool lifecycle ------------------------------------------------

    def __enter__(self) -> "ParallelRunner":
        if self.jobs > 1 and self._executor is None:
            self._executor = self._make_executor()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut down a pool kept alive by context-manager use."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=_mp_context(),
            initializer=self._worker_initializer,
            initargs=self._initargs,
        )

    # -- execution -----------------------------------------------------

    def map(
        self,
        func: Callable,
        items: Sequence,
        progress: Callable[[int, int, object], None] | None = None,
        order: Sequence[int] | None = None,
        after: Mapping[int, int] | None = None,
        resolve: Callable[[object, object], object] | None = None,
    ) -> list:
        """Apply a picklable *func* to every item, preserving order.

        Results come back in ``items`` order no matter which worker
        finishes first.  With ``jobs <= 1`` this is a plain in-process
        loop.  *progress* is called after each item completes with
        ``(done_count, total, item)``.

        *order*, if given, is a permutation of ``range(len(items))``
        giving the **submission** (and, sequentially, execution) order —
        the adaptive scheduler passes a longest-first permutation here.
        Results are *returned* in ``items`` order regardless, so
        scheduling never changes what callers observe.

        *after* maps an item's index to the index of its one
        prerequisite.  Items without a prerequisite are submitted in
        *order*; a dependent is submitted the moment its prerequisite
        has finished (siblings in *order*), never before — there is no
        barrier between the two groups and no extra task.  Prerequisites
        have none themselves.  With ``jobs <= 1`` the same queue is run
        in-process, so the execution order is the submission order.

        *resolve*, called in the parent as ``resolve(item, result)`` with
        a dependent and its prerequisite's result, may return a stand-in
        result for the dependent, which is then recorded (and reported
        to *progress*) without ever being dispatched; ``None`` means
        "run it".  A prerequisite that *raises* runs none of its
        dependents, and its exception leaves this call.
        """
        total = len(items)
        if order is None:
            order = range(total)
        elif sorted(order) != list(range(total)):
            raise ValueError("order must be a permutation of range(len(items))")
        after = after or {}
        for index, prerequisite in after.items():
            if not (0 <= index < total and 0 <= prerequisite < total):
                raise ValueError("after must map item indices to item indices")
            if prerequisite in after:
                raise ValueError("a prerequisite cannot have a prerequisite")
        dependents: dict[int, list[int]] = {}
        for index in order:
            if index in after:
                dependents.setdefault(after[index], []).append(index)
        ready = deque(index for index in order if index not in after)
        results: list = [None] * total
        done_count = 0

        def finish(index: int, result) -> None:
            nonlocal done_count
            results[index] = result
            done_count += 1
            if progress is not None:
                progress(done_count, total, items[index])
            for dependent in dependents.pop(index, ()):
                stand_in = (
                    None if resolve is None else resolve(items[dependent], result)
                )
                if stand_in is None:
                    ready.append(dependent)
                else:
                    finish(dependent, stand_in)

        if self.jobs <= 1:
            while ready:
                index = ready.popleft()
                finish(index, func(items[index]))
            return results

        owns_pool = self._executor is None
        executor = self._executor or self._make_executor()
        try:
            running: dict[Future, int] = {}
            errors: dict[int, BaseException] = {}
            while ready or running:
                while ready:
                    index = ready.popleft()
                    running[executor.submit(func, items[index])] = index
                finished, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in finished:
                    index = running.pop(future)
                    error = future.exception()
                    if error is None:
                        finish(index, future.result())
                    else:
                        errors[index] = error
            # Every submitted task has finished; a worker-side exception
            # (a programming error — method failures are statuses inside
            # the cell) re-raises here, the first in item order, exactly
            # as it would sequentially.
            if errors:
                raise errors[min(errors)]
            return results
        finally:
            if owns_pool:
                executor.shutdown()


# ----------------------------------------------------------------------
# the persistent pool: one set of workers per CLI invocation
# ----------------------------------------------------------------------


class PersistentPool:
    """Keeps one :class:`ParallelRunner`'s workers alive across sweeps.

    PR 1 span up a fresh ``ProcessPoolExecutor`` per sweep; a CLI
    invocation reproducing several figures paid worker startup (and lost
    every worker-side cache) each time.  A ``PersistentPool`` hands out
    the *same* entered runner for as long as the requested worker count
    stays put, so the arena dataset cache and the batched-mode index
    cache (:mod:`repro.core.arena`, :mod:`repro.core.scheduling`) stay
    warm from one sweep to the next.

    The module-level singleton (:func:`persistent_pool`) is closed via
    ``atexit``; callers that want deterministic teardown (the CLI does)
    call :meth:`close` themselves.

    Teardown is **idempotent and reentrancy-safe**: the online query
    service (:mod:`repro.core.serve`) closes the pool from a signal-
    driven shutdown path while ``atexit`` holds its own registration,
    so ``close`` → ``close`` (double teardown) must be a no-op and a
    ``close`` arriving *while another close is mid-shutdown* — a signal
    handler interrupting the executor teardown — must return
    immediately instead of deadlocking on executor shutdown.
    """

    def __init__(self) -> None:
        self._runner: ParallelRunner | None = None
        self._close_lock = threading.Lock()

    def runner(self, jobs: int | None) -> ParallelRunner:
        """The shared runner for *jobs* workers (``None`` = all cores).

        Reuses the live runner when the resolved worker count matches;
        otherwise the old pool is shut down and a fresh one created.
        """
        resolved = (os.cpu_count() or 1) if jobs is None else max(1, int(jobs))
        if self._runner is not None and self._runner.jobs == resolved:
            return self._runner
        self.close()
        runner = ParallelRunner(jobs=resolved)
        runner.__enter__()  # owns its executor until close()
        self._runner = runner
        return runner

    @property
    def active_runner(self) -> ParallelRunner | None:
        """The currently live runner, if any (introspection/tests)."""
        return self._runner

    def close(self) -> None:
        """Shut down the pooled workers (idempotent, reentrancy-safe).

        A second ``close`` while one is already mid-teardown (a signal
        handler firing during ``atexit``, or vice versa) returns
        immediately — the first closer owns the shutdown, and blocking
        here would deadlock a handler running on the same thread the
        teardown interrupted.
        """
        if not self._close_lock.acquire(blocking=False):
            return  # another close is already tearing the pool down
        try:
            runner, self._runner = self._runner, None
            if runner is not None:
                runner.close()
        finally:
            self._close_lock.release()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_GLOBAL_POOL = PersistentPool()


def persistent_pool() -> PersistentPool:
    """The process-wide pool shared by every sweep of one invocation."""
    return _GLOBAL_POOL


atexit.register(_GLOBAL_POOL.close)
