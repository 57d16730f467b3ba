"""Sequential-equivalence harness for the parallel experiment engine.

The engine's contract (:mod:`repro.core.parallel`) is that fanning
(method × dataset) cells out to worker processes changes *nothing* about
the measured results: identical statuses, candidate/answer counts, FP
ratios, index sizes, build details, and identical ordering after the
deterministic merge — only wall-clock timings vary, as between any two
runs.  These tests hold that contract for every cell field, prove the
paper's three failure statuses survive the process boundary, and check
the pool really does dispatch work to multiple worker processes.

The suite relies on the fork start method (the runner's preference on
Linux) so monkeypatched registries and test-module functions are
visible inside workers.
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.core.experiments import nodes_sweep
from repro.core.parallel import ParallelRunner, PersistentPool, persistent_pool
from repro.core.presets import CI_PROFILE
from repro.core.runner import (
    STATUS_ERROR,
    STATUS_MEMORY,
    STATUS_OK,
    STATUS_TIMEOUT,
    CellTask,
    MethodCell,
    SizeStats,
    run_cell,
)
from repro.core.serialization import canonical_cell, canonical_sweep, sweep_to_json
from repro.core.metrics import WorkloadStats
from repro.generators.graphgen import GraphGenConfig, generate_dataset
from repro.generators.queries import generate_queries
from repro.indexes import ALL_INDEX_CLASSES
from repro.utils.budget import BudgetExceeded, MemoryBudgetExceeded

from testkit import ExplodingIndex

# Three real index methods (plus the naive baseline) with CI-scale
# settings; enough to cover trie, fingerprint, and spectral designs.
METHOD_CONFIGS = {
    "naive": None,
    "ggsx": {"max_path_edges": 2},
    "ctindex": {"fingerprint_bits": 256, "feature_edges": 3},
    "gcode": {"path_depth": 2, "top_eigenvalues": 2, "counter_buckets": 16},
}


@pytest.fixture(scope="module")
def dataset():
    config = GraphGenConfig(
        num_graphs=24, mean_nodes=10, mean_density=0.2, num_labels=4
    )
    return generate_dataset(config, seed=17)


@pytest.fixture(scope="module")
def workloads(dataset):
    return {
        3: generate_queries(dataset, 4, 3, seed=3),
        5: generate_queries(dataset, 3, 5, seed=5),
    }


def make_tasks(dataset, workloads, methods=METHOD_CONFIGS, **budgets):
    return [
        CellTask(
            key=("d0", method),
            method=method,
            dataset=dataset,
            workloads=workloads,
            method_config=config,
            **budgets,
        )
        for method, config in methods.items()
    ]


def run_cells(tasks, jobs, order=None):
    """``{key: cell}`` of one ``map(run_cell, tasks)``, in task order."""
    cells = ParallelRunner(jobs=jobs).map(run_cell, tasks, order=order)
    return {task.key: cell for task, cell in zip(tasks, cells)}


def _cell_and_pid(task):
    """Top-level pool task: the cell plus the pid of whoever ran it."""
    return run_cell(task), os.getpid()


# ----------------------------------------------------------------------
# sequential ↔ parallel equivalence
# ----------------------------------------------------------------------


class TestEquivalence:
    def test_cells_identical_across_worker_counts(self, dataset, workloads):
        tasks = make_tasks(dataset, workloads)
        sequential = run_cells(tasks, jobs=1)
        parallel = run_cells(tasks, jobs=2)

        # Deterministic merge: same keys, same insertion order.
        assert list(sequential) == list(parallel) == [t.key for t in tasks]

        for key in sequential:
            seq, par = canonical_cell(sequential[key]), canonical_cell(parallel[key])
            assert seq == par, f"cell {key} differs between jobs=1 and jobs=2"
            assert par.build_status == STATUS_OK
            assert par.per_size and all(
                s.status == STATUS_OK for s in par.per_size.values()
            )

    def test_parallel_matches_direct_run_cell(self, dataset, workloads):
        """One worker hop changes nothing vs. calling run_cell inline."""
        task = make_tasks(dataset, workloads)[1]  # ggsx
        inline = run_cell(task)
        (cell,) = ParallelRunner(jobs=2).map(run_cell, [task])
        assert canonical_cell(cell) == canonical_cell(inline)

    def test_sweep_serializes_byte_identical(self):
        """A whole sweep, canonicalized, is byte-identical across jobs."""
        from dataclasses import replace

        tiny = replace(
            CI_PROFILE,
            nodes_values=(8, 12),
            default_num_graphs=10,
            default_nodes=10,
            default_density=0.2,
            default_labels=3,
            query_sizes=(3, 5),
            queries_per_size=3,
            method_configs={
                name: config
                for name, config in METHOD_CONFIGS.items()
                if config is not None
            },
        )
        sequential = nodes_sweep(tiny, seed=3, jobs=1)
        parallel = nodes_sweep(tiny, seed=3, jobs=2)
        assert sweep_to_json(canonical_sweep(sequential)) == sweep_to_json(
            canonical_sweep(parallel)
        )
        assert list(sequential.cells) == list(parallel.cells)


# ----------------------------------------------------------------------
# failure statuses across the process boundary
# ----------------------------------------------------------------------


def _real_methods():
    return {k: v for k, v in METHOD_CONFIGS.items() if k != "naive"}


class TestFailureInjection:
    def test_timeout_status_survives_workers(self, dataset, workloads):
        tasks = make_tasks(
            dataset, workloads, methods=_real_methods(), build_budget_seconds=0.0
        )
        for key, cell in run_cells(tasks, jobs=2).items():
            assert cell.build_status == STATUS_TIMEOUT, key
            assert cell.build_seconds is None and not cell.per_size

    def test_memory_status_survives_workers(self, dataset, workloads):
        tasks = make_tasks(
            dataset, workloads, methods=_real_methods(), build_memory_bytes=1
        )
        for key, cell in run_cells(tasks, jobs=2).items():
            assert cell.build_status == STATUS_MEMORY, key

    def test_error_status_survives_workers(self, dataset, workloads, monkeypatch):
        # Registered under fork the workers inherit the patched registry.
        monkeypatch.setitem(ALL_INDEX_CLASSES, "exploding", ExplodingIndex)
        tasks = make_tasks(dataset, workloads, methods={"exploding": None})
        (cell,) = run_cells(tasks, jobs=2).values()
        assert cell.build_status == STATUS_ERROR
        assert "injected build failure" in cell.build_error

    def test_query_timeout_status_survives_workers(self, dataset, workloads):
        tasks = make_tasks(
            dataset, workloads, methods=_real_methods(), query_budget_seconds=0.0
        )
        for key, cell in run_cells(tasks, jobs=2).items():
            assert cell.build_status == STATUS_OK, key
            assert all(
                s.status == STATUS_TIMEOUT for s in cell.per_size.values()
            ), key

    def test_budget_exceptions_pickle(self):
        exc = pickle.loads(pickle.dumps(BudgetExceeded(1.5, "build")))
        assert exc.limit_seconds == 1.5 and exc.phase == "build"
        exc = pickle.loads(pickle.dumps(MemoryBudgetExceeded(64, 128, "build")))
        assert exc.limit_bytes == 64 and exc.observed_bytes == 128

    def test_result_types_pickle_roundtrip(self, dataset, workloads):
        cell = run_cell(make_tasks(dataset, workloads)[1])
        assert pickle.loads(pickle.dumps(cell)) == cell
        stats = WorkloadStats(2, 0.1, 0.05, 0.05, 3.0, 1.0, 0.5)
        assert pickle.loads(pickle.dumps(stats)) == stats
        size = SizeStats(status=STATUS_OK, stats=stats)
        assert pickle.loads(pickle.dumps(size)) == size

    def test_worker_programming_errors_propagate(self, dataset, workloads):
        """Unknown methods are caller bugs, not statuses — parallel runs
        raise exactly like sequential ones."""
        tasks = make_tasks(dataset, workloads, methods={"no_such_method": None})
        with pytest.raises(ValueError, match="unknown method"):
            run_cells(tasks, jobs=2)
        with pytest.raises(ValueError, match="unknown method"):
            run_cells(tasks, jobs=1)


# ----------------------------------------------------------------------
# the pool actually dispatches to multiple workers
# ----------------------------------------------------------------------


def _record_worker_pid(directory: str) -> None:
    """Worker initializer: leave a pid marker at pool startup."""
    with open(os.path.join(directory, f"worker-{os.getpid()}"), "w") as fh:
        fh.write("up")


class TestDispatch:
    def test_pool_spawns_and_uses_multiple_workers(self, dataset, workloads, tmp_path):
        tasks = make_tasks(dataset, workloads) * 2  # 8 cells to spread
        runner = ParallelRunner(
            jobs=2, worker_initializer=_record_worker_pid, initargs=(str(tmp_path),)
        )
        with runner:
            outcomes = runner.map(_cell_and_pid, tasks)

        started = {int(p.name.split("-")[1]) for p in tmp_path.iterdir()}
        assert len(started) == 2, "jobs=2 should start two worker processes"
        assert os.getpid() not in started

        used = {pid for _, pid in outcomes}
        assert used <= started
        assert os.getpid() not in used
        # The builds and queries really happened in the workers.
        assert all(cell.build_status == STATUS_OK for cell, _ in outcomes)

    def test_sequential_runs_in_process(self, dataset, workloads):
        outcomes = ParallelRunner(jobs=1).map(
            _cell_and_pid, make_tasks(dataset, workloads)
        )
        assert {pid for _, pid in outcomes} == {os.getpid()}

    def test_progress_reports_every_task_once(self, dataset, workloads):
        seen = []
        tasks = make_tasks(dataset, workloads)
        ParallelRunner(jobs=2).map(
            run_cell,
            tasks,
            progress=lambda done, total, task: seen.append((done, total)),
        )
        assert sorted(seen) == [(i, len(tasks)) for i in range(1, len(tasks) + 1)]

    def test_jobs_default_is_cpu_count(self):
        assert ParallelRunner().jobs == (os.cpu_count() or 1)

    def test_pool_reuse_across_runs(self, dataset, workloads):
        tasks = make_tasks(dataset, workloads, methods={"naive": None})
        with ParallelRunner(jobs=2) as runner:
            first = runner.map(run_cell, tasks)
            second = runner.map(run_cell, tasks)
        assert canonical_cell(first[0]) == canonical_cell(second[0])


class TestCellMergeOrder:
    def test_merge_order_is_submission_order(self, dataset, workloads):
        """Even when later tasks finish first (naive finishes long before
        the index builds), cells come back in task order."""
        methods = {"ggsx": METHOD_CONFIGS["ggsx"], "naive": None}
        tasks = make_tasks(dataset, workloads, methods=methods)
        cells = ParallelRunner(jobs=2).map(run_cell, tasks)
        assert [cell.method for cell in cells] == ["ggsx", "naive"]
        assert isinstance(cells[0], MethodCell)

    def test_scheduling_order_does_not_change_outcomes(self, dataset, workloads):
        """A longest-first (here: reversed) submission permutation must
        be invisible in the merged output."""
        tasks = make_tasks(dataset, workloads)
        fifo = run_cells(tasks, jobs=2)
        reordered = run_cells(
            tasks, jobs=2, order=list(reversed(range(len(tasks))))
        )
        assert list(fifo) == list(reordered) == [t.key for t in tasks]
        for key in fifo:
            assert canonical_cell(fifo[key]) == canonical_cell(reordered[key])


# ----------------------------------------------------------------------
# dependency-aware submit: a prerequisite first, its dependents after
# ----------------------------------------------------------------------


def _tracked(item):
    """Run one ``(directory, name, needs)`` item: report whether the
    prerequisite *needs* had finished when this one started, then leave
    a finished-marker of its own.  Prerequisites dawdle, so a dependent
    submitted alongside one would start first on an idle worker."""
    directory, name, needs = item
    if name.startswith("bad"):
        raise ValueError(f"injected failure in {name}")
    started_after = needs is None or os.path.exists(os.path.join(directory, needs))
    if needs is None:
        time.sleep(0.05)
    with open(os.path.join(directory, name), "w") as fh:
        fh.write("done")
    return name, started_after


class TestDependentSubmit:
    NAMES = ("a", "a1", "a2", "b", "b1", "c")
    AFTER = {1: 0, 2: 0, 4: 3}

    def items(self, directory, names=NAMES, after=AFTER):
        return [
            (str(directory), name, names[after[i]] if i in after else None)
            for i, name in enumerate(names)
        ]

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_dependents_start_after_their_prerequisite(self, tmp_path, jobs):
        items = self.items(tmp_path)
        results = ParallelRunner(jobs=jobs).map(
            _tracked, items, order=[4, 2, 5, 3, 1, 0], after=self.AFTER
        )
        # Item order, whatever the submission and completion order.
        assert [name for name, _ in results] == list(self.NAMES)
        assert all(started_after for _, started_after in results)

    def test_sequential_execution_is_the_submission_order(self, tmp_path):
        """jobs=1 runs the very queue jobs>1 submits: prerequisites in
        *order*, each one's dependents (siblings in *order*) joining the
        back of the queue when it finishes."""
        executed = []
        ParallelRunner(jobs=1).map(
            _tracked,
            self.items(tmp_path),
            progress=lambda done, total, item: executed.append((done, item[1])),
            order=[4, 2, 5, 3, 1, 0],
            after=self.AFTER,
        )
        assert executed == list(
            enumerate(["c", "b", "a", "b1", "a2", "a1"], start=1)
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_prerequisite_exception_runs_no_dependent(self, tmp_path, jobs):
        names = ("ok", "ok1", "bad", "bad1", "bad2")
        items = self.items(tmp_path, names, {1: 0, 3: 2, 4: 2})
        with pytest.raises(ValueError, match="injected failure in bad"):
            ParallelRunner(jobs=jobs).map(
                _tracked, items, after={1: 0, 3: 2, 4: 2}
            )
        # Sequentially the exception leaves at once (before "ok1" gets
        # its turn); in a pool everything already submitted finishes.
        ran = {path.name for path in tmp_path.iterdir()}
        assert ran == ({"ok"} if jobs == 1 else {"ok", "ok1"})

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resolve_stands_in_without_dispatch(self, tmp_path, jobs):
        """A stand-in result is recorded and reported, never executed;
        ``None`` from *resolve* lets the dependent run."""
        seen = []
        results = ParallelRunner(jobs=jobs).map(
            _tracked,
            self.items(tmp_path),
            progress=lambda done, total, item: seen.append(item[1]),
            after=self.AFTER,
            resolve=lambda item, result: (
                (item[1], "skipped") if result[0] == "a" else None
            ),
        )
        assert results[1:3] == [("a1", "skipped"), ("a2", "skipped")]
        assert results[4] == ("b1", True)
        assert sorted(seen) == sorted(self.NAMES)
        assert {path.name for path in tmp_path.iterdir()} == {"a", "b", "b1", "c"}

    def test_after_is_validated(self):
        runner = ParallelRunner(jobs=1)
        with pytest.raises(ValueError, match="item indices"):
            runner.map(abs, [1, 2], after={1: 2})
        with pytest.raises(ValueError, match="cannot have a prerequisite"):
            runner.map(abs, [1, 2, 3], after={1: 0, 2: 1})


# ----------------------------------------------------------------------
# the persistent pool: workers survive across sweeps
# ----------------------------------------------------------------------


class TestPersistentPool:
    def test_same_runner_reused_for_same_jobs(self):
        with PersistentPool() as pool:
            first = pool.runner(2)
            assert pool.runner(2) is first
            assert pool.active_runner is first

    def test_new_runner_on_jobs_change(self):
        with PersistentPool() as pool:
            first = pool.runner(2)
            second = pool.runner(3)
            assert second is not first and second.jobs == 3
            # The old runner's pool was shut down with it.
            assert first._executor is None

    def test_close_is_idempotent_and_reopens(self):
        pool = PersistentPool()
        runner = pool.runner(2)
        pool.close()
        pool.close()
        assert pool.active_runner is None
        again = pool.runner(2)
        assert again is not runner
        pool.close()

    def test_pool_executes_across_calls_with_warm_workers(
        self, dataset, workloads
    ):
        """Two runs through one persistent pool reuse the same worker
        processes — the whole point of keeping them alive."""
        tasks = make_tasks(dataset, workloads, methods={"naive": None})
        with PersistentPool() as pool:
            runner = pool.runner(2)
            first = runner.map(_cell_and_pid, tasks * 2)
            second = runner.map(_cell_and_pid, tasks * 2)
        assert {pid for _, pid in second} <= {pid for _, pid in first}
        assert canonical_cell(first[0][0]) == canonical_cell(second[0][0])

    def test_module_singleton_round_trip(self):
        pool = persistent_pool()
        assert persistent_pool() is pool
        runner = pool.runner(2)
        assert pool.runner(2) is runner
        pool.close()
        assert pool.active_runner is None

    def test_sweeps_share_one_pool(self):
        """Passing the persistent runner into consecutive sweeps keeps
        results equal to fresh-pool runs."""
        from dataclasses import replace

        profile = replace(
            CI_PROFILE,
            nodes_values=(8, 12),
            default_num_graphs=8,
            default_nodes=10,
            default_density=0.2,
            default_labels=3,
            query_sizes=(3,),
            queries_per_size=2,
            method_configs={"ggsx": {"max_path_edges": 2}, "naive": {}},
        )
        with PersistentPool() as pool:
            runner = pool.runner(2)
            first = nodes_sweep(profile, seed=3, jobs=2, runner=runner)
            second = nodes_sweep(
                profile, seed=3, jobs=2, shared_mem=True, runner=runner
            )
            assert pool.active_runner is runner  # sweeps did not close it
        fresh = nodes_sweep(profile, seed=3, jobs=1)
        assert sweep_to_json(canonical_sweep(first)) == sweep_to_json(
            canonical_sweep(fresh)
        )
        assert sweep_to_json(canonical_sweep(second)) == sweep_to_json(
            canonical_sweep(fresh)
        )


class TestPersistentPoolTeardown:
    """The idempotent / reentrancy-safe close contract the serve
    daemon's signal-driven shutdown (plus atexit) relies on."""

    def test_double_close_is_a_noop(self):
        pool = PersistentPool()
        runner = pool.runner(2)
        assert pool.active_runner is runner
        pool.close()
        assert pool.active_runner is None
        pool.close()  # second teardown: nothing to do, nothing raised
        assert pool.active_runner is None

    def test_close_during_close_returns_instead_of_blocking(self):
        import threading
        import time

        pool = PersistentPool()
        pool.runner(2)
        entered = threading.Event()
        release = threading.Event()

        original_close = pool._runner.close

        def slow_close():
            entered.set()
            release.wait(timeout=10)
            original_close()

        pool._runner.close = slow_close
        first = threading.Thread(target=pool.close)
        first.start()
        assert entered.wait(timeout=10)
        # Reentrant close while the first is mid-teardown: must return
        # promptly (a blocked signal handler would deadlock the drain).
        start = time.perf_counter()
        pool.close()
        assert time.perf_counter() - start < 1.0
        release.set()
        first.join(timeout=10)
        assert not first.is_alive()
        assert pool.active_runner is None

    def test_pool_is_usable_again_after_close(self):
        pool = PersistentPool()
        first = pool.runner(2)
        pool.close()
        second = pool.runner(2)
        try:
            assert second is not first
            assert second.map(len, [[1], [1, 2]]) == [1, 2]
        finally:
            pool.close()
