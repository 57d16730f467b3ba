"""Adaptive scheduling and per-query batching: ordering + determinism.

The scheduler's contract has two halves:

* **longest-first submission** — cells (or batches) are handed to the
  pool in descending estimated cost, stable on ties;
* **submission-deterministic merge** — no matter which workers finish
  first, and no matter what submission order the scheduler chose, the
  merged results are identical to a sequential run, in the sequential
  run's order.
"""

from __future__ import annotations

import json
import random
import tempfile
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import experiments, scheduling
from repro.core.arena import DatasetArena
from repro.core.experiments import nodes_sweep, real_dataset_experiment
from repro.core.metrics import QueryRecord, summarize_records, summarize_results
from repro.core.parallel import ParallelRunner
from repro.core.presets import CI_PROFILE
from repro.core.runner import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CellTask,
    run_cell,
)
from repro.core.scheduling import (
    clear_index_cache,
    estimate_batch_cost,
    estimate_cost,
    longest_first,
    merge_batches,
    propagate_build_failure,
    run_batch,
    split_cell,
)
from repro.core.serialization import canonical_cell, sweep_digest
from repro.generators.graphgen import GraphGenConfig, generate_dataset
from repro.generators.queries import generate_queries
from repro.indexes import ALL_INDEX_CLASSES, NaiveIndex

from oracles import reference_cell

METHOD_CONFIGS = {
    "naive": None,
    "ggsx": {"max_path_edges": 2},
    "ctindex": {"fingerprint_bits": 256, "feature_edges": 3},
    "gcode": {"path_depth": 2, "top_eigenvalues": 2, "counter_buckets": 16},
}


@pytest.fixture(scope="module")
def dataset():
    config = GraphGenConfig(
        num_graphs=18, mean_nodes=10, mean_density=0.2, num_labels=4
    )
    return generate_dataset(config, seed=23)


@pytest.fixture(scope="module")
def workloads(dataset):
    return {
        3: generate_queries(dataset, 5, 3, seed=3),
        5: generate_queries(dataset, 4, 5, seed=5),
    }


def make_task(dataset, workloads, method="ggsx", key=None, **budgets):
    return CellTask(
        key=key or ("d0", method),
        method=method,
        dataset=dataset,
        workloads=workloads,
        method_config=METHOD_CONFIGS.get(method),
        **budgets,
    )


# ----------------------------------------------------------------------
# longest-first ordering
# ----------------------------------------------------------------------


class TestLongestFirst:
    def test_orders_by_descending_cost(self):
        assert longest_first([3.0, 1.0, 5.0, 4.0]) == [2, 3, 0, 1]

    def test_stable_on_ties(self):
        assert longest_first([2.0, 5.0, 5.0, 2.0]) == [1, 2, 0, 3]

    def test_empty_and_single(self):
        assert longest_first([]) == []
        assert longest_first([7.0]) == [0]

    def test_cost_grows_with_dataset_and_queries(self, dataset, workloads):
        small = dataset.subset(range(4))
        big_task = make_task(dataset, workloads)
        small_task = make_task(small, workloads)
        assert estimate_cost(big_task) > estimate_cost(small_task)
        light = make_task(dataset, {3: workloads[3][:1]})
        assert estimate_cost(big_task) > estimate_cost(light)

    def test_shared_task_cost_matches_plain(self, dataset, workloads):
        task = make_task(dataset, workloads)
        with DatasetArena.create(dataset) as arena:
            shared = replace(task, dataset=arena.handle)
            assert estimate_cost(shared) == estimate_cost(task)

    def test_batch_costs_sum_below_cell_cost(self, dataset, workloads):
        """Only batch 0 is charged the build, so a cell's batches cost
        between them what the cell costs."""
        task = make_task(dataset, workloads)
        batches = split_cell(task, 3)
        costs = [estimate_batch_cost(batch) for batch in batches]
        assert all(0 < cost < estimate_cost(task) for cost in costs)
        assert sum(costs) == pytest.approx(estimate_cost(task))
        # The build charge is the whole difference between two batches
        # with equal query slices.
        build_only, = split_cell(make_task(dataset, {}), 3)
        twin = replace(batches[0], batch_index=1)
        assert costs[0] - estimate_batch_cost(twin) == pytest.approx(
            estimate_batch_cost(build_only)
        )

    def test_runner_respects_submission_order_sequentially(self):
        """With jobs=1 the order permutation IS the execution order,
        observable through the progress callback."""
        executed = []
        runner = ParallelRunner(jobs=1)
        runner.map(
            _identity,
            ["a", "b", "c", "d"],
            progress=lambda done, total, item: executed.append(item),
            order=[2, 0, 3, 1],
        )
        assert executed == ["c", "a", "d", "b"]

    def test_map_returns_results_in_item_order_despite_order(self):
        items = list(range(7))
        for jobs in (1, 2):
            runner = ParallelRunner(jobs=jobs)
            shuffled = list(items)
            random.Random(5).shuffle(shuffled)
            assert runner.map(_square, items, order=shuffled) == [
                i * i for i in items
            ]

    def test_map_rejects_non_permutation_order(self):
        with pytest.raises(ValueError, match="permutation"):
            ParallelRunner(jobs=1).map(_square, [1, 2, 3], order=[0, 0, 1])


def _identity(x):
    return x


def _square(x):
    return x * x


# ----------------------------------------------------------------------
# splitting cells into query batches
# ----------------------------------------------------------------------


class TestSplitCell:
    def test_split_covers_every_query_contiguously(self, dataset, workloads):
        task = make_task(dataset, workloads)
        batches = split_cell(task, 3)
        assert len(batches) == 3
        assert all(b.num_batches == 3 and b.sizes == (3, 5) for b in batches)
        for size, queries in workloads.items():
            parts = sorted(
                (p for b in batches for p in b.parts if p.size == size),
                key=lambda p: p.start,
            )
            reassembled = []
            for part in parts:
                assert part.start == len(reassembled)
                reassembled.extend(part.queries)
            assert reassembled == list(queries)

    def test_split_is_deterministic(self, dataset, workloads):
        task = make_task(dataset, workloads)
        first = split_cell(task, 4)
        second = split_cell(task, 4)
        assert [b.parts for b in first] == [b.parts for b in second]

    def test_more_batches_than_queries_collapses(self, dataset, workloads):
        tiny = {3: workloads[3][:2]}
        batches = split_cell(make_task(dataset, tiny), 8)
        assert len(batches) == 2

    def test_no_queries_yields_one_build_only_batch(self, dataset):
        (batch,) = split_cell(make_task(dataset, {}), 4)
        assert batch.parts == () and batch.num_batches == 1

    def test_dataset_key_defaults_to_fingerprint(self, dataset, workloads):
        from repro.graphs.dataset import dataset_fingerprint

        task = make_task(dataset, workloads)
        (first, *_) = split_cell(task, 2)
        assert first.dataset_key == dataset_fingerprint(dataset)


# ----------------------------------------------------------------------
# batch execution + deterministic merge
# ----------------------------------------------------------------------


class TestBatchMerge:
    @pytest.mark.parametrize("method", list(METHOD_CONFIGS))
    def test_merged_cell_matches_sequential(self, dataset, workloads, method):
        clear_index_cache()
        task = make_task(dataset, workloads, method=method)
        sequential = run_cell(task)
        batches = split_cell(task, 3)
        outcomes = [run_batch(batch) for batch in batches]
        merged = merge_batches(batches, outcomes)
        assert canonical_cell(merged) == canonical_cell(sequential)

    def test_merge_ignores_completion_order(self, dataset, workloads):
        clear_index_cache()
        task = make_task(dataset, workloads)
        batches = split_cell(task, 3)
        outcomes = [run_batch(batch) for batch in batches]
        reference = merge_batches(batches, outcomes)
        for seed in range(4):
            pairs = list(zip(batches, outcomes))
            random.Random(seed).shuffle(pairs)
            shuffled = merge_batches(
                [p[0] for p in pairs], [p[1] for p in pairs]
            )
            assert canonical_cell(shuffled) == canonical_cell(reference)

    def test_build_failure_statuses_merge(self, dataset, workloads):
        clear_index_cache()
        task = make_task(
            dataset, workloads, method="ggsx", build_budget_seconds=0.0
        )
        batches = split_cell(task, 2)
        merged = merge_batches(batches, [run_batch(b) for b in batches])
        sequential = run_cell(task)
        assert merged.build_status == STATUS_TIMEOUT == sequential.build_status
        assert not merged.per_size and not sequential.per_size

    def test_query_timeout_statuses_merge(self, dataset, workloads):
        clear_index_cache()
        task = make_task(
            dataset, workloads, method="ggsx", query_budget_seconds=0.0
        )
        batches = split_cell(task, 2)
        merged = merge_batches(batches, [run_batch(b) for b in batches])
        assert merged.build_status == STATUS_OK
        assert merged.per_size
        assert all(
            s.status == STATUS_TIMEOUT for s in merged.per_size.values()
        )

    def test_divergent_build_outcomes_fail_the_whole_cell(
        self, dataset, workloads
    ):
        """Without a store a dependent batch landing in another worker
        rebuilds the index there, and that private rebuild can fail
        where batch 0's succeeded; the merge must not emit partial
        query statistics."""
        from repro.core.scheduling import BatchOutcome, PartOutcome
        from repro.core.metrics import QueryRecord

        clear_index_cache()
        task = make_task(dataset, workloads)
        batches = split_cell(task, 2)
        ok_records = tuple(
            QueryRecord(0.0, 0.0, 0.0, 1, 1, 0.0) for _ in batches[0].parts[0].queries
        )
        mixed = [
            BatchOutcome(
                key=task.key,
                batch_index=0,
                build_status=STATUS_OK,
                build_seconds=0.1,
                index_bytes=10,
                parts=(PartOutcome(3, 0, STATUS_OK, ok_records),),
            ),
            BatchOutcome(
                key=task.key, batch_index=1, build_status=STATUS_TIMEOUT
            ),
        ]
        merged = merge_batches(batches, mixed)
        assert merged.build_status == STATUS_TIMEOUT
        assert not merged.per_size  # no partial statistics leak through

    def test_worker_index_cache_builds_once(self, dataset, workloads):
        """All batches of a cell share one worker-side build (via the
        budget-keyed build memo, as in PR 2)."""
        clear_index_cache()
        task = make_task(dataset, workloads)
        batches = split_cell(task, 3)
        outcomes = [run_batch(batch) for batch in batches]
        assert len(scheduling._BUILD_MEMO) == 1
        # Without an explicit --index-store the artifact store stays
        # out of the path entirely: no provenance, no budget crossing.
        assert all(o.provenance == {} for o in outcomes)
        clear_index_cache()
        assert len(scheduling._BUILD_MEMO) == 0

    def test_store_dir_builds_once_and_serves_cold_process(
        self, dataset, workloads, tmp_path
    ):
        """With a store directory, one build is written through; a cold
        process (cleared memo + memory tier) reuses it with provenance."""
        clear_index_cache()
        from repro.indexes.store import shared_store

        task = replace(
            make_task(dataset, workloads), index_store_dir=str(tmp_path)
        )
        batches = split_cell(task, 3)
        outcomes = [run_batch(batch) for batch in batches]
        assert shared_store(str(tmp_path)).stats.puts == 1
        # The building run reports fresh provenance on every batch (the
        # memo serves later batches the same entry).
        assert all(o.provenance["reused"] is False for o in outcomes)
        clear_index_cache()  # "new invocation": only the disk tier left
        warm = [run_batch(batch) for batch in batches]
        assert all(o.provenance["reused"] is True for o in warm)
        assert {o.provenance["artifact"] for o in warm} == {
            outcomes[0].provenance["artifact"]
        }
        from repro.core.serialization import canonical_cell

        assert canonical_cell(merge_batches(batches, warm)) == canonical_cell(
            merge_batches(batches, outcomes)
        )
        clear_index_cache()

    def test_merge_counts_the_batches_that_built(
        self, dataset, workloads, tmp_path
    ):
        """``fresh_batches`` is the number of batches that ran a build:
        one for a cold cell however its batches were served (memo or
        store), none for a warm one, and batch 0's provenance — the
        build the others waited for — is the cell's."""
        clear_index_cache()
        task = replace(
            make_task(dataset, workloads), index_store_dir=str(tmp_path)
        )
        batches = split_cell(task, 3)
        lead = run_batch(batches[0])
        same_process = run_batch(batches[1])  # served by the build memo
        clear_index_cache()
        other_process = run_batch(batches[2])  # served by the store
        assert [o.built for o in (lead, same_process, other_process)] == [
            True, False, False,
        ]
        cold = merge_batches(batches, [lead, same_process, other_process])
        assert cold.provenance["fresh_batches"] == 1
        assert cold.provenance["reused"] is False
        warm = merge_batches(batches, [run_batch(b) for b in batches])
        assert warm.provenance["fresh_batches"] == 0
        assert warm.provenance["reused"] is True
        clear_index_cache()

    def test_failed_build_propagates_without_running(self, dataset, workloads):
        """The dispatcher's hook: a failed batch 0 hands every other
        batch its status; a successful one lets them run."""
        clear_index_cache()
        task = make_task(dataset, workloads, build_budget_seconds=0.0)
        lead_batch, dependent = split_cell(task, 2)
        lead = run_batch(lead_batch)
        stand_in = propagate_build_failure(dependent, lead)
        assert stand_in.build_status == STATUS_TIMEOUT
        assert (stand_in.key, stand_in.batch_index) == (task.key, 1)
        assert not stand_in.built and not stand_in.parts
        merged = merge_batches([lead_batch, dependent], [lead, stand_in])
        assert canonical_cell(merged) == canonical_cell(run_cell(task))
        clear_index_cache()
        ok = run_batch(split_cell(make_task(dataset, workloads), 2)[0])
        assert propagate_build_failure(dependent, ok) is None

    def test_programming_errors_propagate(self, dataset, workloads):
        clear_index_cache()
        task = CellTask(
            key=("d0", "nope"),
            method="no_such_method",
            dataset=dataset,
            workloads=workloads,
        )
        (batch, *_) = split_cell(task, 2)
        with pytest.raises(ValueError, match="unknown method"):
            run_batch(batch)

    def test_merge_requires_batches(self):
        with pytest.raises(ValueError, match="at least one batch"):
            merge_batches([], [])


# ----------------------------------------------------------------------
# every split of a cell equals the straight-line reference cell
# ----------------------------------------------------------------------

BUDGETS = {
    "none": {},
    "zero-build": {"build_budget_seconds": 0.0},
    "zero-query": {"query_budget_seconds": 0.0},
}


def _cell_json(cell) -> str:
    return json.dumps(asdict(canonical_cell(cell)), sort_keys=True)


class TestSplitsMatchReferenceCell:
    @settings(max_examples=40, deadline=None)
    @given(
        num_batches=st.sampled_from([1, 2, 3, 5]),
        method=st.sampled_from(sorted(METHOD_CONFIGS)),
        stored=st.booleans(),
        budgets=st.sampled_from(sorted(BUDGETS)),
    )
    def test_merged_cell_equals_reference(
        self, dataset, workloads, num_batches, method, stored, budgets
    ):
        expected = _cell_json(
            reference_cell(
                method, dataset, workloads,
                method_config=METHOD_CONFIGS[method], **BUDGETS[budgets],
            )
        )
        task = make_task(dataset, workloads, method=method, **BUDGETS[budgets])
        with tempfile.TemporaryDirectory() as store_dir:
            if stored:
                task = replace(task, index_store_dir=store_dir)
            batches = split_cell(task, num_batches)
            # Cold, then again as a fresh process would see the store.
            for _ in range(2 if stored else 1):
                clear_index_cache()
                merged = merge_batches(batches, [run_batch(b) for b in batches])
                assert _cell_json(merged) == expected
        clear_index_cache()


class TestOneBatchCell:
    def test_storeless_cell_retains_nothing_and_skips_the_fingerprint(
        self, dataset, workloads, monkeypatch
    ):
        """A whole cell has no later batch to serve: its index is not
        memoized, and with no store nothing needs the dataset digest."""

        def unexpected(_dataset):
            raise AssertionError("dataset_fingerprint called")

        monkeypatch.setattr(scheduling, "dataset_fingerprint", unexpected)
        clear_index_cache()
        cell = run_cell(make_task(dataset, workloads))
        assert cell.build_status == STATUS_OK
        assert cell.provenance == {"fresh_batches": 1}
        assert scheduling._BUILD_MEMO == {}


# ----------------------------------------------------------------------
# record aggregation mirrors the sequential arithmetic
# ----------------------------------------------------------------------


class TestRecordAggregation:
    def test_summarize_records_empty(self):
        stats = summarize_records([])
        assert stats == summarize_results([])

    def test_summarize_records_matches_results(self, dataset, workloads):
        from repro.core.metrics import record_of
        from repro.core.runner import make_method

        index = make_method("ggsx", METHOD_CONFIGS["ggsx"])
        index.build(dataset)
        results = [index.query(q) for q in workloads[3]]
        records = [record_of(r) for r in results]
        by_records = summarize_records(records)
        by_results = summarize_results(results)
        assert by_records == by_results

    def test_record_is_scalar_only(self):
        record = QueryRecord(0.1, 0.06, 0.04, 5, 2, 0.6)
        assert record.num_candidates == 5 and record.num_answers == 2


# ----------------------------------------------------------------------
# sweep-level: merged order is submission-deterministic
# ----------------------------------------------------------------------


def _tiny_profile(method_configs):
    return replace(
        CI_PROFILE,
        nodes_values=(8, 12),
        default_num_graphs=10,
        default_nodes=10,
        default_density=0.2,
        default_labels=3,
        query_sizes=(3, 5),
        queries_per_size=4,
        method_configs=method_configs,
    )


#: Methods with wildly different speeds, so completion order differs
#: from submission order almost surely.
MIXED_SPEED_METHODS = {
    "ggsx": {"max_path_edges": 2},
    "naive": {},
    "ctindex": {"fingerprint_bits": 256, "feature_edges": 3},
}


class TestSweepOrdering:
    def test_batched_sweep_order_matches_sequential(self):
        profile = _tiny_profile(MIXED_SPEED_METHODS)
        sequential = nodes_sweep(profile, seed=3, jobs=1)
        batched = nodes_sweep(
            profile, seed=3, jobs=2, shared_mem=True, batch_queries=True
        )
        assert list(batched.cells) == list(sequential.cells)


class SpyIndex(NaiveIndex):
    """Logs its builds and queries (in-process sweeps only)."""

    name = "spy"
    events: list = []

    def _build(self, dataset, budget):
        self.events.append(("build", dataset.name))
        return super()._build(dataset, budget)

    def _filter(self, query, budget):
        self.events.append(("query", self._dataset.name))
        return super()._filter(query, budget)


class TestStreamedSweep:
    def test_one_dataset_alive_and_progress_before_each_cell(self, monkeypatch):
        """A jobs=1 sweep with no engine flag streams its cells: x value
        k+1's dataset is generated only after every cell of k has
        returned, and a cell is reported before it runs."""
        events = SpyIndex.events = []

        def make_dataset(name, scale, seed):
            events.append(("dataset", name))
            config = GraphGenConfig(
                num_graphs=6, mean_nodes=8, mean_density=0.25, num_labels=3
            )
            dataset = generate_dataset(config, seed=seed)
            dataset.name = name
            return dataset

        monkeypatch.setattr(experiments, "make_real_dataset", make_dataset)
        monkeypatch.setitem(ALL_INDEX_CLASSES, "spy", SpyIndex)
        profile = replace(
            _tiny_profile({"naive": {}, "spy": {}}),
            query_sizes=(3,),
            queries_per_size=2,
        )
        real_dataset_experiment(
            profile,
            names=["a", "b"],
            seed=3,
            jobs=1,
            progress=lambda message: events.append(("progress", message)),
        )
        assert events == [
            ("dataset", "a"),
            ("progress", "[1/4] dataset=a method=naive"),
            ("progress", "[2/4] dataset=a method=spy"),
            ("build", "a"),
            ("query", "a"),
            ("query", "a"),
            ("dataset", "b"),
            ("progress", "[3/4] dataset=b method=naive"),
            ("progress", "[4/4] dataset=b method=spy"),
            ("build", "b"),
            ("query", "b"),
            ("query", "b"),
        ]


# ----------------------------------------------------------------------
# sweep-level: the build is a prerequisite, run once per cell
# ----------------------------------------------------------------------


class TestBuildOnce:
    def test_cold_batched_store_sweep_builds_each_index_once(
        self, tmp_path, monkeypatch
    ):
        """jobs=2 + batches + a store, against an empty store: every
        cell is built by exactly one batch and written exactly once —
        the other batch waited for it — and nothing else changes."""
        from repro.indexes.store import IndexStore

        puts = tmp_path / "puts.log"
        original_put = IndexStore.put

        def logged_put(self, artifact):
            address = original_put(self, artifact)
            with open(puts, "a", encoding="utf-8") as log:
                log.write(address + "\n")
            return address

        # Pool workers are forked from this process, patch included.
        monkeypatch.setattr(IndexStore, "put", logged_put)
        clear_index_cache()
        profile = _tiny_profile(MIXED_SPEED_METHODS)
        batched = nodes_sweep(
            profile,
            seed=3,
            jobs=2,
            batch_queries=True,
            index_store_dir=str(tmp_path / "store"),
        )
        assert batched.fresh_builds() == len(batched.cells) == 6
        assert batched.duplicate_builds() == 0
        assert all(
            cell.provenance["fresh_batches"] == 1
            for cell in batched.cells.values()
        )
        written = puts.read_text(encoding="utf-8").split()
        assert len(written) == len(set(written)) == len(batched.cells)
        sequential = nodes_sweep(profile, seed=3, jobs=1)
        assert sweep_digest(batched) == sweep_digest(sequential)
        clear_index_cache()

    def test_timed_out_build_costs_one_attempt_per_cell(
        self, tmp_path, monkeypatch
    ):
        """A build that overruns its budget is attempted once: batch 0
        reports the timeout and the parent hands it to the cell's other
        batch without dispatching it."""
        from repro.indexes import ALL_INDEX_CLASSES

        from testkit import StallingIndex

        monkeypatch.setitem(ALL_INDEX_CLASSES, "stalling", StallingIndex)
        clear_index_cache()

        def sweep(marker, **engine):
            profile = _tiny_profile(
                {"naive": {}, "stalling": {"marker": str(marker)}}
            )
            return nodes_sweep(profile, seed=3, **engine)

        sequential = sweep(tmp_path / "sequential.log", jobs=1)
        batched = sweep(
            tmp_path / "batched.log", jobs=2, shared_mem=True, batch_queries=True
        )
        assert {
            key: cell.build_status for key, cell in batched.cells.items()
        } == {
            (8, "naive"): STATUS_OK,
            (8, "stalling"): STATUS_TIMEOUT,
            (12, "naive"): STATUS_OK,
            (12, "stalling"): STATUS_TIMEOUT,
        }
        assert sweep_digest(batched) == sweep_digest(sequential)
        attempts = (tmp_path / "batched.log").read_text(encoding="utf-8")
        assert attempts.count("build") == 2  # one per stalling cell
        clear_index_cache()
