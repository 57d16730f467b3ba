"""Shared-memory dataset arena: packing, attachment, leaks, equivalence.

Three properties are held here:

1. **Round trip** — any labeled graph dataset survives ``pack → shared
   memory → attach → unpack`` with full structural equality (a
   hypothesis property over random graphs), and the reconstruction is
   *pickle-equivalent*: adjacency sets iterate in the same order as a
   pickle round trip, which is what the engine's byte-identity contract
   rests on.
2. **No leaks** — every segment a dispatch creates is unlinked by the
   time the sweep returns: on normal completion, on worker-side
   programming errors, and on hard worker crashes (``BrokenProcessPool``).
3. **Mode equivalence** — for four index methods spanning trie,
   fingerprint, and spectral designs, a sweep canonicalizes
   byte-identically whether it runs sequentially, through the
   shared-memory arena, or with per-query batching on top.
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from multiprocessing import shared_memory

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arena import (
    ArenaHandle,
    DatasetArena,
    attach_csr_dataset,
    cached_dataset,
    clear_worker_caches,
    live_arenas,
)
from repro.core.experiments import nodes_sweep
from repro.core.parallel import ParallelRunner
from repro.core.presets import CI_PROFILE
from repro.core.runner import STATUS_OK, CellTask, run_cell
from repro.core.serialization import canonical_cell, canonical_json, sweep_digest
from repro.generators.graphgen import GraphGenConfig, generate_dataset
from repro.generators.queries import generate_queries
from repro.graphs.dataset import (
    GraphDataset,
    PackedDatasetReader,
    dataset_fingerprint,
    pack_dataset,
    unpack_dataset,
)
from repro.graphs.graph import Graph
from repro.indexes import ALL_INDEX_CLASSES

from testkit import KillerIndex

#: Four methods spanning trie, fingerprint, and spectral designs plus
#: the exhaustive baseline — the equivalence roster the issue requires.
METHOD_CONFIGS = {
    "naive": None,
    "ggsx": {"max_path_edges": 2},
    "ctindex": {"fingerprint_bits": 256, "feature_edges": 3},
    "gcode": {"path_depth": 2, "top_eigenvalues": 2, "counter_buckets": 16},
}


@pytest.fixture(scope="module")
def dataset():
    config = GraphGenConfig(
        num_graphs=20, mean_nodes=10, mean_density=0.2, num_labels=4
    )
    dataset = generate_dataset(config, seed=11)
    dataset.name = "arena-fixture"
    return dataset


@pytest.fixture(scope="module")
def workloads(dataset):
    return {
        3: generate_queries(dataset, 4, 3, seed=3),
        5: generate_queries(dataset, 3, 5, seed=5),
    }


# ----------------------------------------------------------------------
# flat-array pack / unpack
# ----------------------------------------------------------------------


class TestPackRoundTrip:
    def test_roundtrip_preserves_everything(self, dataset):
        back = unpack_dataset(pack_dataset(dataset))
        assert back.name == dataset.name
        assert len(back) == len(dataset)
        for original, rebuilt in zip(dataset, back):
            assert original == rebuilt
            assert original.graph_id == rebuilt.graph_id

    def test_roundtrip_is_pickle_equivalent(self, dataset):
        """Adjacency sets iterate identically to a pickle round trip —
        the property the byte-identity contract stands on."""
        pickled = pickle.loads(pickle.dumps(dataset))
        packed = unpack_dataset(pack_dataset(dataset))
        for a, b in zip(pickled, packed):
            for v in a.vertices():
                assert list(a.neighbors(v)) == list(b.neighbors(v))

    def test_copy_is_pickle_equivalent(self, dataset):
        """``Graph.copy()`` must honour the same parity contract as pack
        and pickle: adjacency sets rebuilt fresh, inserting neighbors in
        the source's iteration order.  The old implementation rebuilt
        from ``edges()`` order, so a copied dataset packed to different
        bytes than the original's pickle round trip."""
        pickled = pickle.loads(pickle.dumps(dataset))
        copied = GraphDataset([g.copy() for g in dataset], name=dataset.name)
        for a, b in zip(pickled, copied):
            for v in a.vertices():
                assert list(a.neighbors(v)) == list(b.neighbors(v))
        assert pack_dataset(copied) == pack_dataset(pickled)
        assert dataset_fingerprint(copied) == dataset_fingerprint(dataset)

    def test_pack_is_deterministic(self, dataset):
        assert pack_dataset(dataset) == pack_dataset(dataset)
        assert dataset_fingerprint(dataset) == dataset_fingerprint(dataset)

    def test_different_content_different_fingerprint(self, dataset):
        other = dataset.subset(range(len(dataset) - 1))
        assert dataset_fingerprint(other) != dataset_fingerprint(dataset)

    def test_fingerprint_canonical_across_representations(self, dataset):
        """The content digest must survive every way a dataset travels:
        pickling to a worker, the shared-memory packed form, and a
        ``.gfd`` file round trip.  Adjacency-*set* iteration order is
        not stable across pickling, so a digest of the packed bytes
        would give one dataset a different index-store address in every
        re-serializing process — the regression this test pins."""
        reference = dataset_fingerprint(dataset)
        assert dataset_fingerprint(pickle.loads(pickle.dumps(dataset))) == reference
        assert dataset_fingerprint(unpack_dataset(pack_dataset(dataset))) == reference

    def test_arena_handle_fingerprint_is_the_dataset_fingerprint(self, dataset):
        arena = DatasetArena.create(dataset)
        try:
            assert arena.handle.fingerprint == dataset_fingerprint(dataset)
        finally:
            arena.close()

    def test_empty_dataset_and_empty_graph(self):
        empty = GraphDataset(name="empty")
        assert len(unpack_dataset(pack_dataset(empty))) == 0
        quirky = GraphDataset([Graph([]), Graph(["A"])], name="quirky")
        back = unpack_dataset(pack_dataset(quirky))
        assert [g.order for g in back] == [0, 1]

    def test_non_string_labels_survive(self):
        mixed = GraphDataset(
            [Graph([1, ("t", 2), "a"], [(0, 1), (1, 2)])], name="mixed"
        )
        (graph,) = unpack_dataset(pack_dataset(mixed))
        assert graph.labels == (1, ("t", 2), "a")

    def test_reader_exposes_totals_zero_copy(self, dataset):
        payload = pack_dataset(dataset)
        with PackedDatasetReader(payload) as reader:
            assert reader.num_graphs == len(dataset)
            assert reader.total_vertices == dataset.total_vertices()
            assert reader.total_edges == dataset.total_edges()
            assert reader.dataset_name == dataset.name
            assert reader.graph(0) == dataset[0]
            with pytest.raises(IndexError):
                reader.graph(len(dataset))

    def test_reader_rejects_garbage(self):
        with pytest.raises(ValueError, match="magic"):
            PackedDatasetReader(b"\x00" * 64)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_datasets_survive_shm_roundtrip(self, data):
        """pack → SharedMemory → attach → unpack preserves graph equality."""
        graphs = []
        num_graphs = data.draw(st.integers(min_value=0, max_value=6))
        for _ in range(num_graphs):
            n = data.draw(st.integers(min_value=0, max_value=7))
            labels = [
                data.draw(st.sampled_from(["A", "B", 3, ("x", 1)]))
                for _ in range(n)
            ]
            possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = data.draw(st.lists(st.sampled_from(possible), unique=True))\
                if possible else []
            graphs.append(Graph(labels, edges))
        dataset = GraphDataset(graphs, name="hyp")
        arena = DatasetArena.create(dataset)
        try:
            back = attach_csr_dataset(arena.handle)
        finally:
            arena.close()
        assert len(back) == len(dataset) and back.name == "hyp"
        for original, rebuilt in zip(dataset, back):
            assert original == rebuilt


# ----------------------------------------------------------------------
# arena lifecycle
# ----------------------------------------------------------------------


def _segment_exists(name: str) -> bool:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


class TestArenaLifecycle:
    def test_create_attach_close(self, dataset):
        arena = DatasetArena.create(dataset)
        handle = arena.handle
        assert handle.num_graphs == len(dataset)
        assert handle.total_vertices == dataset.total_vertices()
        assert handle.total_edges == dataset.total_edges()
        assert handle.fingerprint == dataset_fingerprint(dataset)
        assert handle.shm_name in live_arenas()
        attached = attach_csr_dataset(handle)
        assert list(attached) == list(dataset)
        arena.close()
        assert handle.shm_name not in live_arenas()
        assert not _segment_exists(handle.shm_name)
        arena.close()  # idempotent

    def test_attach_after_close_raises(self, dataset):
        arena = DatasetArena.create(dataset)
        arena.close()
        with pytest.raises(FileNotFoundError):
            attach_csr_dataset(arena.handle)

    def test_cached_dataset_attaches_once(self, dataset):
        clear_worker_caches()
        arena = DatasetArena.create(dataset)
        try:
            first = cached_dataset(arena.handle)
            second = cached_dataset(arena.handle)
            assert first is second
        finally:
            arena.close()
            clear_worker_caches()
        # Cache survives the unlink: the materialized copy is local.
        assert list(first) == list(dataset)

    def test_context_manager_closes(self, dataset):
        with DatasetArena.create(dataset) as arena:
            name = arena.handle.shm_name
            assert _segment_exists(name)
        assert not _segment_exists(name)


# ----------------------------------------------------------------------
# leak tests: dispatch always unlinks, even on worker crashes
# ----------------------------------------------------------------------


@pytest.fixture()
def recorded_arenas(monkeypatch):
    """Record every arena a dispatch creates, without changing behavior."""
    created: list[ArenaHandle] = []
    original = DatasetArena.create.__func__

    def recording_create(cls, dataset):
        arena = original(cls, dataset)
        created.append(arena.handle)
        return arena

    monkeypatch.setattr(
        DatasetArena, "create", classmethod(recording_create)
    )
    return created


def _tiny_profile(methods=None):
    return replace(
        CI_PROFILE,
        nodes_values=(8, 12),
        default_num_graphs=10,
        default_nodes=10,
        default_density=0.2,
        default_labels=3,
        query_sizes=(3, 5),
        queries_per_size=3,
        method_configs=dict(
            methods
            if methods is not None
            # All four equivalence methods, naive included (empty config).
            else {k: (v or {}) for k, v in METHOD_CONFIGS.items()}
        ),
    )


class TestLeaks:
    def test_segments_unlinked_after_sweep(self, recorded_arenas):
        nodes_sweep(_tiny_profile(), seed=3, jobs=2, shared_mem=True)
        assert len(recorded_arenas) == 2  # one arena per x value
        for handle in recorded_arenas:
            assert not _segment_exists(handle.shm_name), handle
        assert live_arenas() == ()

    def test_segments_evicted_as_cells_complete(self):
        """ROADMAP arena eviction: a dataset's segment is released once
        the last cell referencing it completes, not at dispatch end.

        With jobs=1 the engine path executes in submission order, so by
        the first completion of the second x value the first x value's
        arena must already be gone — the live count can never reach the
        number of x values again after the first arena retires."""
        observed: list[int] = []
        nodes_sweep(
            _tiny_profile(),
            seed=3,
            jobs=1,
            shared_mem=True,
            progress=lambda _msg: observed.append(len(live_arenas())),
        )
        # 4 methods x 2 x-values: both arenas exist up front, the first
        # retires after its 4th cell, the second after its last.
        assert observed[0] == 2
        assert observed[3:] == [1, 1, 1, 1, 0]

    def test_segments_evicted_in_batched_mode(self):
        observed: list[int] = []
        nodes_sweep(
            _tiny_profile(),
            seed=3,
            jobs=1,
            shared_mem=True,
            batch_queries=True,
            progress=lambda _msg: observed.append(len(live_arenas())),
        )
        assert observed[0] == 2
        assert observed[-1] == 0
        retired = observed.index(1)  # first arena released mid-dispatch...
        assert all(count <= 1 for count in observed[retired:])  # ...for good

    def test_segments_unlinked_after_pool_shutdown(self, dataset, workloads):
        arena = DatasetArena.create(dataset)
        task = CellTask(
            key=("d0", "naive"),
            method="naive",
            dataset=arena.handle,
            workloads=workloads,
        )
        with ParallelRunner(jobs=2) as runner:
            (cell,) = runner.map(run_cell, [task])
        assert cell.build_status == STATUS_OK
        arena.close()
        assert not _segment_exists(arena.handle.shm_name)

    def test_segments_unlinked_on_worker_programming_error(
        self, recorded_arenas
    ):
        with pytest.raises(ValueError, match="unknown method"):
            nodes_sweep(
                _tiny_profile({"no_such_method": {}}),
                seed=3,
                jobs=2,
                shared_mem=True,
            )
        assert recorded_arenas, "sweep should have created arenas"
        for handle in recorded_arenas:
            assert not _segment_exists(handle.shm_name), handle

    def test_segments_unlinked_on_worker_crash(
        self, recorded_arenas, monkeypatch
    ):
        """A worker dying outright must not leak shared memory."""
        from concurrent.futures.process import BrokenProcessPool

        monkeypatch.setitem(ALL_INDEX_CLASSES, "killer", KillerIndex)
        with pytest.raises(BrokenProcessPool):
            nodes_sweep(
                _tiny_profile({"killer": {}}),
                seed=3,
                jobs=2,
                shared_mem=True,
            )
        assert recorded_arenas, "sweep should have created arenas"
        for handle in recorded_arenas:
            assert not _segment_exists(handle.shm_name), handle


# ----------------------------------------------------------------------
# execution-mode equivalence
# ----------------------------------------------------------------------


class TestModeEquivalence:
    def test_shared_cell_matches_plain_cell(self, dataset, workloads):
        for method, config in METHOD_CONFIGS.items():
            task = CellTask(
                key=("d0", method),
                method=method,
                dataset=dataset,
                workloads=workloads,
                method_config=config,
            )
            plain = run_cell(task)
            with DatasetArena.create(dataset) as arena:
                shared = run_cell(replace(task, dataset=arena.handle))
            assert canonical_cell(shared) == canonical_cell(plain), method

    def test_shared_tasks_through_pool_match_sequential(
        self, dataset, workloads
    ):
        tasks = [
            CellTask(
                key=("d0", method),
                method=method,
                dataset=dataset,
                workloads=workloads,
                method_config=config,
            )
            for method, config in METHOD_CONFIGS.items()
        ]
        sequential = ParallelRunner(jobs=1).map(run_cell, tasks)
        with DatasetArena.create(dataset) as arena:
            shared = ParallelRunner(jobs=2).map(
                run_cell, [replace(task, dataset=arena.handle) for task in tasks]
            )
        for task, plain, attached in zip(tasks, sequential, shared):
            assert canonical_cell(attached) == canonical_cell(plain), task.key

    def test_sweep_byte_identical_across_all_modes(self):
        """Sequential vs shared-mem vs batched (and combinations): the
        canonical JSON must agree byte-for-byte for all four methods."""
        profile = _tiny_profile()
        reference = nodes_sweep(profile, seed=3, jobs=1)
        reference_json = canonical_json(reference)
        modes = [
            dict(jobs=2, shared_mem=True),
            dict(jobs=2, batch_queries=True),
            dict(jobs=2, shared_mem=True, batch_queries=True),
            dict(jobs=1, shared_mem=True, batch_queries=True),
        ]
        for mode in modes:
            result = nodes_sweep(profile, seed=3, **mode)
            assert canonical_json(result) == reference_json, mode
            assert list(result.cells) == list(reference.cells), mode
            assert sweep_digest(result) == sweep_digest(reference), mode
