"""The content-addressed index artifact store.

Covers the PR's byte-identity contract end to end: every method's
store round-trip reproduces bit-identical ``QueryResult``s (candidates,
answers, FP ratio) against a fresh build; corrupt / stale / mismatched
artifacts are rejected loudly; the memory tier is a bounded LRU; the
disk tier survives process "restarts" (fresh store instances); and the
sweep layer reuses builds across cells of different query workloads
with canonical byte-identity cold vs warm.
"""

import pickle

import pytest

from repro.utils.budget import Budget, BudgetExceeded

from repro.core.runner import evaluate_method, make_method
from repro.core.serialization import canonical_cell
from repro.generators.graphgen import GraphGenConfig, generate_dataset
from repro.generators.queries import generate_queries
from repro.graphs.dataset import dataset_fingerprint
from repro.indexes import ALL_INDEX_CLASSES
from repro.indexes.store import (
    IndexStore,
    IndexStoreError,
    artifact_address,
    artifact_from_index,
    clear_stores,
    fetch_or_build,
    materialize_artifact,
    read_artifact,
    read_artifact_header,
    shared_store,
    write_artifact,
)

METHOD_CONFIGS = {
    "naive": {},
    "ggsx": {"max_path_edges": 3},
    "grapes": {"max_path_edges": 3, "workers": 2},
    "ctindex": {"fingerprint_bits": 256, "feature_edges": 3},
    "gcode": {},
    "gindex": {"max_fragment_edges": 3, "support_ratio": 0.25},
    "tree+delta": {"max_feature_edges": 3, "support_ratio": 0.25},
}


@pytest.fixture(autouse=True)
def _fresh_stores():
    clear_stores()
    yield
    clear_stores()


@pytest.fixture(scope="module")
def dataset():
    config = GraphGenConfig(
        num_graphs=15, mean_nodes=10, mean_density=0.25, num_labels=3
    )
    return generate_dataset(config, seed=55)


@pytest.fixture(scope="module")
def digest(dataset):
    return dataset_fingerprint(dataset)


@pytest.fixture(scope="module")
def queries(dataset):
    out = []
    for size in (3, 4):
        out.extend(generate_queries(dataset, 3, size, seed=size))
    return out


def build(name, dataset):
    index = make_method(name, METHOD_CONFIGS[name])
    index.build(dataset)
    return index


# ----------------------------------------------------------------------
# fetch_or_build: the one build-or-fetch every caller goes through
# ----------------------------------------------------------------------


def _store_of(kind, tmp_path):
    return {
        "none": None,
        "memory": IndexStore(),
        "disk": IndexStore(tmp_path / "store"),
    }[kind]


REUSE = pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "no-reuse"])
STORE_KINDS = pytest.mark.parametrize("kind", ["none", "memory", "disk"])
ROSTER = pytest.mark.parametrize("name", list(ALL_INDEX_CLASSES))
#: The index-free baseline has no build loop to poll a budget from.
BUDGET_POLLING = pytest.mark.parametrize(
    "name", [name for name in ALL_INDEX_CLASSES if name != "naive"]
)


class TestFetchOrBuild:
    def unbuilt(self, name):
        return make_method(name, METHOD_CONFIGS.get(name, {}))

    @REUSE
    @STORE_KINDS
    @ROSTER
    def test_miss_writes_through_once_and_a_hit_reports_the_original(
        self, name, kind, reuse, dataset, digest, queries, tmp_path
    ):
        store = _store_of(kind, tmp_path)
        built, artifact, reused = fetch_or_build(
            self.unbuilt(name), dataset, store, digest, reuse
        )
        assert not reused and built.build_report.seconds >= 0.0
        # No store: nothing is exported at all.
        assert (artifact is None) == (store is None)
        if store is None:
            return
        assert store.stats.puts == 1
        assert artifact.address == artifact_address(
            name, built.index_params(), digest
        )
        again, fetched, reused = fetch_or_build(
            self.unbuilt(name), dataset, store, digest, reuse
        )
        assert reused == reuse
        if not reuse:
            # A forced rebuild is a fresh build, written through again.
            assert again is not None and store.stats.puts == 2
            return
        # A hit builds and imports nothing; the artifact carries the
        # first build's measurements, not re-measured ones.
        assert again is None and store.stats.puts == 1
        assert fetched.provenance.build_seconds == built.build_report.seconds
        assert fetched.provenance.size_bytes == built.build_report.size_bytes
        served = materialize_artifact(fetched, dataset)
        assert [served.query(q).answers for q in queries] == [
            built.query(q).answers for q in queries
        ]

    def test_an_index_without_the_payload_contract_still_builds(
        self, dataset, digest
    ):
        class Opaque(ALL_INDEX_CLASSES["naive"]):
            def _export_payload(self):
                raise NotImplementedError("no payload split")

        store = IndexStore()
        index, artifact, reused = fetch_or_build(Opaque(), dataset, store, digest)
        assert index.build_report is not None and artifact is None and not reused
        assert store.stats.puts == 0

    @REUSE
    @STORE_KINDS
    @BUDGET_POLLING
    def test_zero_budget_raises_and_stores_nothing(
        self, name, kind, reuse, dataset, digest, tmp_path
    ):
        store = _store_of(kind, tmp_path)
        with pytest.raises(BudgetExceeded):
            fetch_or_build(
                self.unbuilt(name), dataset, store, digest, reuse, Budget(0.0)
            )
        if store is not None:
            assert store.stats.puts == 0 and len(store) == 0
            assert store.entries() == []

    @REUSE
    @ROSTER
    def test_truncated_artifact_is_a_miss_the_rebuild_overwrites(
        self, name, reuse, dataset, digest, tmp_path
    ):
        store = _store_of("disk", tmp_path)
        _, artifact, _ = fetch_or_build(
            self.unbuilt(name), dataset, store, digest, reuse
        )
        path = store.path_of(artifact.address)
        path.write_bytes(path.read_bytes()[:20])
        restarted = IndexStore(store.root)  # a later process: cold memory tier
        rebuilt, _, reused = fetch_or_build(
            self.unbuilt(name), dataset, restarted, digest, reuse
        )
        assert not reused and rebuilt is not None
        assert read_artifact_header(path).address == artifact.address
        _, _, reused = fetch_or_build(
            self.unbuilt(name), dataset, IndexStore(store.root), digest
        )
        assert reused


# ----------------------------------------------------------------------
# round trips: fresh-built vs store-loaded, bit for bit
# ----------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("name", list(METHOD_CONFIGS))
    def test_store_loaded_results_bit_identical(
        self, name, dataset, digest, queries, tmp_path
    ):
        """The artifact is snapshotted right after the build, so the
        materialized index replays the exact post-build state — even
        Tree+Δ, whose query-time feature adoption must restart from
        the same point."""
        store = IndexStore(tmp_path)
        built = build(name, dataset)
        store.put(artifact_from_index(built, digest))
        expected = [built.query(q) for q in queries]

        reloaded_store = IndexStore(tmp_path)  # cold process: disk only
        artifact = reloaded_store.get(
            name, make_method(name, METHOD_CONFIGS[name]).index_params(), digest
        )
        assert artifact is not None
        loaded = materialize_artifact(artifact, dataset)
        got = [loaded.query(q) for q in queries]
        for fresh, warm in zip(expected, got):
            assert warm.candidates == fresh.candidates
            assert warm.answers == fresh.answers
            assert warm.false_positive_ratio == fresh.false_positive_ratio

    @pytest.mark.parametrize("name", list(METHOD_CONFIGS))
    def test_index_params_reconstruct_the_method(self, name, dataset):
        """``index_params()`` is a complete constructor echo: feeding it
        back to ``make_method`` yields an instance with equal params."""
        index = make_method(name, METHOD_CONFIGS[name])
        twin = make_method(name, index.index_params())
        assert twin.index_params() == index.index_params()

    def test_default_and_explicit_params_share_an_address(self, digest):
        """Content addressing ignores how the params were spelled."""
        implicit = make_method("ggsx", None)  # default max_path_edges=4
        explicit = make_method("ggsx", {"max_path_edges": 4})
        assert artifact_address(
            "ggsx", implicit.index_params(), digest
        ) == artifact_address("ggsx", explicit.index_params(), digest)

    def test_different_params_different_address(self, digest):
        a = make_method("ggsx", {"max_path_edges": 3}).index_params()
        b = make_method("ggsx", {"max_path_edges": 4}).index_params()
        assert artifact_address("ggsx", a, digest) != artifact_address(
            "ggsx", b, digest
        )

    def test_materialized_instances_do_not_share_mutable_state(
        self, dataset, digest, queries
    ):
        """Tree+Δ adopts features at query time; two instances
        materialized from one in-memory payload must not contaminate
        each other (or the stored payload)."""
        store = IndexStore()
        built = build("tree+delta", dataset)
        store.put(artifact_from_index(built, digest))
        params = built.index_params()
        first = materialize_artifact(store.get("tree+delta", params, digest), dataset)
        for q in queries:
            first.query(q)  # may adopt Δ features into `first`
        second = materialize_artifact(store.get("tree+delta", params, digest), dataset)
        assert second._delta_ids == {}  # pristine post-build state

    def test_export_requires_a_completed_build(self, dataset):
        index = make_method("ggsx", METHOD_CONFIGS["ggsx"])
        with pytest.raises(RuntimeError, match="no completed build"):
            index.export_payload()


# ----------------------------------------------------------------------
# rejection paths: corrupt, stale, mismatched
# ----------------------------------------------------------------------


class TestProvenanceClock:
    """``created_at`` is injectable provenance, never identity (the PR 6
    determinism fix: an inline ``time.time()`` made cold and warm
    snapshots of the same build compare unequal)."""

    def test_injected_clock_is_respected(self, dataset, digest):
        index = build("naive", dataset)
        artifact = artifact_from_index(index, digest, clock=lambda: 123.5)
        assert artifact.provenance.created_at == 123.5

    def test_explicit_created_at_wins_over_clock(self, dataset, digest):
        index = build("naive", dataset)
        artifact = artifact_from_index(
            index, digest, created_at=7.0, clock=lambda: 123.5
        )
        assert artifact.provenance.created_at == 7.0

    def test_created_at_excluded_from_equality(self, dataset, digest):
        index = build("naive", dataset)
        cold = artifact_from_index(index, digest, clock=lambda: 1.0)
        warm = artifact_from_index(index, digest, clock=lambda: 2.0)
        assert cold.provenance.created_at != warm.provenance.created_at
        assert cold.provenance == warm.provenance
        assert cold.header == warm.header
        assert cold.address == warm.address


class TestRejection:
    def _stored(self, dataset, digest, tmp_path):
        store = IndexStore(tmp_path)
        index = build("ggsx", dataset)
        address = store.put(artifact_from_index(index, digest))
        return store, index, store.path_of(address)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.idx"
        path.write_bytes(b"this is not an artifact")
        with pytest.raises(IndexStoreError, match="not an index artifact"):
            read_artifact(path)

    def test_truncated_payload_rejected(self, dataset, digest, tmp_path):
        _, _, path = self._stored(dataset, digest, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IndexStoreError, match="corrupt artifact payload"):
            read_artifact(path)

    def test_stale_schema_rejected(self, dataset, digest, tmp_path):
        _, index, path = self._stored(dataset, digest, tmp_path)
        with open(path, "wb") as handle:
            pickle.dump("repro-index-artifact-v0", handle)
            pickle.dump(None, handle)
        with pytest.raises(IndexStoreError, match="stale or foreign"):
            read_artifact_header(path)

    def test_mismatched_dataset_digest_rejected(self, dataset, digest, tmp_path):
        _, _, path = self._stored(dataset, digest, tmp_path)
        with pytest.raises(IndexStoreError, match="different dataset"):
            read_artifact(path, expect_digest=digest ^ 1)

    def test_corrupt_disk_artifact_is_a_get_miss_not_a_crash(
        self, dataset, digest, tmp_path
    ):
        store, index, path = self._stored(dataset, digest, tmp_path)
        path.write_bytes(b"bitrot")
        cold = IndexStore(tmp_path)
        assert cold.get("ggsx", index.index_params(), digest) is None
        assert cold.stats.misses == 1

    def test_renamed_artifact_is_not_served_under_the_wrong_address(
        self, dataset, digest, tmp_path
    ):
        """A copied/renamed file whose header describes another build
        must be a miss, not a silently wrong index."""
        store, index, path = self._stored(dataset, digest, tmp_path)
        other_params = make_method("ggsx", {"max_path_edges": 4}).index_params()
        forged = tmp_path / (
            artifact_address("ggsx", other_params, digest) + ".idx"
        )
        forged.write_bytes(path.read_bytes())
        cold = IndexStore(tmp_path)
        assert cold.get("ggsx", other_params, digest) is None
        # ...and gc treats the misnamed file as garbage.
        assert cold.gc()["removed_corrupt"] == 1

    def test_materialize_refuses_wrong_sized_dataset(self, dataset, digest):
        index = build("ggsx", dataset)
        artifact = artifact_from_index(index, digest)
        smaller = dataset.subset(range(len(dataset) - 1))
        with pytest.raises(IndexStoreError, match="built over"):
            materialize_artifact(artifact, smaller)


# ----------------------------------------------------------------------
# tiers: memory LRU over disk
# ----------------------------------------------------------------------


class TestTiers:
    def test_memory_lru_evicts_oldest(self, dataset, digest):
        store = IndexStore(memory_items=2)
        addresses = []
        for edges in (1, 2, 3):
            index = make_method("ggsx", {"max_path_edges": edges})
            index.build(dataset)
            addresses.append(store.put(artifact_from_index(index, digest)))
        assert len(store) == 2
        # Oldest (max_path_edges=1) was evicted; memory-only store -> miss.
        params = make_method("ggsx", {"max_path_edges": 1}).index_params()
        assert store.get("ggsx", params, digest) is None

    def test_disk_hit_promotes_into_memory(self, dataset, digest, tmp_path):
        warm = IndexStore(tmp_path)
        index = build("ggsx", dataset)
        warm.put(artifact_from_index(index, digest))
        cold = IndexStore(tmp_path)
        assert len(cold) == 0
        assert cold.get("ggsx", index.index_params(), digest) is not None
        assert cold.stats.disk_hits == 1
        assert len(cold) == 1
        assert cold.get("ggsx", index.index_params(), digest) is not None
        assert cold.stats.memory_hits == 1

    def test_memory_only_store_without_root(self, dataset, digest):
        store = IndexStore()
        index = build("naive", dataset)
        store.put(artifact_from_index(index, digest))
        assert store.get("naive", {}, digest) is not None
        with pytest.raises(IndexStoreError, match="no on-disk tier"):
            store.path_of("whatever")

    def test_shared_store_is_per_root_singleton(self, tmp_path):
        assert shared_store(None) is shared_store(None)
        assert shared_store(tmp_path) is shared_store(str(tmp_path))
        assert shared_store(tmp_path) is not shared_store(None)

    def test_atomic_write_leaves_no_temp_files(self, dataset, digest, tmp_path):
        store = IndexStore(tmp_path)
        index = build("ggsx", dataset)
        store.put(artifact_from_index(index, digest))
        leftovers = [p for p in tmp_path.iterdir() if not p.name.endswith(".idx")]
        assert leftovers == []


# ----------------------------------------------------------------------
# maintenance: ls / rm / gc primitives
# ----------------------------------------------------------------------


class TestMaintenance:
    def _populate(self, dataset, digest, tmp_path, edges=(1, 2, 3)):
        store = IndexStore(tmp_path)
        addresses = []
        for n in edges:
            index = make_method("ggsx", {"max_path_edges": n})
            index.build(dataset)
            addresses.append(store.put(artifact_from_index(index, digest)))
        return store, addresses

    def test_entries_reports_headers_and_corruption(
        self, dataset, digest, tmp_path
    ):
        store, addresses = self._populate(dataset, digest, tmp_path)
        (tmp_path / "broken.idx").write_bytes(b"junk")
        entries = store.entries()
        assert len(entries) == 4
        unreadable = [path for path, header in entries if header is None]
        assert [p.name for p in unreadable] == ["broken.idx"]

    def test_remove_deletes_both_tiers(self, dataset, digest, tmp_path):
        store, addresses = self._populate(dataset, digest, tmp_path, edges=(2,))
        assert store.remove(addresses[0]) is True
        assert store.remove(addresses[0]) is False
        assert len(store) == 0
        assert store.entries() == []

    def test_gc_removes_corrupt_and_misnamed(self, dataset, digest, tmp_path):
        store, addresses = self._populate(dataset, digest, tmp_path, edges=(2, 3))
        (tmp_path / "broken.idx").write_bytes(b"junk")
        # A valid artifact at the wrong address must go too (its name
        # no longer proves its content).
        victim = store.path_of(addresses[0])
        victim.rename(tmp_path / "ggsx-0000000000000000-0000000000000000.idx")
        report = store.gc()
        assert report["removed_corrupt"] == 2
        assert report["kept"] == 1

    def test_gc_max_bytes_keeps_newest(self, dataset, digest, tmp_path):
        import os
        import time

        store, addresses = self._populate(dataset, digest, tmp_path)
        paths = [store.path_of(a) for a in addresses]
        now = time.time()
        for age, path in enumerate(reversed(paths)):
            os.utime(path, (now - age * 100, now - age * 100))
        keep_bytes = paths[-1].stat().st_size  # newest file only
        report = store.gc(max_bytes=keep_bytes)
        assert report["removed_evicted"] == 2
        assert report["kept"] == 1
        assert paths[-1].exists() and not paths[0].exists()

    def test_gc_evicts_strictly_oldest_first(self, dataset, digest, tmp_path):
        """Eviction is oldest-modified-first even when skipping the big
        newest file could have 'fit more': the hot artifact survives."""
        import os
        import time

        store, addresses = self._populate(dataset, digest, tmp_path, edges=(2, 4))
        small_old, big_new = (store.path_of(a) for a in addresses)
        assert big_new.stat().st_size > small_old.stat().st_size
        now = time.time()
        os.utime(small_old, (now - 500, now - 500))
        os.utime(big_new, (now, now))
        report = store.gc(max_bytes=big_new.stat().st_size)
        assert report["removed_evicted"] == 1
        assert big_new.exists() and not small_old.exists()


# ----------------------------------------------------------------------
# the cell layer: reuse across workloads, provenance tagging
# ----------------------------------------------------------------------


class TestCellReuse:
    def test_cells_with_different_workloads_share_one_build(
        self, dataset, queries, tmp_path
    ):
        """The store key is workload-free, so cells that query the same
        (method, params, dataset) with different query sizes reuse one
        build — the acceptance property for within-sweep reuse."""
        small = {3: [q for q in queries if q.size == 3]}
        large = {4: [q for q in queries if q.size == 4]}
        first = evaluate_method(
            "ggsx",
            dataset,
            small,
            method_config=METHOD_CONFIGS["ggsx"],
            index_store_dir=str(tmp_path),
        )
        second = evaluate_method(
            "ggsx",
            dataset,
            large,
            method_config=METHOD_CONFIGS["ggsx"],
            index_store_dir=str(tmp_path),
        )
        assert first.provenance["reused"] is False
        assert second.provenance["reused"] is True
        assert second.provenance["artifact"] == first.provenance["artifact"]
        # Provenance timings, not fake ones: the reused cell reports the
        # original build's measured seconds and exact size.
        assert second.build_seconds == first.build_seconds
        assert second.index_bytes == first.index_bytes
        assert second.build_details == first.build_details

    def test_reuse_off_rebuilds_but_still_stores(self, dataset, queries, tmp_path):
        workloads = {3: queries[:2]}
        config = METHOD_CONFIGS["ggsx"]
        cold = evaluate_method(
            "ggsx", dataset, workloads, method_config=config,
            index_store_dir=str(tmp_path),
        )
        rebuilt = evaluate_method(
            "ggsx", dataset, workloads, method_config=config,
            index_store_dir=str(tmp_path), reuse_indexes=False,
        )
        assert rebuilt.provenance["reused"] is False
        assert canonical_cell(rebuilt) == canonical_cell(cold)

    def test_failed_builds_are_not_stored(self, dataset, queries, tmp_path):
        failed = evaluate_method(
            "ggsx",
            dataset,
            {3: queries[:2]},
            method_config=METHOD_CONFIGS["ggsx"],
            build_budget_seconds=0.0,
            index_store_dir=str(tmp_path),
        )
        assert failed.build_status == "timeout"
        assert failed.provenance == {}
        assert IndexStore(tmp_path).entries() == []
        # And the next (unbudgeted) run must therefore build fresh.
        fresh = evaluate_method(
            "ggsx",
            dataset,
            {3: queries[:2]},
            method_config=METHOD_CONFIGS["ggsx"],
            index_store_dir=str(tmp_path),
        )
        assert fresh.build_status == "ok"
        assert fresh.provenance["reused"] is False

    def test_provenance_never_reaches_serialization(self, dataset, queries, tmp_path):
        from repro.core.serialization import cell_to_dict

        cell = evaluate_method(
            "ggsx",
            dataset,
            {3: queries[:2]},
            method_config=METHOD_CONFIGS["ggsx"],
            index_store_dir=str(tmp_path),
        )
        assert cell.provenance  # tagged...
        assert "provenance" not in cell_to_dict(cell)  # ...but never saved
        assert canonical_cell(cell).provenance == {}


# ----------------------------------------------------------------------
# lineage: incremental updates as first-class artifacts (PR 8)
# ----------------------------------------------------------------------


class TestLineage:
    def updated_pair(self, dataset):
        """Build, update through a delta, return (artifact, new_digest,
        parent_address, delta) for the updated index."""
        from repro.graphs.dataset import (
            DatasetDelta,
            apply_delta,
            delta_fingerprint,
        )
        from tests.testkit import triangle

        index = build("grapes", dataset)
        parent = artifact_from_index(index, dataset_fingerprint(dataset))
        delta = DatasetDelta(added=(triangle(),), removed=(0,))
        after = apply_delta(dataset, delta)
        index.update(delta)
        artifact = artifact_from_index(
            index,
            dataset_fingerprint(after),
            parent=parent.address,
            delta_digest=delta_fingerprint(delta),
        )
        return parent, artifact, after, delta

    def test_lineage_address_pure_in_parent_and_delta(self, dataset):
        from repro.graphs.dataset import delta_fingerprint
        from repro.indexes.store import lineage_address

        parent, artifact, _, delta = self.updated_pair(dataset)
        ddigest = delta_fingerprint(delta)
        assert artifact.address == lineage_address(parent.address, ddigest)
        # Pure: recomputing from the same inputs gives the same address;
        # perturbing either input moves it.
        assert lineage_address(parent.address, ddigest) == artifact.address
        assert lineage_address(parent.address, ddigest + 1) != artifact.address
        assert (
            lineage_address(parent.address + "x", ddigest) != artifact.address
        )
        assert artifact.address.startswith("grapes-upd-")

    def test_strip_lineage_restores_the_content_address(self, dataset):
        from repro.indexes.store import strip_lineage

        parent, artifact, after, _ = self.updated_pair(dataset)
        stripped = strip_lineage(artifact)
        assert stripped.header.parent == ""
        assert stripped.header.delta_digest == 0
        # update == rebuild, so the stripped address must equal the
        # address a cold build over the post-delta dataset would get.
        cold = build("grapes", after)
        cold_artifact = artifact_from_index(
            cold, dataset_fingerprint(after)
        )
        assert stripped.address == cold_artifact.address
        assert stripped.payload == cold_artifact.payload

    def test_lineage_round_trips_through_disk(self, dataset, tmp_path):
        parent, artifact, after, _ = self.updated_pair(dataset)
        store = IndexStore(tmp_path / "store")
        store.put(parent)
        store.put(artifact)
        # Lineage artifacts live at their lineage address on disk; the
        # header round-trips parent and delta digest intact.
        loaded, _ = read_artifact(
            store.path_of(artifact.address),
            expect_digest=dataset_fingerprint(after),
        )
        assert loaded.address == artifact.address
        assert loaded.header.parent == parent.address
        assert loaded.header.delta_digest == artifact.header.delta_digest
        index = materialize_artifact(loaded, after)
        assert index.export_payload() == artifact.payload

    def test_gc_evicts_lineage_interiors_before_heads(
        self, dataset, tmp_path
    ):
        """Under a size cap, an old chain interior (something else's
        parent) goes before the head that depends on nothing."""
        import os
        import time

        parent, artifact, _, _ = self.updated_pair(dataset)
        store = IndexStore(tmp_path / "store")
        store.put(parent)
        store.put(artifact)
        parent_path = store.path_of(parent.address)
        head_path = store.path_of(artifact.address)
        now = time.time()
        # The head is *older* than its parent: mtime alone would evict
        # the head first, so survival proves the lineage ordering.
        os.utime(head_path, (now - 500, now - 500))
        os.utime(parent_path, (now, now))
        report = store.gc(max_bytes=head_path.stat().st_size)
        assert report["removed_evicted"] == 1
        assert head_path.exists() and not parent_path.exists()

    def test_corrupt_parent_leaves_update_path_cold_not_broken(
        self, dataset, tmp_path
    ):
        """A missing/corrupt parent is a store miss: the serve tier's
        update still works (it rebuilds), and the updated artifact is
        still retrievable at its own address."""
        parent, artifact, after, _ = self.updated_pair(dataset)
        store = IndexStore(tmp_path / "store")
        store.put(parent)
        store.put(artifact)
        store.path_of(parent.address).write_bytes(b"garbage")
        # A fresh store (cold memory tier) must treat the corrupt
        # parent as a plain miss.
        store = IndexStore(tmp_path / "store")
        assert (
            store.get(
                "grapes",
                dict(parent.header.index_params),
                dataset_fingerprint(dataset),
            )
            is None
        )
        loaded, _ = read_artifact(
            store.path_of(artifact.address),
            expect_digest=dataset_fingerprint(after),
        )
        index = materialize_artifact(loaded, after)
        assert index.export_payload() == artifact.payload
