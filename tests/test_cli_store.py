"""CLI end-to-end for the index artifact store.

The acceptance property of the PR, driven through ``repro`` exactly as
CI drives it: a two-invocation sweep (cold then warm against one
``--index-store``) produces byte-identical canonical sweep digests,
with the warm run performing **zero** index builds for covered cells;
``--no-index-reuse`` forces paper-faithful rebuilds; and the
``repro index ls|rm|gc`` group manages the store directory.
"""

from dataclasses import replace

import pytest

import repro.cli.commands as commands
from repro.cli import main
from repro.core.presets import CI_PROFILE
from repro.core.scheduling import clear_index_cache
from repro.core.serialization import canonical_json, load_sweep
from repro.core.sharding import load_manifest, manifest_path_for


@pytest.fixture()
def tiny_profile(monkeypatch):
    profile = replace(
        CI_PROFILE,
        nodes_values=(8, 12),
        graph_count_values=(6, 10),
        default_num_graphs=8,
        default_nodes=10,
        default_density=0.2,
        default_labels=3,
        query_sizes=(3, 4),
        queries_per_size=2,
        build_budget_seconds=10.0,
        query_budget_seconds=10.0,
        real_dataset_scale=0.01,
        real_dataset_names=("PCM",),
        method_configs={"ggsx": {"max_path_edges": 2}, "naive": {}},
    )
    monkeypatch.setattr(commands, "active_profile", lambda: profile)
    clear_index_cache()  # no carry-over between tests: disk tier only
    yield profile
    clear_index_cache()


def run_sweep(tmp_path, tag, *extra):
    json_path = tmp_path / f"{tag}.json"
    code = main(
        [
            "sweep",
            "graphs",
            "--json",
            str(json_path),
            "--index-store",
            str(tmp_path / "store"),
            *extra,
        ]
    )
    assert code == 0
    return json_path


class TestColdWarmSweep:
    def test_warm_run_is_byte_identical_with_zero_builds(
        self, tiny_profile, tmp_path, capsys
    ):
        cold_json = run_sweep(tmp_path, "cold")
        cold_out = capsys.readouterr().out
        assert "4 cell(s) built fresh, 0 reused" in cold_out

        clear_index_cache()  # simulate a fresh invocation: disk tier only
        warm_json = run_sweep(tmp_path, "warm")
        warm_out = capsys.readouterr().out
        assert "0 cell(s) built fresh, 4 reused" in warm_out

        cold = load_sweep(cold_json)
        warm = load_sweep(warm_json)
        assert canonical_json(cold) == canonical_json(warm)

    def test_resumed_cells_are_not_miscounted_as_fresh(
        self, tiny_profile, tmp_path, capsys
    ):
        """A fully resumed run builds nothing and must say so — not
        print 'N cell(s) built fresh' for cells restored whole from the
        manifest."""
        json_path = run_sweep(tmp_path, "cold")
        capsys.readouterr()
        clear_index_cache()
        code = main(
            [
                "sweep",
                "graphs",
                "--json",
                str(json_path),
                "--index-store",
                str(tmp_path / "store"),
                "--resume",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 cell(s) built fresh, 0 reused" in out
        assert "4 restored from manifest" in out

    def test_manifests_record_artifact_addresses(self, tiny_profile, tmp_path):
        json_path = run_sweep(tmp_path, "cold")
        manifest = load_manifest(manifest_path_for(json_path))
        assert len(manifest.cells) == 4
        assert all(entry.artifact for entry in manifest.cells)
        # Warm manifests record the SAME addresses: content addressing
        # is execution-mode-free.
        clear_index_cache()
        warm_path = run_sweep(tmp_path, "warm")
        warm = load_manifest(manifest_path_for(warm_path))
        assert {(e.key, e.artifact) for e in warm.cells} == {
            (e.key, e.artifact) for e in manifest.cells
        }

    def test_no_index_reuse_forces_fresh_builds(
        self, tiny_profile, tmp_path, capsys
    ):
        cold_json = run_sweep(tmp_path, "cold")
        capsys.readouterr()
        clear_index_cache()
        rebuilt_json = run_sweep(tmp_path, "rebuilt", "--no-index-reuse")
        out = capsys.readouterr().out
        assert "4 cell(s) built fresh, 0 reused" in out
        assert canonical_json(load_sweep(cold_json)) == canonical_json(
            load_sweep(rebuilt_json)
        )

    def test_cold_engine_run_reports_no_duplicate_build(
        self, tiny_profile, tmp_path, capsys
    ):
        """Batched cells build once — batch 0 — however many workers
        answer their queries, and the store line says so."""
        clear_index_cache()
        run_sweep(
            tmp_path, "cold", "--jobs", "2", "--shared-mem", "--batch-queries"
        )
        out = capsys.readouterr().out
        assert "4 cell(s) built fresh, 0 reused" in out
        assert ", 0 duplicate build(s)" in out

    def test_engine_modes_share_the_store(self, tiny_profile, tmp_path, capsys):
        """A warm engine run (pool + arena + batching) reuses the cold
        sequential run's artifacts and stays byte-identical."""
        cold_json = run_sweep(tmp_path, "cold")
        capsys.readouterr()
        clear_index_cache()
        warm_json = run_sweep(
            tmp_path, "warm", "--jobs", "2", "--shared-mem", "--batch-queries"
        )
        out = capsys.readouterr().out
        assert "0 cell(s) built fresh, 4 reused" in out
        assert canonical_json(load_sweep(cold_json)) == canonical_json(
            load_sweep(warm_json)
        )


class TestIndexSubcommands:
    def _seeded_store(self, tiny_profile, tmp_path):
        run_sweep(tmp_path, "seed")
        return tmp_path / "store"

    def test_ls_lists_artifacts(self, tiny_profile, tmp_path, capsys):
        store = self._seeded_store(tiny_profile, tmp_path)
        capsys.readouterr()
        assert main(["index", "ls", "--index-store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "4 artifact(s)" in out
        assert "ggsx" in out and "naive" in out

    def test_rm_removes_by_address(self, tiny_profile, tmp_path, capsys):
        store = self._seeded_store(tiny_profile, tmp_path)
        capsys.readouterr()
        address = next(store.glob("ggsx-*.idx")).stem
        assert main(["index", "rm", address, "--index-store", str(store)]) == 0
        assert not (store / f"{address}.idx").exists()
        assert main(["index", "rm", address, "--index-store", str(store)]) == 2

    def test_gc_drops_corrupt_files(self, tiny_profile, tmp_path, capsys):
        store = self._seeded_store(tiny_profile, tmp_path)
        (store / "broken.idx").write_bytes(b"junk")
        capsys.readouterr()
        assert main(["index", "gc", "--index-store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "removed 1 unreadable" in out
        assert not (store / "broken.idx").exists()

    def test_gc_max_bytes_evicts(self, tiny_profile, tmp_path, capsys):
        store = self._seeded_store(tiny_profile, tmp_path)
        capsys.readouterr()
        assert (
            main(["index", "gc", "--index-store", str(store), "--max-bytes", "0"])
            == 0
        )
        assert "kept 0 artifact(s)" in capsys.readouterr().out
        assert list(store.glob("*.idx")) == []

    def test_missing_store_dir_flag_is_an_error(self, tiny_profile, capsys):
        assert main(["index", "ls"]) == 2
        assert "--index-store" in capsys.readouterr().err

    def test_ls_on_empty_store(self, tiny_profile, tmp_path, capsys):
        assert main(["index", "ls", "--index-store", str(tmp_path / "nil")]) == 0
        assert "no artifacts" in capsys.readouterr().out


class TestBuildAndQueryStore:
    def _dataset(self, tmp_path):
        data = tmp_path / "d.gfd"
        assert (
            main(
                [
                    "generate",
                    str(data),
                    "--graphs",
                    "12",
                    "--nodes",
                    "9",
                    "--labels",
                    "3",
                ]
            )
            == 0
        )
        return data

    def test_build_reuses_across_invocations(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        store = str(tmp_path / "store")
        assert main(["build", str(data), "--method", "ggsx",
                     "--index-store", store]) == 0
        first = capsys.readouterr().out
        assert "built ggsx" in first
        clear_index_cache()
        assert main(["build", str(data), "--method", "ggsx",
                     "--index-store", store]) == 0
        second = capsys.readouterr().out
        assert "reused ggsx" in second and "[from index store]" in second

    def test_query_consumes_build_artifacts(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        queries = tmp_path / "q.gfd"
        assert main(["queries", str(data), str(queries), "--count", "3",
                     "--edges", "3"]) == 0
        store = str(tmp_path / "store")
        assert main(["build", str(data), "--method", "ggsx", "--method",
                     "naive", "--jobs", "1", "--index-store", store]) == 0
        capsys.readouterr()
        clear_index_cache()
        # `repro build` -> `repro query` across invocations: one build.
        assert main(["query", str(data), str(queries), "--method", "ggsx",
                     "--method", "naive", "--index-store", store]) == 0
        out = capsys.readouterr().out
        assert "ggsx" in out and "naive" in out and "DISAGREES" not in out
