"""``repro launch`` end-to-end: the orchestration acceptance contract.

The load-bearing invariant throughout: cost-balanced assignment changes
*which* cells land in which shard, never a result byte.  Balanced and
stride launches, history-calibrated launches, and resumed launches must
all merge to canonical JSON byte-identical to the unsharded sweep; a
resumed complete launch must execute zero cells; and partial runs must
render with explicit ``pending`` markers instead of crashing.
"""

import json
from dataclasses import replace

import pytest

import repro.cli.commands as commands
from repro.cli import main
from repro.core.driver import HISTORY_SCHEMA, driver_path_for, load_driver_run
from repro.core.presets import CI_PROFILE
from repro.core.serialization import canonical_json, load_sweep, sweep_digest
from repro.core.sharding import load_manifest, manifest_path_for, save_manifest


@pytest.fixture()
def tiny_profile(monkeypatch):
    profile = replace(
        CI_PROFILE,
        graph_count_values=(6, 10),
        default_num_graphs=8,
        default_nodes=10,
        default_density=0.2,
        default_labels=3,
        query_sizes=(3,),
        queries_per_size=2,
        build_budget_seconds=20.0,
        query_budget_seconds=20.0,
        method_configs={
            "naive": {},
            "ggsx": {"max_path_edges": 2},
        },
    )
    monkeypatch.setattr(commands, "active_profile", lambda: profile)
    return profile


@pytest.fixture()
def unsharded(tiny_profile, tmp_path, capsys):
    path = tmp_path / "full.json"
    assert main(["sweep", "graphs", "--json", str(path)]) == 0
    capsys.readouterr()
    return path


def _launch(tmp_path, name, *extra):
    json_path = tmp_path / f"{name}.json"
    argv = [
        "launch", "graphs", "--shards", "2", "--executor", "inprocess",
        "--json", str(json_path), *extra,
    ]
    return main(argv), json_path


class TestLaunchDigestIdentity:
    def test_balanced_launch_merges_byte_identically(
        self, unsharded, tmp_path, capsys
    ):
        code, json_path = _launch(tmp_path, "balanced")
        out = capsys.readouterr().out
        assert code == 0
        assert "merged digest" in out
        full = load_sweep(unsharded)
        launched = load_sweep(json_path)
        assert canonical_json(launched) == canonical_json(full)
        assert sweep_digest(launched) == sweep_digest(full)
        # The launch leaves its whole paper trail behind.
        assert driver_path_for(json_path).exists()
        assert manifest_path_for(json_path).exists()
        assert (tmp_path / "balanced.shard1of2.json").exists()
        assert (tmp_path / "balanced.shard1of2.log").exists()

    def test_stride_launch_matches_the_same_digest(
        self, unsharded, tmp_path, capsys
    ):
        code, json_path = _launch(tmp_path, "stride", "--assign", "stride")
        assert code == 0
        assert canonical_json(load_sweep(json_path)) == canonical_json(
            load_sweep(unsharded)
        )

    def test_more_shards_than_cells_skips_empties(
        self, unsharded, tmp_path, capsys
    ):
        json_path = tmp_path / "many.json"
        assert main(
            ["launch", "graphs", "--shards", "7", "--executor", "inprocess",
             "--json", str(json_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "across 4 shard(s)" in out  # 4 cells -> 4 live shards
        assert canonical_json(load_sweep(json_path)) == canonical_json(
            load_sweep(unsharded)
        )

    def test_single_shard_launch(self, unsharded, tmp_path, capsys):
        json_path = tmp_path / "one.json"
        assert main(
            ["launch", "graphs", "--shards", "1", "--executor", "inprocess",
             "--json", str(json_path)]
        ) == 0
        assert canonical_json(load_sweep(json_path)) == canonical_json(
            load_sweep(unsharded)
        )


class TestLaunchResume:
    def _counting(self, monkeypatch):
        executed = []
        import repro.core.experiments as experiments
        import repro.core.runner as runner_module

        real_run_cell = runner_module.run_cell

        def counting_run_cell(task):
            executed.append(task.key)
            return real_run_cell(task)

        monkeypatch.setattr(experiments, "run_cell", counting_run_cell)
        return executed

    def test_resume_of_a_complete_launch_runs_nothing(
        self, tiny_profile, tmp_path, capsys, monkeypatch
    ):
        code, json_path = _launch(tmp_path, "out")
        assert code == 0
        digest = sweep_digest(load_sweep(json_path))
        executed = self._counting(monkeypatch)
        capsys.readouterr()
        assert main(
            ["launch", "graphs", "--shards", "2", "--executor", "inprocess",
             "--json", str(json_path), "--resume"]
        ) == 0
        out = capsys.readouterr().out
        assert executed == []
        assert "driver: 0 cell(s) executed" in out
        assert "2 shard(s) skipped" in out
        assert sweep_digest(load_sweep(json_path)) == digest

    def test_resume_relaunches_only_the_crashed_shard(
        self, tiny_profile, tmp_path, capsys, monkeypatch
    ):
        code, json_path = _launch(tmp_path, "out")
        assert code == 0
        digest = sweep_digest(load_sweep(json_path))
        run = load_driver_run(driver_path_for(json_path))
        lost = set(run.assignment[1])  # shard 2's cells
        # Simulate a crash: shard 2 never wrote its manifest.
        shard2 = tmp_path / "out.shard2of2.json"
        shard2.unlink()
        manifest_path_for(shard2).unlink()
        executed = self._counting(monkeypatch)
        capsys.readouterr()
        assert main(
            ["launch", "graphs", "--shards", "2", "--executor", "inprocess",
             "--json", str(json_path), "--resume"]
        ) == 0
        out = capsys.readouterr().out
        assert set(executed) == lost
        assert f"{len(lost)} cell(s) executed" in out
        assert sweep_digest(load_sweep(json_path)) == digest

    def test_resume_verifies_the_recorded_digest(self, tiny_profile, tmp_path):
        code, json_path = _launch(tmp_path, "out")
        assert code == 0
        # Later launches must reassemble the digest recorded earlier.
        run = load_driver_run(driver_path_for(json_path))
        assert run.merged_digest == sweep_digest(load_sweep(json_path))

    def test_digest_mismatch_leaves_the_merged_output_untouched(
        self, tiny_profile, tmp_path, capsys
    ):
        """A failed determinism check must not replace the previously
        verified merged output with the bytes it just distrusted."""
        code, json_path = _launch(tmp_path, "out")
        assert code == 0
        original = json_path.read_text(encoding="utf-8")
        run_path = driver_path_for(json_path)
        document = json.loads(run_path.read_text(encoding="utf-8"))
        document["merged_digest"] = "0" * 16
        run_path.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main(
            ["launch", "graphs", "--shards", "2", "--executor", "inprocess",
             "--json", str(json_path), "--resume"]
        ) == 2
        err = capsys.readouterr().err
        assert "does not match the digest" in err
        assert json_path.read_text(encoding="utf-8") == original

    def test_resume_refuses_a_different_launch(
        self, tiny_profile, tmp_path, capsys
    ):
        code, json_path = _launch(tmp_path, "out")
        assert code == 0
        capsys.readouterr()
        assert main(
            ["launch", "graphs", "--shards", "2", "--executor", "inprocess",
             "--json", str(json_path), "--resume", "--seed", "9"]
        ) == 2
        assert "does not match this launch" in capsys.readouterr().err

    def test_failed_shard_surfaces_its_log(
        self, tiny_profile, tmp_path, capsys
    ):
        code, json_path = _launch(tmp_path, "out")
        assert code == 0
        # Corrupt shard 1's manifest: the relaunched sweep's --resume
        # loader must fail loudly, and the driver must surface it.
        shard1_manifest = manifest_path_for(tmp_path / "out.shard1of2.json")
        shard1_manifest.write_text("{broken", encoding="utf-8")
        capsys.readouterr()
        assert main(
            ["launch", "graphs", "--shards", "2", "--executor", "inprocess",
             "--json", str(json_path), "--resume"]
        ) == 2
        captured = capsys.readouterr()
        assert "shard 1/2 failed" in captured.out
        assert "rerun with --resume" in captured.err


class TestHistoryCalibratedLaunch:
    def _write_history(self, path, cells):
        lines = [
            json.dumps(
                {
                    "schema": HISTORY_SCHEMA,
                    "experiment": "graphs",
                    "profile": "ci",
                    "seed": 0,
                    "x": x,
                    "method": method,
                    "seconds": seconds,
                    "units": 1000.0,
                }
            )
            for (x, method), seconds in cells.items()
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_launch_populates_the_history_file(
        self, tiny_profile, tmp_path, capsys
    ):
        history = tmp_path / "runs.jsonl"
        code, _ = _launch(tmp_path, "first", "--history", str(history))
        assert code == 0
        assert "appended 4 cell timing(s)" in capsys.readouterr().out
        records = [
            json.loads(line)
            for line in history.read_text(encoding="utf-8").splitlines()
        ]
        assert len(records) == 4
        assert {(r["x"], r["method"]) for r in records} == {
            (6, "naive"), (6, "ggsx"), (10, "naive"), (10, "ggsx"),
        }
        assert all(r["schema"] == HISTORY_SCHEMA for r in records)

    def test_history_changes_assignment_but_not_the_digest(
        self, unsharded, tmp_path, capsys
    ):
        """The acceptance criterion, end to end: a populated history
        file measurably changes the next launch's shard assignment
        (checked via CostHistory rates) without changing the merged
        digest."""
        from repro.core.driver import load_history

        code, blind_json = _launch(tmp_path, "blind")
        assert code == 0
        history_path = tmp_path / "runs.jsonl"
        skew = {
            (6, "naive"): 100.0,
            (6, "ggsx"): 1.0,
            (10, "naive"): 2.0,
            (10, "ggsx"): 3.0,
        }
        self._write_history(history_path, skew)
        history = load_history(history_path, "graphs", "ci")
        for key, seconds in skew.items():
            assert history.recorded(key).seconds == seconds
            assert history.rate_for(key, key[1]) == pytest.approx(
                seconds / 1000.0
            )
        capsys.readouterr()
        code, informed_json = _launch(
            tmp_path, "informed", "--history", str(history_path)
        )
        assert code == 0
        assert "calibrate the shard assignment" in capsys.readouterr().out
        blind = load_driver_run(driver_path_for(blind_json))
        informed = load_driver_run(driver_path_for(informed_json))
        assert blind.assignment != informed.assignment
        # LPT isolates the 100-second outlier on its own shard.
        assert [(6, "naive")] in informed.assignment
        # ... and not a byte of the result moved.
        assert canonical_json(load_sweep(informed_json)) == canonical_json(
            load_sweep(unsharded)
        )
        assert sweep_digest(load_sweep(informed_json)) == sweep_digest(
            load_sweep(blind_json)
        )

    def test_sweep_history_flag_loads_and_appends(
        self, tiny_profile, tmp_path, capsys
    ):
        history = tmp_path / "runs.jsonl"
        json_path = tmp_path / "sweep.json"
        assert main(
            ["sweep", "graphs", "--json", str(json_path), "--history",
             str(history)]
        ) == 0
        assert "appended 4 cell timing(s)" in capsys.readouterr().out
        # A resumed complete run executes nothing and re-appends nothing.
        assert main(
            ["sweep", "graphs", "--json", str(json_path), "--resume",
             "--history", str(history)]
        ) == 0
        assert "appended" not in capsys.readouterr().out
        assert len(history.read_text(encoding="utf-8").splitlines()) == 4


class TestCellsFlag:
    def test_cells_runs_exactly_the_assigned_cells(
        self, tiny_profile, tmp_path, capsys
    ):
        json_path = tmp_path / "cells.json"
        assert main(
            ["sweep", "graphs", "--cells", "6:ggsx,10:naive", "--json",
             str(json_path)]
        ) == 0
        sweep = load_sweep(json_path)
        # The manifest keeps the full grid; only the assigned cells ran.
        assert sweep.x_values == [6, 10]
        assert sweep.methods == ["naive", "ggsx"]
        assert set(sweep.cells) == {(6, "ggsx"), (10, "naive")}
        manifest = load_manifest(manifest_path_for(json_path))
        assert manifest.assignment == [(6, "ggsx"), (10, "naive")]

    def test_cells_resume_identity(self, tiny_profile, tmp_path, capsys):
        json_path = tmp_path / "cells.json"
        assert main(
            ["sweep", "graphs", "--cells", "6:ggsx", "--json", str(json_path)]
        ) == 0
        # Same assignment resumes to a no-op...
        assert main(
            ["sweep", "graphs", "--cells", "6:ggsx", "--json", str(json_path),
             "--resume"]
        ) == 0
        capsys.readouterr()
        # ... a different one is refused by name.
        assert main(
            ["sweep", "graphs", "--cells", "10:naive", "--json",
             str(json_path), "--resume"]
        ) == 2
        assert "cells" in capsys.readouterr().err

    def test_cells_requires_json(self, tiny_profile, capsys):
        assert main(["sweep", "graphs", "--cells", "6:ggsx"]) == 2
        assert "--cells requires --json" in capsys.readouterr().err

    def test_cells_and_shard_are_mutually_exclusive(
        self, tiny_profile, tmp_path, capsys
    ):
        assert main(
            ["sweep", "graphs", "--cells", "6:ggsx", "--shard", "1/2",
             "--json", str(tmp_path / "x.json")]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unknown_cells_entry_is_a_cli_error(
        self, tiny_profile, tmp_path, capsys
    ):
        assert main(
            ["sweep", "graphs", "--cells", "99:ggsx", "--json",
             str(tmp_path / "x.json")]
        ) == 2
        assert "matches no x value" in capsys.readouterr().err


class TestPendingReport:
    @pytest.fixture()
    def half_run(self, tiny_profile, tmp_path, capsys):
        """A 1/2-stride shard of the 4-cell grid, merged --allow-partial."""
        shard_json = tmp_path / "half.json"
        assert main(
            ["sweep", "graphs", "--shard", "1/2", "--json", str(shard_json)]
        ) == 0
        merged = tmp_path / "partial.json"
        assert main(
            ["merge", str(manifest_path_for(shard_json)), "--json",
             str(merged), "--allow-partial"]
        ) == 0
        capsys.readouterr()
        return shard_json, merged

    def test_partial_merge_renders_pending_cells(self, half_run, capsys):
        _, merged = half_run
        assert main(["report", str(merged), "--figure", "6"]) == 0
        out = capsys.readouterr().out
        assert "2 of 4 cell(s) pending" in out
        assert "pending" in out
        assert "Figure 6(c)" in out

    def test_shard_manifest_renders_directly(self, half_run, capsys):
        shard_json, _ = half_run
        assert main(["report", str(manifest_path_for(shard_json))]) == 0
        out = capsys.readouterr().out
        assert "2 of 4 cell(s) pending" in out

    def test_complete_run_reports_nothing_pending(
        self, unsharded, capsys
    ):
        assert main(["report", str(unsharded), "--figure", "6"]) == 0
        out = capsys.readouterr().out
        assert "pending" not in out

    def test_sweep_json_without_manifest_still_renders(
        self, unsharded, capsys
    ):
        manifest_path_for(unsharded).unlink()
        assert main(["report", str(unsharded), "--figure", "6"]) == 0
        assert "Figure 6(a)" in capsys.readouterr().out

    def test_corrupt_manifest_beside_results_is_ignored(
        self, unsharded, capsys
    ):
        manifest_path_for(unsharded).write_text("{broken", encoding="utf-8")
        assert main(["report", str(unsharded), "--figure", "6"]) == 0
        assert "Figure 6(a)" in capsys.readouterr().out

    def test_pending_is_distinct_from_missing_data(
        self, tiny_profile, tmp_path, capsys, monkeypatch
    ):
        """A cell that *ran* and produced nothing stays '—'; only
        never-run cells read 'pending'."""
        shard_json = tmp_path / "half.json"
        assert main(
            ["sweep", "graphs", "--shard", "1/2", "--json", str(shard_json)]
        ) == 0
        manifest = load_manifest(manifest_path_for(shard_json))
        # Fake a budget-failed build on a completed cell: status only,
        # so the digest must be recomputed for the tamper to be honest.
        from dataclasses import replace as dc_replace

        from repro.core.runner import MethodCell
        from repro.core.sharding import cell_digest

        entry = manifest.cells[0]
        failed = MethodCell(method=entry.method, build_status="timeout")
        manifest.cells[0] = dc_replace(
            entry, cell=failed, digest=cell_digest(failed)
        )
        save_manifest(manifest, manifest_path_for(shard_json))
        capsys.readouterr()
        assert main(["report", str(manifest_path_for(shard_json))]) == 0
        out = capsys.readouterr().out
        assert "pending" in out
        assert "—" in out


class TestLaunchErrors:
    def test_bad_shards_and_jobs(self, tiny_profile, tmp_path, capsys):
        assert main(
            ["launch", "graphs", "--shards", "0", "--json",
             str(tmp_path / "x.json")]
        ) == 2
        assert "--shards" in capsys.readouterr().err
        assert main(
            ["launch", "graphs", "--jobs", "-1", "--json",
             str(tmp_path / "x.json")]
        ) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_unknown_method_and_selector(self, tiny_profile, tmp_path, capsys):
        assert main(
            ["launch", "graphs", "--method", "vf9", "--json",
             str(tmp_path / "x.json")]
        ) == 2
        assert "unknown method" in capsys.readouterr().err
        assert main(
            ["launch", "graphs", "--only", "metod=ggsx", "--json",
             str(tmp_path / "x.json")]
        ) == 2
        assert "unknown selector key" in capsys.readouterr().err


@pytest.mark.slow
class TestLocalSubprocessExecutor:
    def test_real_subprocess_shards_merge_byte_identically(self, tmp_path):
        """The default executor, unmonkeypatched: concurrent
        ``python -m repro`` children at CI scale, narrowed to one cheap
        cell per method."""
        json_path = tmp_path / "local.json"
        code = main(
            ["launch", "graphs", "--only", "graphs=40", "--method", "naive",
             "--method", "ggsx", "--shards", "2", "--json", str(json_path)]
        )
        assert code == 0
        seq_path = tmp_path / "seq.json"
        assert main(
            ["sweep", "graphs", "--only", "graphs=40", "--method", "naive",
             "--method", "ggsx", "--json", str(seq_path)]
        ) == 0
        assert canonical_json(load_sweep(json_path)) == canonical_json(
            load_sweep(seq_path)
        )
