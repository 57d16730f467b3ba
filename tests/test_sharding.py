"""Grid sharding: selectors, shard specs, manifests, merge, resume.

The contracts under test are the ones fleet-style reproduction rests
on: selectors reject garbage loudly instead of silently selecting
nothing, shards partition the grid deterministically, manifests
round-trip through canonical JSON, merge refuses divergent overlaps by
naming the guilty cell, and a resumed run is byte-identical to a fresh
one.
"""

from dataclasses import replace

import pytest

from repro.core.experiments import EXPERIMENTS, graph_count_sweep
from repro.core.presets import CI_PROFILE
from repro.core.runner import MethodCell, SizeStats
from repro.core.metrics import WorkloadStats
from repro.core.scheduling import CostHistory, estimate_cost
from repro.core.serialization import canonical_json, sweep_digest
from repro.core.sharding import (
    CellSelector,
    ManifestError,
    MergeError,
    SelectorError,
    ShardSpec,
    SweepPlan,
    cell_digest,
    cell_seconds,
    cost_history,
    load_manifest,
    manifest_for,
    manifest_from_json,
    manifest_path_for,
    manifest_to_json,
    merge_manifests,
    parse_only,
    parse_shard,
    save_manifest,
)

#: Micro profile: 2 x values, 2 methods -> a 4-cell grid in well under
#: a second, sequentially.
TINY = replace(
    CI_PROFILE,
    graph_count_values=(6, 10),
    default_nodes=10,
    default_density=0.2,
    default_labels=3,
    query_sizes=(3,),
    queries_per_size=2,
    method_configs={"naive": {}, "ggsx": {"max_path_edges": 2}},
)


@pytest.fixture(scope="module")
def full_sweep():
    return graph_count_sweep(TINY, seed=0)


@pytest.fixture()
def full_manifest(full_sweep):
    return manifest_for(full_sweep, experiment="graphs", seed=0, profile="tiny")


# ----------------------------------------------------------------------
# --only selector parsing
# ----------------------------------------------------------------------


class TestSelectorParsing:
    def test_no_flags_is_no_selector(self):
        assert parse_only([]) is None
        assert parse_only(None) is None

    def test_clauses_and_multi_value_or(self):
        selector = parse_only(["method=ggsx,method=naive", "graphs=6"])
        assert selector.as_dict() == {
            "graphs": ["6"],
            "method": ["ggsx", "naive"],
        }

    def test_duplicate_values_collapse(self):
        selector = parse_only(["method=ggsx,method=ggsx"])
        assert selector.as_dict() == {"method": ["ggsx"]}

    def test_unknown_key_rejected_loudly(self):
        with pytest.raises(SelectorError, match="unknown selector key 'metod'"):
            parse_only(["metod=ggsx"])

    def test_malformed_clause_rejected(self):
        with pytest.raises(SelectorError, match="KEY=VALUE"):
            parse_only(["method"])
        with pytest.raises(SelectorError, match="KEY=VALUE"):
            parse_only(["=ggsx"])
        with pytest.raises(SelectorError, match="KEY=VALUE"):
            parse_only(["method="])

    def test_empty_selection_rejected(self):
        with pytest.raises(SelectorError, match="selects nothing"):
            parse_only([""])
        with pytest.raises(SelectorError, match="selects nothing"):
            parse_only([",", ", ,"])


class TestSelectorNarrow:
    X = [6, 10]
    METHODS = ["naive", "ggsx"]

    def narrow(self, *specs):
        return parse_only(list(specs)).narrow(
            self.X, self.METHODS, "number of graphs"
        )

    def test_method_filter_preserves_roster_order(self):
        xs, methods = self.narrow("method=ggsx,method=naive")
        assert (xs, methods) == ([6, 10], ["naive", "ggsx"])

    def test_axis_filter_by_name_and_generic_x(self):
        assert self.narrow("graphs=10") == ([10], ["naive", "ggsx"])
        assert self.narrow("x=6") == ([6], ["naive", "ggsx"])

    def test_axis_alias_and_generic_x_intersect(self):
        """'graphs=...' and 'x=...' are distinct keys, so they AND —
        agreeing clauses select the intersection, disjoint ones select
        no cells and fail loudly."""
        assert self.narrow("graphs=10,x=10") == ([10], ["naive", "ggsx"])
        with pytest.raises(SelectorError, match="selects no cells"):
            self.narrow("graphs=6,x=10")

    def test_unknown_method_rejected(self):
        with pytest.raises(SelectorError, match="not in this sweep's roster"):
            self.narrow("method=grapes")

    def test_unknown_x_value_rejected(self):
        with pytest.raises(SelectorError, match="matches no x value"):
            self.narrow("graphs=999")

    def test_wrong_axis_key_rejected(self):
        with pytest.raises(SelectorError, match="does not apply to this sweep"):
            self.narrow("density=0.2")


class TestAxisKeysFollowTheExperimentTable:
    """The selector language lists no axes of its own: each experiment's
    ``axis_key`` (and the generic ``x``) addresses its x axis, and every
    other experiment's key is the wrong-axis error."""

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_own_keys_resolve_and_foreign_keys_are_rejected(self, name):
        experiment = EXPERIMENTS[name]
        xs = experiment.x_values(CI_PROFILE)
        methods = experiment.roster(CI_PROFILE)
        for key in (experiment.axis_key, "x"):
            selector = parse_only([f"{key}={xs[-1]}"])
            assert selector.narrow(xs, methods, experiment.x_name) == (
                [xs[-1]],
                methods,
            )
        foreign = {e.axis_key for e in EXPERIMENTS.values()} - {experiment.axis_key}
        assert len(foreign) == len(EXPERIMENTS) - 1  # axis keys are distinct
        for key in sorted(foreign):
            with pytest.raises(SelectorError, match="does not apply to this sweep"):
                parse_only([f"{key}={xs[-1]}"]).narrow(
                    xs, methods, experiment.x_name
                )


# ----------------------------------------------------------------------
# --shard specs
# ----------------------------------------------------------------------


class TestShardSpec:
    def test_parse_and_str(self):
        spec = parse_shard("2/8")
        assert (spec.index, spec.count) == (2, 8)
        assert str(spec) == "2/8"
        assert parse_shard(None) is None

    @pytest.mark.parametrize("bad", ["2-8", "2", "a/b", "", "/", "2/"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(SelectorError, match="expects I/N"):
            parse_shard(bad)

    @pytest.mark.parametrize("bad", ["0/4", "5/4", "-1/4", "1/0"])
    def test_out_of_range_specs_rejected(self, bad):
        with pytest.raises(SelectorError):
            parse_shard(bad)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 7])
    def test_shards_partition_the_grid(self, count):
        keys = [(x, m) for x in range(5) for m in "ab"]
        shares = [ShardSpec(i, count).take(keys) for i in range(1, count + 1)]
        flat = [key for share in shares for key in share]
        # Disjoint and jointly covering, deterministically.
        assert sorted(flat) == sorted(keys)
        assert len(flat) == len(set(flat))
        assert shares == [ShardSpec(i, count).take(keys) for i in range(1, count + 1)]

    def test_more_shards_than_cells_gives_empty_shares(self):
        keys = [("x", "m")]
        assert ShardSpec(1, 4).take(keys) == keys
        assert ShardSpec(3, 4).take(keys) == []


# ----------------------------------------------------------------------
# derived cell quantities
# ----------------------------------------------------------------------


def _cell(build_seconds=1.5, avg_query_seconds=0.25) -> MethodCell:
    cell = MethodCell(method="ggsx", build_status="ok", build_seconds=build_seconds)
    cell.per_size[3] = SizeStats(
        status="ok",
        stats=WorkloadStats(
            num_queries=4,
            avg_query_seconds=avg_query_seconds,
            avg_filter_seconds=0.0,
            avg_verify_seconds=0.0,
            avg_candidates=2.0,
            avg_answers=1.0,
            false_positive_ratio=0.5,
        ),
    )
    return cell


class TestCellDerived:
    def test_cell_seconds_sums_build_and_query_totals(self):
        assert cell_seconds(_cell()) == pytest.approx(1.5 + 4 * 0.25)

    def test_cell_seconds_tolerates_failed_cells(self):
        failed = MethodCell(method="ggsx", build_status="timeout")
        assert cell_seconds(failed) == 0.0

    def test_cell_digest_ignores_timings(self):
        slow = _cell(build_seconds=9.0, avg_query_seconds=3.0)
        fast = _cell(build_seconds=0.1, avg_query_seconds=0.01)
        assert cell_digest(slow) == cell_digest(fast)

    def test_cell_digest_sees_measured_content(self):
        other = _cell()
        other.per_size[3] = SizeStats(
            status="ok",
            stats=replace(other.per_size[3].stats, avg_candidates=99.0),
        )
        assert cell_digest(other) != cell_digest(_cell())


# ----------------------------------------------------------------------
# cost-model feedback
# ----------------------------------------------------------------------


class TestCostHistory:
    def test_exact_key_returns_measured_seconds(self):
        history = CostHistory([(("x1", "ggsx"), "ggsx", 12.0, 100.0)])
        assert history.calibrate(("x1", "ggsx"), "ggsx", 100.0) == pytest.approx(12.0)

    def test_method_rate_generalizes_to_new_cells(self):
        history = CostHistory(
            [
                (("x1", "ggsx"), "ggsx", 10.0, 100.0),
                (("x2", "ggsx"), "ggsx", 30.0, 100.0),
            ]
        )
        # mean rate 0.2 s/unit, applied to an unseen cell of the method
        assert history.calibrate(("x9", "ggsx"), "ggsx", 50.0) == pytest.approx(10.0)

    def test_global_rate_covers_unseen_methods(self):
        history = CostHistory([(("x1", "ggsx"), "ggsx", 10.0, 100.0)])
        assert history.calibrate(("x1", "gcode"), "gcode", 100.0) == pytest.approx(10.0)

    def test_empty_history_returns_static_units(self):
        assert CostHistory().calibrate(("x", "m"), "m", 42.0) == 42.0
        assert len(CostHistory()) == 0

    def test_zero_unit_records_do_not_poison_rates(self):
        history = CostHistory([(("x1", "ggsx"), "ggsx", 10.0, 0.0)])
        assert history.calibrate(("x2", "ggsx"), "ggsx", 7.0) == 7.0

    def test_estimate_cost_uses_history(self, full_sweep, full_manifest):
        from repro.core.runner import CellTask
        from repro.generators.graphgen import GraphGenConfig, generate_dataset

        history = cost_history(full_manifest)
        assert len(history) == len(full_sweep.cells)
        key = next(iter(full_sweep.cells))
        dataset = generate_dataset(
            GraphGenConfig(
                num_graphs=key[0], mean_nodes=10, mean_density=0.2, num_labels=3
            ),
            seed=0,
        )
        task = CellTask(key=key, method=key[1], dataset=dataset, workloads={})
        static = estimate_cost(task)
        calibrated = estimate_cost(task, history)
        entry = next(e for e in full_manifest.cells if e.key == key)
        rate = history.rate_for(key, key[1])
        assert rate is not None
        # The exact-key estimator prices by the measured rate, not the
        # static unit count.
        assert calibrated == pytest.approx(static * rate)
        assert history.calibrate(key, key[1], entry.cost_units) == pytest.approx(
            entry.seconds
        )

    def test_sweeps_record_static_cost_units(self, full_sweep):
        assert set(full_sweep.cost_units) == set(full_sweep.cells)
        assert all(units > 0 for units in full_sweep.cost_units.values())


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------


class TestManifest:
    def test_round_trip_is_canonical(self, full_manifest):
        text = manifest_to_json(full_manifest)
        again = manifest_to_json(manifest_from_json(text))
        assert text == again

    def test_manifest_records_digests_and_seconds(self, full_sweep, full_manifest):
        assert len(full_manifest.cells) == len(full_sweep.cells)
        for entry in full_manifest.cells:
            assert entry.digest == cell_digest(full_sweep.cells[entry.key])
            assert entry.seconds >= 0.0
            assert entry.cost_units > 0.0

    def test_wrong_schema_rejected(self):
        with pytest.raises(ManifestError, match="not a repro-shard-manifest"):
            manifest_from_json("{}")
        with pytest.raises(ManifestError, match="not valid JSON"):
            manifest_from_json("nope")

    def test_truncated_document_rejected(self):
        """Right schema marker, missing fields: a ManifestError, not a
        bare KeyError traceback."""
        with pytest.raises(ManifestError, match="malformed"):
            manifest_from_json('{"schema": "repro-shard-manifest-v1"}')

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="not found"):
            load_manifest(tmp_path / "absent.manifest.json")

    def test_manifest_path_sits_beside_json(self):
        assert (
            manifest_path_for("out/sweep-graphs.json").name
            == "sweep-graphs.manifest.json"
        )

    def test_save_load_round_trip(self, full_manifest, tmp_path):
        path = tmp_path / "m.manifest.json"
        save_manifest(full_manifest, path)
        assert manifest_to_json(load_manifest(path)) == manifest_to_json(
            full_manifest
        )


# ----------------------------------------------------------------------
# sharded execution + merge
# ----------------------------------------------------------------------


def _shard_manifests(count: int) -> list:
    manifests = []
    for index in range(1, count + 1):
        plan = SweepPlan(shard=ShardSpec(index, count), experiment="graphs", seed=0)
        sweep = graph_count_sweep(TINY, seed=0, plan=plan)
        manifests.append(
            manifest_for(
                sweep,
                experiment="graphs",
                seed=0,
                profile="tiny",
                shard=plan.shard,
            )
        )
    return manifests


class TestMerge:
    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_merge_matches_unsharded_run(self, count, full_sweep):
        merged, merged_manifest = merge_manifests(_shard_manifests(count))
        assert canonical_json(merged) == canonical_json(full_sweep)
        assert sweep_digest(merged) == sweep_digest(full_sweep)
        assert merged_manifest.shard is None

    def test_overlapping_consistent_shards_merge(self, full_sweep):
        shards = _shard_manifests(2)
        merged, _ = merge_manifests(shards + [shards[0]])
        assert sweep_digest(merged) == sweep_digest(full_sweep)

    def test_divergent_overlap_names_the_cell(self, full_manifest):
        import copy

        tampered = copy.deepcopy(full_manifest)
        entry = tampered.cells[1]
        entry.cell.per_size[3] = SizeStats(
            status="ok",
            stats=replace(entry.cell.per_size[3].stats, avg_candidates=123.0),
        )
        tampered.cells[1] = replace(entry, digest=cell_digest(entry.cell))
        with pytest.raises(MergeError, match="diverge on cell") as excinfo:
            merge_manifests([full_manifest, tampered])
        message = str(excinfo.value)
        assert f"number of graphs={entry.x}" in message
        assert f"method={entry.method}" in message

    def test_corrupt_digest_rejected(self, full_manifest):
        import copy

        corrupt = copy.deepcopy(full_manifest)
        corrupt.cells[0] = replace(corrupt.cells[0], digest="0" * 16)
        with pytest.raises(MergeError, match="corrupt manifest"):
            merge_manifests([corrupt])

    def test_missing_cells_rejected_unless_partial(self, full_manifest):
        shards = _shard_manifests(2)
        with pytest.raises(MergeError, match="missing"):
            merge_manifests(shards[:1])
        partial, manifest = merge_manifests(shards[:1], require_complete=False)
        assert len(partial.cells) == len(shards[0].cells)
        assert manifest.completed_keys() == shards[0].completed_keys()

    def test_incompatible_grids_rejected(self, full_manifest):
        import copy

        other = copy.deepcopy(full_manifest)
        other.seed = 999
        with pytest.raises(MergeError, match="different runs"):
            merge_manifests([full_manifest, other])

    def test_mismatched_profiles_rejected(self, full_manifest):
        import copy

        other = copy.deepcopy(full_manifest)
        other.profile = "paper"
        with pytest.raises(MergeError, match="profile"):
            merge_manifests([full_manifest, other])

    def test_merge_nothing_rejected(self):
        with pytest.raises(MergeError, match="no manifests"):
            merge_manifests([])

    def test_artifact_address_divergence_rejected(self, full_manifest):
        """ROADMAP index-store follow-on: two shards claiming the same
        cell with the same result digest but different index-artifact
        addresses built from different inputs — refused by name."""
        import copy

        other = copy.deepcopy(full_manifest)
        full_manifest.cells[0] = replace(
            full_manifest.cells[0], artifact="ggsx-aaaa-1111"
        )
        other.cells[0] = replace(other.cells[0], artifact="ggsx-bbbb-2222")
        with pytest.raises(MergeError, match="artifact address") as excinfo:
            merge_manifests([full_manifest, other])
        message = str(excinfo.value)
        assert "ggsx-aaaa-1111" in message and "ggsx-bbbb-2222" in message
        assert f"method={full_manifest.cells[0].method}" in message

    def test_empty_artifact_does_not_conflict(self, full_manifest):
        """A shard that ran without a store agrees with one that ran
        with one; the merged entry keeps the known address."""
        import copy

        with_store = copy.deepcopy(full_manifest)
        with_store.cells[0] = replace(
            with_store.cells[0], artifact="ggsx-aaaa-1111"
        )
        _, merged = merge_manifests([full_manifest, with_store])
        key = with_store.cells[0].key
        by_key = {entry.key: entry for entry in merged.cells}
        assert by_key[key].artifact == "ggsx-aaaa-1111"

    def test_matching_artifacts_merge_cleanly(self, full_manifest):
        import copy

        a = copy.deepcopy(full_manifest)
        b = copy.deepcopy(full_manifest)
        a.cells[0] = replace(a.cells[0], artifact="ggsx-aaaa-1111")
        b.cells[0] = replace(b.cells[0], artifact="ggsx-aaaa-1111")
        merged, _ = merge_manifests([a, b])
        assert len(merged.cells) == len(full_manifest.cells)


# ----------------------------------------------------------------------
# plans: subgrid, shard skip, resume
# ----------------------------------------------------------------------


class TestSweepPlan:
    def test_selector_narrows_before_sharding(self, full_sweep):
        plan = SweepPlan(selector=parse_only(["method=ggsx"]))
        sweep = graph_count_sweep(TINY, seed=0, plan=plan)
        assert sweep.methods == ["ggsx"]
        assert set(sweep.cells) == {(6, "ggsx"), (10, "ggsx")}
        for key, cell in sweep.cells.items():
            assert cell_digest(cell) == cell_digest(full_sweep.cells[key])

    def test_sharded_sweep_skips_unselected_datasets(self):
        plan = SweepPlan(shard=ShardSpec(1, 4), experiment="graphs", seed=0)
        sweep = graph_count_sweep(TINY, seed=0, plan=plan)
        # Shard 1/4 of the 4-cell grid holds exactly one cell; only its
        # x value's dataset statistics exist.
        assert len(sweep.cells) == 1
        assert set(sweep.dataset_stats) == {key[0] for key in sweep.cells}

    def test_resume_runs_only_missing_cells(self, full_sweep, monkeypatch):
        manifest = manifest_for(full_sweep, "graphs", 0, "tiny")
        manifest.cells = manifest.cells[:2]
        executed = []
        import repro.core.experiments as experiments
        import repro.core.runner as runner_module

        real_run_cell = runner_module.run_cell

        def counting_run_cell(task):
            executed.append(task.key)
            return real_run_cell(task)

        monkeypatch.setattr(experiments, "run_cell", counting_run_cell)
        plan = SweepPlan(resume=manifest, experiment="graphs", seed=0,
                         profile="tiny")
        resumed = graph_count_sweep(TINY, seed=0, plan=plan)
        done = {entry.key for entry in manifest.cells}
        assert set(executed) == set(full_sweep.cells) - done
        assert canonical_json(resumed) == canonical_json(full_sweep)
        # Grid ordering is restored even though resumed cells were
        # folded in after the freshly run ones.
        assert list(resumed.cells) == list(full_sweep.cells)

    def test_fully_resumed_sweep_runs_nothing(self, full_sweep, monkeypatch):
        manifest = manifest_for(full_sweep, "graphs", 0, "tiny")
        import repro.core.experiments as experiments

        def boom(task):  # pragma: no cover - the assertion is that it never runs
            raise AssertionError("no cell should execute")

        monkeypatch.setattr(experiments, "run_cell", boom)
        plan = SweepPlan(resume=manifest, experiment="graphs", seed=0,
                         profile="tiny")
        resumed = graph_count_sweep(TINY, seed=0, plan=plan)
        assert canonical_json(resumed) == canonical_json(full_sweep)

    def test_resume_rejects_mismatched_run(self, full_sweep):
        manifest = manifest_for(full_sweep, "graphs", 0, "tiny")
        plan = SweepPlan(resume=manifest, experiment="graphs", seed=7,
                         profile="tiny")
        with pytest.raises(ManifestError, match="does not match this run"):
            graph_count_sweep(TINY, seed=7, plan=plan)

    def test_resume_rejects_mismatched_shard(self, full_sweep):
        manifest = manifest_for(full_sweep, "graphs", 0, "tiny")
        plan = SweepPlan(
            shard=ShardSpec(1, 2), resume=manifest, experiment="graphs",
            seed=0, profile="tiny",
        )
        with pytest.raises(ManifestError, match="shard"):
            graph_count_sweep(TINY, seed=0, plan=plan)

    def test_resume_rejects_mismatched_profile(self, full_sweep):
        """A CI-scale manifest must not resume a paper-scale run: the
        grids coincide, the cells do not."""
        manifest = manifest_for(full_sweep, "graphs", 0, "tiny")
        plan = SweepPlan(resume=manifest, experiment="graphs", seed=0,
                         profile="paper")
        with pytest.raises(ManifestError, match="profile"):
            graph_count_sweep(TINY, seed=0, plan=plan)

    def test_resume_seeds_cost_history(self, full_sweep):
        manifest = manifest_for(full_sweep, "graphs", 0, "tiny")
        plan = SweepPlan(resume=manifest, experiment="graphs", seed=0,
                         profile="tiny")
        assert plan.history is not None and len(plan.history) == len(
            manifest.cells
        )

    def test_assignment_runs_exactly_the_named_cells(self, full_sweep):
        from repro.core.sharding import CellAssignment

        plan = SweepPlan(
            assignment=CellAssignment.parse(["6:ggsx,10:naive"]),
            experiment="graphs",
            seed=0,
        )
        sweep = graph_count_sweep(TINY, seed=0, plan=plan)
        # The grid stays whole (merge identity), only the named cells ran.
        assert sweep.x_values == [6, 10]
        assert sweep.methods == ["naive", "ggsx"]
        assert set(sweep.cells) == {(6, "ggsx"), (10, "naive")}
        for key, cell in sweep.cells.items():
            assert cell_digest(cell) == cell_digest(full_sweep.cells[key])

    def test_assignment_manifest_round_trips(self, full_sweep, tmp_path):
        from repro.core.sharding import CellAssignment

        assignment = CellAssignment.parse(["10:naive", "6:ggsx"])
        manifest = manifest_for(
            full_sweep, "graphs", 0, "tiny", assignment=assignment
        )
        assert manifest.assignment == [(6, "ggsx"), (10, "naive")]
        path = tmp_path / "a.manifest.json"
        save_manifest(manifest, path)
        again = load_manifest(path)
        assert again.assignment == manifest.assignment
        # Assignment is resume identity, not merge identity.
        assert again.grid_identity() == manifest_for(
            full_sweep, "graphs", 0, "tiny"
        ).grid_identity()

    def test_resume_rejects_mismatched_assignment(self, full_sweep):
        from repro.core.sharding import CellAssignment

        manifest = manifest_for(
            full_sweep, "graphs", 0, "tiny",
            assignment=CellAssignment.parse(["6:ggsx"]),
        )
        plan = SweepPlan(
            assignment=CellAssignment.parse(["10:naive"]),
            resume=manifest,
            experiment="graphs",
            seed=0,
            profile="tiny",
        )
        with pytest.raises(ManifestError, match="cells"):
            graph_count_sweep(TINY, seed=0, plan=plan)

    def test_assignments_from_different_shards_merge(self, full_sweep):
        from repro.core.sharding import CellAssignment

        halves = (["6:naive,10:ggsx"], ["6:ggsx,10:naive"])
        manifests = []
        for spec in halves:
            assignment = CellAssignment.parse(spec)
            plan = SweepPlan(assignment=assignment, experiment="graphs", seed=0)
            sweep = graph_count_sweep(TINY, seed=0, plan=plan)
            manifests.append(
                manifest_for(
                    sweep, "graphs", 0, "tiny", assignment=assignment
                )
            )
        merged, _ = merge_manifests(manifests)
        assert canonical_json(merged) == canonical_json(full_sweep)
        assert sweep_digest(merged) == sweep_digest(full_sweep)
