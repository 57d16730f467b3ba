"""The sweep orchestration driver's planning layer.

What these tests pin, in the ISSUE's words: cost-balanced and stride
assignments each cover every planned cell exactly once; balanced
assignment's max-shard estimated seconds never exceed stride's given a
skewed history; a history file measurably changes the assignment
(asserted via :class:`CostHistory` rates); and the driver run manifest
plus history-file round trips that ``repro launch --resume`` stands on.
The digest-identity half of the contract (balanced+merged == stride+
merged == unsharded, byte for byte) lives in ``tests/test_cli_launch.py``
where real sweeps run.
"""

import json
from dataclasses import replace

import pytest

from repro.core.driver import (
    DriverError,
    DriverRun,
    EXECUTORS,
    InProcessExecutor,
    LocalSubprocessExecutor,
    append_history,
    assign_shards,
    balanced_partition,
    driver_path_for,
    driver_run_from_json,
    driver_run_to_json,
    experiment_grid,
    load_driver_run,
    load_history,
    load_history_records,
    make_executor,
    plan_seconds,
    plan_units,
    save_driver_run,
    shard_json_path,
    stride_partition,
)
from repro.core.experiments import EXPERIMENTS, run_experiment
from repro.core.presets import CI_PROFILE, PAPER_PROFILE
from repro.core.scheduling import CostHistory
from repro.core.sharding import (
    CellAssignment,
    SelectorError,
    manifest_for,
    parse_only,
)


# ----------------------------------------------------------------------
# grid planning without datasets
# ----------------------------------------------------------------------


#: Every experiment, small enough to execute in a unit test.
TINY_PROFILE = replace(
    CI_PROFILE,
    nodes_values=(8, 12),
    density_values=(0.2, 0.3),
    label_values=(2, 3),
    graph_count_values=(6, 10),
    default_num_graphs=8,
    default_nodes=10,
    default_density=0.2,
    default_labels=3,
    query_sizes=(3,),
    queries_per_size=2,
    real_dataset_names=("PCM", "PPI"),
    method_configs={"naive": {}},
    massive_scale_values=(5, 6),
    massive_query_sizes=(3,),
    massive_methods=("naive",),
)


class TestExperimentGrid:
    @pytest.mark.parametrize(
        "experiment, values_attr",
        [(e.name, e.values_attr) for e in EXPERIMENTS.values()],
    )
    def test_matches_the_profile_grid(self, experiment, values_attr):
        x_name, xs, methods = experiment_grid(experiment, CI_PROFILE)
        assert xs == list(getattr(CI_PROFILE, values_attr))
        roster = (
            CI_PROFILE.massive_methods
            if experiment == "massive"
            else CI_PROFILE.method_names()
        )
        assert methods == list(roster)
        assert x_name  # every experiment has an axis label

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_the_planned_grid_is_the_executed_grid(self, experiment):
        """What the driver partitions before any dataset exists is what
        the runner then addresses: same axis, same x values, same roster."""
        result = run_experiment(experiment, TINY_PROFILE, seed=1)
        assert experiment_grid(experiment, TINY_PROFILE) == (
            result.x_name,
            result.x_values,
            result.methods,
        )
        assert list(result.cells) == [
            (x, m) for x in result.x_values for m in result.methods
        ]

    def test_method_restriction(self):
        _, _, methods = experiment_grid(
            "graphs", CI_PROFILE, methods=["ggsx", "naive"]
        )
        assert methods == ["ggsx", "naive"]

    def test_selector_narrows_like_the_sweep_would(self):
        selector = parse_only(["graphs=40,method=ggsx"])
        _, xs, methods = experiment_grid(
            "graphs", CI_PROFILE, methods=["naive", "ggsx"], selector=selector
        )
        assert (xs, methods) == ([40], ["ggsx"])

    def test_bad_selector_fails_loudly(self):
        selector = parse_only(["nodes=40"])  # wrong axis for 'graphs'
        with pytest.raises(SelectorError):
            experiment_grid("graphs", CI_PROFILE, selector=selector)

    def test_unknown_experiment(self):
        with pytest.raises(DriverError, match="unknown experiment"):
            experiment_grid("fig7", CI_PROFILE)


PRE_TABLE_PLAN_UNITS = {
    "ci": {
        "nodes": [221399.99999999997, 349920.0, 504360.0, 784620.0,
                  1123199.9999999998, 1817100.0, 2863620.0],
        "density": [523800.0000000001, 598320.0, 672840.0, 784620.0,
                    933659.9999999999, 1157220.0, 1455300.0],
        "labels": [784620.0] * 7,
        "graphs": [523079.99999999994, 1046159.9999999999,
                   2092319.9999999998, 4184639.9999999995],
        "real": [4541325.9474788, 320785.33253288997, 118088.92631455393,
                 293256.91707969183],
        "massive": [48405.0, 96789.0],
    },
    "paper": {
        "nodes": [489831625.0, 872395375.0, 1348724750.0, 1918819750.0,
                  2582680375.0, 3340306625.0, 4191698500.0, 6175779125.0,
                  8534922250.0, 14378396000.0, 21722119750.0, 30566093500.0,
                  52754791000.0, 80944488500.0, 115135186000.0,
                  155326883500.0, 201519581000.0, 253713278500.0,
                  311907976000.0],
        "density": [1803300500.0, 1922720400.0, 2042140300.0,
                    2161560200.0000005, 2280980100.0, 2400400000.0,
                    2997499500.0, 3594599000.0, 4191698500.0, 4788798000.0,
                    5385897500.000001, 5982997000.0, 6580096500.0,
                    7177196000.0, 8371395000.0, 9565594000.000002,
                    10759793000.0, 11953992000.0, 13148191000.0,
                    25090181000.0, 37032171000.0],
        "labels": [4191698500.0] * 8,
        "graphs": [4191698500.0, 10479246250.0, 20958492500.0, 31437738750.0,
                   41916985000.0, 104792462500.0, 209584925000.0,
                   419169850000.0],
        "real": [22329721000.0, 21485392302.0, 5659405077.0,
                 3816968455.3999996],
        "massive": [67125489.0, 268501233.0, 1074004209.0],
    },
}


class TestPlanCosts:
    def test_units_grow_with_graph_count(self):
        units = [plan_units("graphs", CI_PROFILE, x) for x in (40, 80, 320)]
        assert units == sorted(units)
        assert units[0] > 0.0

    def test_units_grow_with_nodes_and_density(self):
        assert plan_units("nodes", CI_PROFILE, 52) > plan_units(
            "nodes", CI_PROFILE, 10
        )
        assert plan_units("density", CI_PROFILE, 0.30) > plan_units(
            "density", CI_PROFILE, 0.05
        )

    @pytest.mark.parametrize("profile", [CI_PROFILE, PAPER_PROFILE, TINY_PROFILE])
    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_units_positive_and_monotone_along_numeric_axes(
        self, experiment, profile
    ):
        spec = EXPERIMENTS[experiment]
        units = [plan_units(experiment, profile, x) for x in spec.x_values(profile)]
        assert all(value > 0.0 for value in units)
        if not spec.table1:  # dataset names have no order
            assert units == sorted(units)

    @pytest.mark.parametrize("profile", [CI_PROFILE, PAPER_PROFILE])
    def test_units_are_the_values_planned_before_the_table(self, profile):
        """Literal ``plan_units`` of every (experiment, x) taken at the
        commit before ``EXPERIMENTS`` existed: reading the dataset shape
        off the config object must not re-price a single cell."""
        for experiment, expected in PRE_TABLE_PLAN_UNITS[profile.name].items():
            xs = EXPERIMENTS[experiment].x_values(profile)
            assert [plan_units(experiment, profile, x) for x in xs] == expected
        assert set(PRE_TABLE_PLAN_UNITS[profile.name]) == set(EXPERIMENTS)

    def test_real_datasets_priced_from_their_specs(self):
        # Prices follow the scaled Table 1 stand-in shapes: at CI scale
        # AIDS keeps 800 graphs while PPI shrinks to a handful, so the
        # planner must not treat the four datasets as interchangeable.
        units = {
            name: plan_units("real", CI_PROFILE, name)
            for name in CI_PROFILE.real_dataset_names
        }
        assert all(value > 0.0 for value in units.values())
        assert len(set(units.values())) == len(units)
        assert units["AIDS"] > units["PPI"]

    def test_plan_seconds_without_history_is_the_static_units(self):
        key = (40, "ggsx")
        assert plan_seconds("graphs", CI_PROFILE, key) == plan_units(
            "graphs", CI_PROFILE, 40
        )

    def test_plan_seconds_uses_exact_history_verbatim(self):
        key = (40, "ggsx")
        history = CostHistory([(key, "ggsx", 12.5, 999.0)])
        assert plan_seconds("graphs", CI_PROFILE, key, history) == 12.5

    def test_plan_seconds_prices_unrecorded_cells_at_method_rate(self):
        history = CostHistory([((40, "ggsx"), "ggsx", 10.0, 5.0)])  # 2 s/unit
        units = plan_units("graphs", CI_PROFILE, 80)
        assert plan_seconds(
            "graphs", CI_PROFILE, (80, "ggsx"), history
        ) == pytest.approx(2.0 * units)


# ----------------------------------------------------------------------
# partition properties (the ISSUE's test checklist)
# ----------------------------------------------------------------------


def _grid(n_x=4, methods=("naive", "ggsx")):
    return [(x, m) for x in range(1, n_x + 1) for m in methods]


class TestPartitions:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 11])
    @pytest.mark.parametrize("strategy", ["balanced", "stride"])
    def test_every_cell_lands_in_exactly_one_shard(self, count, strategy):
        keys = _grid()
        costs = [float(i + 1) for i in range(len(keys))]
        shards = assign_shards(keys, costs, count, strategy)
        assert len(shards) == count
        flat = [key for shard in shards for key in shard]
        assert sorted(flat) == sorted(keys)  # disjoint + covering
        assert len(set(flat)) == len(keys)

    def test_shards_keep_grid_order_internally(self):
        keys = _grid()
        costs = [1.0] * len(keys)
        for shard in assign_shards(keys, costs, 3, "balanced"):
            assert shard == sorted(shard, key=keys.index)

    def test_stride_matches_shardspec_take(self):
        from repro.core.sharding import ShardSpec

        keys = _grid()
        shards = assign_shards(keys, [1.0] * len(keys), 3, "stride")
        for i, shard in enumerate(shards, start=1):
            assert shard == ShardSpec(index=i, count=3).take(keys)

    def test_balanced_beats_stride_on_skewed_history(self):
        # Grid order interleaves methods, so stride 1/2 stacks BOTH
        # expensive cells ((1, slow) and (2, slow)) on one shard while
        # LPT splits them — the exact failure mode cost-balancing fixes.
        keys = [(1, "slow"), (1, "fast"), (2, "slow"), (2, "fast")]
        history = CostHistory(
            [
                ((1, "slow"), "slow", 100.0, 1.0),
                ((1, "fast"), "fast", 1.0, 1.0),
                ((2, "slow"), "slow", 90.0, 1.0),
                ((2, "fast"), "fast", 2.0, 1.0),
            ]
        )
        costs = {
            key: history.predict_seconds(key, key[1], 1.0) for key in keys
        }
        cost_list = [costs[key] for key in keys]
        balanced = assign_shards(keys, cost_list, 2, "balanced")
        stride = assign_shards(keys, cost_list, 2, "stride")

        def makespan(shards):
            return max(sum(costs[key] for key in shard) for shard in shards)

        assert makespan(balanced) <= makespan(stride)
        assert makespan(balanced) == 100.0  # the 100s cell runs alone
        assert makespan(stride) == 190.0  # both slow cells on shard 1

    def test_lpt_is_deterministic_on_ties(self):
        costs = [5.0, 5.0, 5.0, 5.0]
        assert balanced_partition(costs, 2) == balanced_partition(costs, 2)
        assert balanced_partition(costs, 2) == [[0, 2], [1, 3]]

    def test_more_shards_than_cells_leaves_empties(self):
        shards = balanced_partition([3.0, 1.0], 4)
        assert sorted(len(s) for s in shards) == [0, 0, 1, 1]
        assert stride_partition(2, 4)[2:] == [[], []]

    def test_history_measurably_changes_the_assignment(self):
        """The acceptance criterion: one run's recorded history changes
        the next launch's shard assignment, via CostHistory rates."""
        keys = _grid(2)  # (1, naive) (1, ggsx) (2, naive) (2, ggsx)
        # Static planning is method-blind: both methods of one x cost
        # the same, so LPT pairs each x's methods across shards.
        static = [1000.0, 1000.0, 1000.0, 1000.0]
        blind = assign_shards(keys, static, 2, "balanced")
        assert blind == [[(1, "naive"), (2, "naive")], [(1, "ggsx"), (2, "ggsx")]]
        # A completed run measured every cell: naive on x=1 is the
        # outlier the static model could not see.
        history = CostHistory(
            [(key, key[1], seconds, 1000.0)
             for key, seconds in zip(keys, (100.0, 1.0, 2.0, 3.0))]
        )
        calibrated = [
            history.predict_seconds(key, key[1], units)
            for key, units in zip(keys, static)
        ]
        assert calibrated == [100.0, 1.0, 2.0, 3.0]  # exact seconds back
        informed = assign_shards(keys, calibrated, 2, "balanced")
        assert blind != informed
        # The measured outlier gets a shard to itself.
        assert [(1, "naive")] in informed

    def test_mismatched_lengths_and_bad_strategy_fail(self):
        with pytest.raises(DriverError, match="cost estimates"):
            assign_shards([(1, "a")], [], 2)
        with pytest.raises(DriverError, match="unknown assignment strategy"):
            assign_shards([(1, "a")], [1.0], 2, "random")
        with pytest.raises(DriverError, match="at least 1 shard"):
            balanced_partition([1.0], 0)


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------


class TestExecutors:
    def test_registry_names(self):
        assert set(EXECUTORS) == {"local", "inprocess"}
        for name in EXECUTORS:
            assert make_executor(name).name == name

    def test_unknown_executor(self):
        with pytest.raises(DriverError, match="unknown executor"):
            make_executor("slurm")

    def test_concrete_executors_are_shard_executors(self):
        from repro.core.driver import ShardExecutor

        assert isinstance(LocalSubprocessExecutor(), ShardExecutor)
        assert isinstance(InProcessExecutor(), ShardExecutor)


# ----------------------------------------------------------------------
# driver run manifests
# ----------------------------------------------------------------------


def _run() -> DriverRun:
    return DriverRun(
        experiment="graphs",
        profile="ci",
        seed=7,
        x_name="number of graphs",
        x_values=[40, 80],
        methods=["naive", "ggsx"],
        selector={"method": ["naive", "ggsx"]},
        shards=2,
        strategy="balanced",
        jobs=2,
        assignment=[[(40, "naive"), (80, "ggsx")], [(40, "ggsx"), (80, "naive")]],
        estimated_seconds=[3.5, 3.25],
        merged_digest="abc123",
    )


class TestDriverRun:
    def test_round_trip(self):
        run = _run()
        again = driver_run_from_json(driver_run_to_json(run))
        assert again == run
        assert again.identity() == run.identity()

    def test_save_load(self, tmp_path):
        path = tmp_path / "out.driver.json"
        save_driver_run(_run(), path)
        assert load_driver_run(path) == _run()

    def test_identity_excludes_outcome_and_strategy(self):
        import dataclasses

        run = _run()
        relaunched = dataclasses.replace(
            run, merged_digest="", jobs=8, strategy="stride"
        )
        assert relaunched.identity() == run.identity()
        other_grid = dataclasses.replace(run, x_values=[40])
        assert other_grid.identity() != run.identity()

    def test_missing_file_and_garbage_are_loud(self, tmp_path):
        with pytest.raises(DriverError, match="not found"):
            load_driver_run(tmp_path / "nope.driver.json")
        bad = tmp_path / "bad.driver.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(DriverError, match="not valid JSON"):
            load_driver_run(bad)
        bad.write_text('{"schema": "something-else"}', encoding="utf-8")
        with pytest.raises(DriverError, match="not a repro-driver-run-v1"):
            load_driver_run(bad)
        bad.write_text(
            '{"schema": "repro-driver-run-v1", "experiment": "graphs"}',
            encoding="utf-8",
        )
        with pytest.raises(DriverError, match="malformed"):
            load_driver_run(bad)

    def test_paths_derive_from_the_json_output(self):
        assert driver_path_for("out/run.json").name == "run.driver.json"
        assert (
            shard_json_path("out/run.json", 2, 4).name == "run.shard2of4.json"
        )


# ----------------------------------------------------------------------
# cross-invocation history files
# ----------------------------------------------------------------------


def _manifest(cells):
    """A minimal manifest-like object for history appends."""
    from repro.core.experiments import SweepResult
    from repro.core.runner import MethodCell

    sweep = SweepResult(
        x_name="number of graphs",
        x_values=sorted({x for x, _ in cells}),
        methods=list(dict.fromkeys(m for _, m in cells)),
        query_sizes=(3,),
    )
    for (x, m), seconds in cells.items():
        cell = MethodCell(method=m, build_status="ok", build_seconds=seconds)
        sweep.cells[(x, m)] = cell
        sweep.cost_units[(x, m)] = 2.0
    return manifest_for(sweep, experiment="graphs", seed=0, profile="ci")


class TestHistoryFiles:
    def test_append_then_load_round_trip(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        manifest = _manifest({(40, "naive"): 1.0, (40, "ggsx"): 3.0})
        assert append_history(path, manifest, "graphs") == 2
        records = load_history_records(path, "graphs", "ci")
        assert [(r[0], r[1]) for r in records] == [
            ((40, "naive"), "naive"),
            ((40, "ggsx"), "ggsx"),
        ]
        history = load_history(path, "graphs", "ci")
        assert len(history) == 2
        # seconds/units rates: 1.0/2.0 and 3.0/2.0
        assert history.rate_for((40, "naive"), "naive") == pytest.approx(0.5)
        assert history.rate_for((40, "ggsx"), "ggsx") == pytest.approx(1.5)

    def test_keys_limit_restricts_the_append(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        manifest = _manifest({(40, "naive"): 1.0, (80, "naive"): 2.0})
        appended = append_history(
            path, manifest, "graphs", keys={(80, "naive")}
        )
        assert appended == 1
        [record] = load_history_records(path, "graphs", "ci")
        assert record[0] == (80, "naive")

    def test_foreign_experiment_and_profile_records_are_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_history(path, _manifest({(40, "naive"): 1.0}), "graphs")
        assert load_history_records(path, "nodes", "ci") == []
        assert load_history_records(path, "graphs", "paper") == []
        assert load_history(path, "nodes", "ci") is None

    def test_interleaved_writers_and_torn_lines_degrade_gracefully(
        self, tmp_path
    ):
        path = tmp_path / "runs.jsonl"
        append_history(path, _manifest({(40, "naive"): 1.0}), "graphs")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"schema": "other"}\n')
            handle.write('["a", "list"]\n')
            handle.write(
                json.dumps(
                    {
                        "schema": "repro-cost-history-v1",
                        "experiment": "graphs",
                        "profile": "ci",
                        "x": 80,
                        "method": "naive",
                        "seconds": "NaN-ish",
                        "units": {},
                    }
                )
                + "\n"
            )
            handle.write('{"schema": "repro-cost-history-v1"')  # torn
        assert len(load_history_records(path, "graphs", "ci")) == 1

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history_records(tmp_path / "none.jsonl", "graphs", "ci") == []
        assert load_history(tmp_path / "none.jsonl", "graphs", "ci") is None

    def test_later_records_win_on_exact_keys(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_history(path, _manifest({(40, "naive"): 1.0}), "graphs")
        append_history(path, _manifest({(40, "naive"): 9.0}), "graphs")
        history = load_history(path, "graphs", "ci")
        assert history.predict_seconds((40, "naive"), "naive", 2.0) == 9.0


# ----------------------------------------------------------------------
# the --cells assignment language (driver <-> sweep seam)
# ----------------------------------------------------------------------


class TestCellAssignment:
    X = [40, 80]
    METHODS = ["naive", "ggsx"]

    def test_spec_round_trip(self):
        keys = [(40, "ggsx"), (80, "naive")]
        assignment = CellAssignment.of(keys)
        assert assignment.spec() == "40:ggsx,80:naive"
        parsed = CellAssignment.parse([assignment.spec()])
        # resolve returns grid order (x outer, method inner)
        assert parsed.resolve(self.X, self.METHODS) == [
            (40, "ggsx"),
            (80, "naive"),
        ]

    def test_parse_dedupes_and_splits_commas(self):
        parsed = CellAssignment.parse(["40:naive,40:naive", "80:ggsx"])
        assert parsed.entries == (("40", "naive"), ("80", "ggsx"))

    def test_malformed_entries_fail(self):
        for bad in (["40"], [":naive"], ["40:"]):
            with pytest.raises(SelectorError, match="X:METHOD"):
                CellAssignment.parse(bad)
        with pytest.raises(SelectorError, match="selects nothing"):
            CellAssignment.parse([" , "])

    def test_unknown_x_and_method_fail_loudly(self):
        with pytest.raises(SelectorError, match="matches no x value"):
            CellAssignment.parse(["99:naive"]).resolve(
                self.X, self.METHODS, "number of graphs"
            )
        with pytest.raises(SelectorError, match="not in this sweep's roster"):
            CellAssignment.parse(["40:vf9"]).resolve(
                self.X, self.METHODS, "number of graphs"
            )

    def test_float_x_values_resolve_by_str(self):
        assignment = CellAssignment.of([(0.12, "naive")])
        assert assignment.resolve([0.05, 0.12], ["naive"]) == [(0.12, "naive")]


class FakeLog:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class FakeProcess:
    """A subprocess double: scripted wait behavior, recorded signals."""

    def __init__(self, code=0, wait_raises=None, ignores_terminate=False):
        self.code = code
        self.wait_raises = wait_raises
        self.ignores_terminate = ignores_terminate
        self.terminated = False
        self.killed = False

    def terminate(self):
        self.terminated = True

    def kill(self):
        self.killed = True

    def wait(self, timeout=None):
        if self.wait_raises is not None:
            raised, self.wait_raises = self.wait_raises, None
            raise raised
        if timeout is not None and self.ignores_terminate and not self.killed:
            import subprocess

            raise subprocess.TimeoutExpired(cmd="fake", timeout=timeout)
        return self.code


class TestStopProcesses:
    """The terminate -> wait(grace) -> kill escalation (this PR's
    executor interruption fix)."""

    def test_cooperative_children_are_terminated_not_killed(self):
        from repro.core.driver import _stop_processes

        pairs = [(FakeProcess(), FakeLog()) for _ in range(3)]
        _stop_processes(pairs, grace=0.1)
        for process, log in pairs:
            assert process.terminated and not process.killed
            assert log.closed

    def test_stubborn_children_are_killed(self):
        from repro.core.driver import _stop_processes

        stubborn = FakeProcess(ignores_terminate=True)
        gentle = FakeProcess()
        pairs = [(stubborn, FakeLog()), (gentle, FakeLog())]
        _stop_processes(pairs, grace=0.01)
        assert stubborn.terminated and stubborn.killed
        assert gentle.terminated and not gentle.killed
        assert all(log.closed for _, log in pairs)

    def test_already_reaped_children_never_raise(self):
        from repro.core.driver import _stop_processes

        dead = FakeProcess(wait_raises=OSError("No child processes"))
        dead.terminate = lambda: (_ for _ in ()).throw(OSError("gone"))
        log = FakeLog()
        _stop_processes([(dead, log)], grace=0.01)
        assert log.closed

    def test_interrupt_mid_wait_stops_remaining_shards(self):
        """Ctrl-C while waiting on shard 1 must terminate shards 1..n,
        not orphan them; shard 0's completed code is simply dropped
        with the raised interrupt."""
        executor = LocalSubprocessExecutor()
        executor.stop_grace = 0.01
        done = FakeProcess(code=0)
        interrupted = FakeProcess(wait_raises=KeyboardInterrupt())
        orphan_risk = FakeProcess(ignores_terminate=True)
        pairs = [
            (done, FakeLog()),
            (interrupted, FakeLog()),
            (orphan_risk, FakeLog()),
        ]
        with pytest.raises(KeyboardInterrupt):
            executor._await(pairs)
        assert not done.terminated  # it had already exited
        assert interrupted.terminated
        assert orphan_risk.terminated and orphan_risk.killed
        assert all(log.closed for _, log in pairs)

    def test_clean_waits_return_codes_in_order(self):
        executor = LocalSubprocessExecutor()
        pairs = [(FakeProcess(code=i), FakeLog()) for i in range(3)]
        assert executor._await(pairs) == [0, 1, 2]
        assert all(log.closed for _, log in pairs)

    def test_sigterm_masking_child_is_killed_for_real(self, tmp_path):
        """Integration: a real child that traps SIGTERM is gone after
        _stop_processes, via the SIGKILL escalation."""
        import subprocess
        import sys

        from repro.core.driver import _stop_processes

        process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import signal, time\n"
                "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
                "print('up', flush=True)\n"
                "time.sleep(60)\n",
            ],
            stdout=subprocess.PIPE,
        )
        assert process.stdout.readline().strip() == b"up"
        log = FakeLog()
        _stop_processes([(process, log)], grace=0.2)
        assert process.poll() is not None
        assert log.closed
        process.stdout.close()
