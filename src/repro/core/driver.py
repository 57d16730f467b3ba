"""Sweep orchestration driver: plan, launch, and merge sharded sweeps.

PR 3/4 made the figure grid shardable (``--shard``, canonical shard
manifests, byte-identical ``repro merge``, a content-addressed index
store) — but a human still hand-launched every ``--shard i/n``
invocation and stitched the pieces.  The scalability literature this
reproduction leans on (Sun et al.'s billion-node matching, Das et al.'s
large-graph query processing) is explicit that partitionability is only
half the story: throughput comes from an *orchestration layer* that
balances and coordinates the partitions.  This module is that layer:

* **Planning without datasets** — :func:`experiment_grid` reads a
  sweep's full (x values × methods) grid from the experiment table
  (:data:`repro.core.experiments.EXPERIMENTS`) and the scale profile,
  and :func:`plan_units` prices each cell with the same dataset-size ×
  query-work shape :func:`repro.core.scheduling.estimate_cost` uses,
  computed from the *config object* the runner would generate from
  instead of a generated dataset — so a launch plans a paper-scale
  sweep in microseconds.
* **Cost-balanced assignment** — :func:`balanced_partition` runs greedy
  longest-processing-time over per-cell estimated seconds
  (:func:`plan_seconds`: measured seconds from a
  :class:`~repro.core.scheduling.CostHistory` where evidence exists,
  static units otherwise), replacing the stride partition's blind
  round-robin.  :func:`stride_partition` remains available (and
  digest-equivalent) for comparison and reproducibility of old runs.
* **Pluggable executors** — :class:`ShardExecutor` is the seam between
  planning and infrastructure.  :class:`LocalSubprocessExecutor` runs
  shards as concurrent ``python -m repro sweep --cells ...``
  subprocesses; :class:`InProcessExecutor` runs them sequentially in
  the calling process (tests, debugging).  A fleet backend is one more
  subclass (contract: ``docs/architecture.md``, Layer 5).
* **Driver run manifests** — :class:`DriverRun` records the planned
  assignment, grid identity, and (after merge) the merged digest in a
  ``<out>.driver.json`` file, so ``repro launch --resume`` reuses the
  *recorded* assignment (new history must not shuffle cells mid-run),
  skips shards whose manifests are complete, and verifies the merged
  digest against the recorded one.
* **Cross-invocation history files** — :func:`append_history` /
  :func:`load_history` persist measured per-cell seconds as JSONL
  (``--history runs.jsonl``), so *any* later invocation calibrates its
  cost model from every run that came before it, without ``--resume``.

The load-bearing invariant: balanced assignment changes *which* cells
land in which shard, never a result byte — the merged sweep's canonical
JSON is byte-identical to the unsharded (and stride-sharded) run's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections.abc import Sequence
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.experiments import EXPERIMENTS, Experiment
from repro.core.presets import ScaleProfile
from repro.core.scheduling import CostHistory
from repro.core.sharding import CellSelector

__all__ = [
    "DRIVER_SCHEMA",
    "HISTORY_SCHEMA",
    "DriverError",
    "DriverRun",
    "EXECUTORS",
    "InProcessExecutor",
    "LocalSubprocessExecutor",
    "ShardCommand",
    "ShardExecutor",
    "append_history",
    "assign_shards",
    "balanced_partition",
    "driver_path_for",
    "driver_run_from_json",
    "driver_run_to_json",
    "experiment_grid",
    "load_driver_run",
    "load_history",
    "load_history_records",
    "make_executor",
    "plan_seconds",
    "plan_units",
    "save_driver_run",
    "shard_json_path",
    "stride_partition",
]

DRIVER_SCHEMA = "repro-driver-run-v1"
HISTORY_SCHEMA = "repro-cost-history-v1"


class DriverError(ValueError):
    """A launch that cannot be planned, executed, resumed, or merged."""


# ----------------------------------------------------------------------
# planning: the grid and its estimated costs, without any dataset
# ----------------------------------------------------------------------


def _experiment(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise DriverError(f"unknown experiment {name!r}; expected one of {known}")


def experiment_grid(
    experiment: str,
    profile: ScaleProfile,
    methods: Sequence[str] | None = None,
    selector: CellSelector | None = None,
) -> tuple[str, list, list[str]]:
    """The ``(x_name, x values, methods)`` a launch covers.

    Read from the same :data:`~repro.core.experiments.EXPERIMENTS`
    record :func:`~repro.core.experiments.run_experiment` executes —
    same profile values, same roster, same selector narrowing — so the
    driver can partition cells before a single dataset exists.
    """
    spec = _experiment(experiment)
    x_values = spec.x_values(profile)
    method_names = list(methods) if methods else spec.roster(profile)
    if selector is not None:
        x_values, method_names = selector.narrow(
            x_values, method_names, spec.x_name
        )
    return spec.x_name, x_values, method_names


def plan_units(experiment: str, profile: ScaleProfile, x: object) -> float:
    """Static planning cost of one cell, in ``estimate_cost`` units.

    The runtime estimator prices a cell as dataset weight × (1 + query
    work) from the generated dataset; the planner computes the same
    product from the *expected* shape of the config object the runner
    would generate from, and the query sizes/count it would draw —
    close enough for load balancing, and free.  Deliberately
    method-blind like the runtime estimate; history calibration
    (:func:`plan_seconds`) is what un-blinds it.
    """
    spec = _experiment(experiment)
    num_graphs, nodes, edges = spec.expected_shape(profile, x)
    weight = num_graphs * (1.0 + nodes + edges)
    sizes, queries_per_size = spec.query_grid(profile)
    query_work = float(sum(size * queries_per_size for size in sizes))
    return weight * (1.0 + query_work)


def plan_seconds(
    experiment: str,
    profile: ScaleProfile,
    key: tuple,
    history: CostHistory | None = None,
) -> float:
    """Estimated cost of one ``(x, method)`` cell for shard balancing.

    With *history*, a recorded cell returns its measured seconds and an
    unrecorded one the method's (or global) seconds-per-unit rate times
    the static units; with no usable history the static units pass
    through unchanged.  Either way every cell of one plan is priced in
    the same currency, which is all a partition needs.
    """
    x, method = key
    units = plan_units(experiment, profile, x)
    if history is not None:
        predicted = history.predict_seconds(key, method, units)
        if predicted is not None:
            return predicted
    return units


# ----------------------------------------------------------------------
# partitions: cost-balanced (LPT) and stride
# ----------------------------------------------------------------------


def balanced_partition(costs: Sequence[float], count: int) -> list[list[int]]:
    """Greedy longest-processing-time partition of ``len(costs)`` items.

    Items are taken in descending cost (ties broken by index, so the
    partition is deterministic) and each lands on the currently
    lightest shard (ties broken by shard index).  LPT's makespan is
    within 4/3 of optimal — and, unlike stride, it cannot stack several
    known-expensive cells on one shard.  Each shard's indices come back
    sorted, so cells keep grid order within their shard.
    """
    if count < 1:
        raise DriverError(f"a partition needs at least 1 shard, got {count}")
    shards: list[list[int]] = [[] for _ in range(count)]
    loads = [0.0] * count
    for index in sorted(range(len(costs)), key=lambda i: (-costs[i], i)):
        lightest = min(range(count), key=lambda j: (loads[j], j))
        shards[lightest].append(index)
        loads[lightest] += costs[index]
    return [sorted(shard) for shard in shards]


def stride_partition(total: int, count: int) -> list[list[int]]:
    """The ``--shard i/n`` stride partition, as index lists."""
    if count < 1:
        raise DriverError(f"a partition needs at least 1 shard, got {count}")
    return [list(range(start, total, count)) for start in range(count)]


def assign_shards(
    keys: Sequence[tuple],
    costs: Sequence[float],
    count: int,
    strategy: str = "balanced",
) -> list[list[tuple]]:
    """Partition grid *keys* into ``count`` shards' cell lists.

    ``strategy`` is ``"balanced"`` (LPT over *costs*) or ``"stride"``
    (the cost-blind ``--shard`` partition).  Shards may come back empty
    when ``count`` exceeds the cell count; callers skip launching
    those.  Every key appears in exactly one shard either way — the
    property the partition tests pin.
    """
    if len(keys) != len(costs):
        raise DriverError(
            f"got {len(keys)} cells but {len(costs)} cost estimates"
        )
    if strategy == "balanced":
        parts = balanced_partition(costs, count)
    elif strategy == "stride":
        parts = stride_partition(len(keys), count)
    else:
        raise DriverError(
            f"unknown assignment strategy {strategy!r}; "
            "expected 'balanced' or 'stride'"
        )
    return [[keys[i] for i in part] for part in parts]


def shard_load(cells: Sequence[tuple], costs_by_key: dict) -> float:
    """Total estimated seconds of one shard's cell list."""
    return float(sum(costs_by_key[key] for key in cells))


# ----------------------------------------------------------------------
# executors: how planned shard commands actually run
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardCommand:
    """One shard's planned CLI invocation.

    ``cli_args`` is everything after the program name (``repro``), so
    each executor decides how to wrap it — ``sys.executable -m repro``
    locally, ``ssh host repro ...`` on a fleet.
    """

    shard_index: int
    cli_args: tuple[str, ...]
    #: Where the shard's stdout/stderr land (tail shown on failure).
    log_path: Path


class ShardExecutor:
    """Interface between the driver's plan and an execution substrate.

    Implementations run every :class:`ShardCommand` to completion and
    return the per-command exit codes, in command order.  Executors own
    concurrency (the local executor runs all shards at once; a fleet
    executor would schedule against its cluster); the driver only
    observes exit codes and the shard manifests the sweeps leave
    behind, so any substrate that runs ``repro sweep`` and shares a
    filesystem (or copies manifests back) can plug in.
    """

    #: Registry key and ``--executor`` value.
    name = "abstract"

    def run(self, commands: Sequence[ShardCommand]) -> list[int]:
        raise NotImplementedError


#: Grace period between ``terminate()`` and the ``kill()`` escalation
#: when stopping shard subprocesses (seconds).
_STOP_GRACE_SECONDS = 5.0


def _stop_processes(running: Sequence[tuple], grace: float = _STOP_GRACE_SECONDS) -> None:
    """Stop every ``(process, log)`` pair, escalating to SIGKILL.

    ``terminate()`` first (SIGTERM: shards flush their manifests and
    exit), then ``wait(grace)``, then ``kill()`` for anything still
    alive — a shard wedged in uninterruptible work (or masking SIGTERM)
    must not hang the driver forever on a bare ``wait()``.  Logs are
    closed last so a dying shard's final output still lands.  Never
    raises: teardown runs from exception paths.
    """
    for process, _ in running:
        try:
            process.terminate()
        except OSError:  # pragma: no cover - already reaped
            pass
    for process, log in running:
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        except OSError:  # pragma: no cover - already reaped
            pass
        log.close()


class LocalSubprocessExecutor(ShardExecutor):
    """Run every shard as a concurrent local subprocess.

    Shards are started together and waited on in order — the grid is
    embarrassingly parallel, so no inter-shard scheduling is needed
    beyond the cost-balanced assignment itself.  ``PYTHONPATH`` is
    extended with this process's ``repro`` package location so the
    children resolve the same code regardless of how the parent was
    launched (installed, ``PYTHONPATH=src``, or a pytest run).

    Interruption contract: a ``KeyboardInterrupt`` (Ctrl-C) or any
    other exception raised while waiting stops every running shard —
    ``terminate()``, a bounded ``wait``, then ``kill()`` — instead of
    orphaning them; completed shards keep their manifests, so the
    launch resumes with ``--resume``.
    """

    name = "local"

    #: Seconds a terminated shard gets to flush and exit before SIGKILL.
    stop_grace = _STOP_GRACE_SECONDS

    def run(self, commands: Sequence[ShardCommand]) -> list[int]:
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        running: list[tuple] = []
        try:
            for command in commands:
                log = open(command.log_path, "w", encoding="utf-8")
                try:
                    process = subprocess.Popen(
                        [sys.executable, "-m", "repro", *command.cli_args],
                        stdout=log,
                        stderr=subprocess.STDOUT,
                        env=env,
                    )
                except OSError:
                    log.close()
                    raise
                running.append((process, log))
        except OSError as exc:
            # A mid-loop failure (unwritable log, fork refusal) must not
            # orphan the shards already started: stop them, close their
            # logs, and fail as a driver error — completed shards from
            # earlier launches keep their manifests, so --resume works.
            _stop_processes(running, grace=self.stop_grace)
            raise DriverError(
                f"could not start every shard subprocess: {exc}; "
                "no shards left running — rerun with --resume"
            )
        return self._await(running)

    def _await(self, running: Sequence[tuple]) -> list[int]:
        """Wait for every ``(process, log)`` pair, in order.

        On ``KeyboardInterrupt`` — or any exception out of the wait
        loop — every still-running shard is stopped (with kill
        escalation) before the exception propagates: Ctrl-C on the
        driver must never leave orphaned shard sweeps burning CPU
        behind a dead parent.
        """
        codes = []
        try:
            for process, log in running:
                codes.append(process.wait())
                log.close()
        except BaseException:
            _stop_processes(running[len(codes):], grace=self.stop_grace)
            raise
        return codes


class InProcessExecutor(ShardExecutor):
    """Run shards sequentially via :func:`repro.cli.main.main`.

    No subprocesses, no concurrency: the debugging (and test) executor,
    where monkeypatched profiles and coverage instrumentation apply to
    the shard sweeps too.  Output still lands in the per-shard log
    files, exactly like the local executor's.
    """

    name = "inprocess"

    def run(self, commands: Sequence[ShardCommand]) -> list[int]:
        from repro.cli.main import main

        codes = []
        for command in commands:
            with open(command.log_path, "w", encoding="utf-8") as log:
                with redirect_stdout(log), redirect_stderr(log):
                    codes.append(main(list(command.cli_args)))
        return codes


EXECUTORS: dict[str, type[ShardExecutor]] = {
    cls.name: cls
    for cls in (LocalSubprocessExecutor, InProcessExecutor)
}


def make_executor(name: str) -> ShardExecutor:
    """Instantiate a registered executor by ``--executor`` name."""
    try:
        return EXECUTORS[name]()
    except KeyError:
        known = ", ".join(EXECUTORS)
        raise DriverError(f"unknown executor {name!r}; expected one of {known}")


# ----------------------------------------------------------------------
# the driver run manifest: what --resume resumes
# ----------------------------------------------------------------------


@dataclass
class DriverRun:
    """Canonical record of one launch: identity, plan, and outcome.

    Saved *before* shards start (so a crashed launch resumes with the
    same assignment even if the cost history has since changed) and
    updated with the merged digest afterwards (so a resumed launch can
    verify it reassembled the same bytes)."""

    experiment: str
    profile: str
    seed: int
    x_name: str
    x_values: list
    methods: list[str]
    selector: dict[str, list[str]]
    shards: int
    strategy: str
    jobs: int
    #: Per shard (1-based order): the assigned grid keys.
    assignment: list[list[tuple]] = field(default_factory=list)
    #: Per shard: the plan-time estimated seconds of its cell list.
    estimated_seconds: list[float] = field(default_factory=list)
    #: ``sweep_digest`` of the merged result ("" until merged once).
    merged_digest: str = ""

    def identity(self) -> tuple:
        """What a ``--resume`` launch must agree with."""
        return (
            self.experiment,
            self.profile,
            self.seed,
            self.x_name,
            tuple(self.x_values),
            tuple(self.methods),
            tuple((k, tuple(v)) for k, v in sorted(self.selector.items())),
            self.shards,
        )


def driver_run_to_json(run: DriverRun) -> str:
    document = {
        "schema": DRIVER_SCHEMA,
        "experiment": run.experiment,
        "profile": run.profile,
        "seed": run.seed,
        "x_name": run.x_name,
        "x_values": run.x_values,
        "methods": run.methods,
        "selector": {k: run.selector[k] for k in sorted(run.selector)},
        "shards": run.shards,
        "strategy": run.strategy,
        "jobs": run.jobs,
        "assignment": [
            [[x, method] for x, method in cells] for cells in run.assignment
        ],
        "estimated_seconds": run.estimated_seconds,
        "merged_digest": run.merged_digest,
    }
    return json.dumps(document, indent=2, sort_keys=False)


def driver_run_from_json(text: str) -> DriverRun:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DriverError(f"not valid JSON: {exc}")
    if not isinstance(document, dict) or document.get("schema") != DRIVER_SCHEMA:
        raise DriverError(f"not a {DRIVER_SCHEMA} document")
    try:
        return DriverRun(
            experiment=document["experiment"],
            profile=document.get("profile", ""),
            seed=document["seed"],
            x_name=document["x_name"],
            x_values=document["x_values"],
            methods=document["methods"],
            selector={
                k: list(v) for k, v in document.get("selector", {}).items()
            },
            shards=document["shards"],
            strategy=document.get("strategy", "balanced"),
            jobs=document.get("jobs", 1),
            assignment=[
                [(entry[0], entry[1]) for entry in cells]
                for cells in document.get("assignment", [])
            ],
            estimated_seconds=list(document.get("estimated_seconds", [])),
            merged_digest=document.get("merged_digest", ""),
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise DriverError(
            f"malformed {DRIVER_SCHEMA} document: {type(exc).__name__}: {exc}"
        )


def save_driver_run(run: DriverRun, path: str | Path) -> None:
    Path(path).write_text(driver_run_to_json(run), encoding="utf-8")


def load_driver_run(path: str | Path) -> DriverRun:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DriverError(f"driver run manifest not found: {path}")
    try:
        return driver_run_from_json(text)
    except DriverError as exc:
        raise DriverError(f"{path}: {exc}")


def driver_path_for(json_path: str | Path) -> Path:
    """Where a launch's driver run manifest lives: beside its ``--json``
    output (``out.json`` -> ``out.driver.json``)."""
    path = Path(json_path)
    return path.with_name(f"{path.stem}.driver.json")


def shard_json_path(json_path: str | Path, index: int, count: int) -> Path:
    """Where shard *index* of *count* writes its sweep JSON (its
    manifest then lands beside it, per :func:`manifest_path_for`)."""
    path = Path(json_path)
    return path.with_name(f"{path.stem}.shard{index}of{count}{path.suffix or '.json'}")


# ----------------------------------------------------------------------
# cross-invocation history files (--history runs.jsonl)
# ----------------------------------------------------------------------


def append_history(
    path: str | Path,
    manifest,
    experiment: str,
    keys: "set[tuple] | None" = None,
) -> int:
    """Append one JSONL cost record per completed manifest cell.

    *keys*, when given, limits the append to those grid keys — the
    cells an invocation actually executed, so resumed/restored cells
    are not re-logged on every resume.  Returns the record count.
    The file is append-only and line-oriented on purpose: concurrent
    shards, crashed runs, and multiple experiments can all share one
    file, and the loader simply skips what it cannot use.
    """
    lines = []
    for entry in manifest.cells:
        if keys is not None and entry.key not in keys:
            continue
        lines.append(
            json.dumps(
                {
                    "schema": HISTORY_SCHEMA,
                    "experiment": experiment,
                    "profile": manifest.profile,
                    "seed": manifest.seed,
                    "x": entry.x,
                    "method": entry.method,
                    "seconds": entry.seconds,
                    "units": entry.cost_units,
                },
                sort_keys=True,
            )
        )
    if lines:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return len(lines)


def load_history_records(
    path: str | Path, experiment: str, profile: str
) -> list[tuple]:
    """Cost records from a history file matching *experiment*/*profile*.

    Only same-experiment, same-profile records are usable: a CI-scale
    cell's seconds say nothing about a ``REPRO_SCALE=paper`` cell, and
    x values collide across experiments (``nodes=40`` vs ``graphs=40``).
    Malformed or foreign lines are skipped, not fatal — a shared
    append-only file may interleave writers or tear a final line.
    Returns ``(key, method, seconds, units)`` tuples in file order
    (later records win on exact keys inside :class:`CostHistory`).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    records: list[tuple] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            document = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(document, dict):
            continue
        if document.get("schema") != HISTORY_SCHEMA:
            continue
        if (
            document.get("experiment") != experiment
            or document.get("profile") != profile
        ):
            continue
        try:
            records.append(
                (
                    (document["x"], document["method"]),
                    document["method"],
                    float(document["seconds"]),
                    float(document["units"]),
                )
            )
        except (KeyError, TypeError, ValueError):
            continue
    return records


def load_history(
    path: str | Path, experiment: str, profile: str
) -> CostHistory | None:
    """A :class:`CostHistory` from a history file (``None`` when the
    file holds nothing usable for this experiment/profile)."""
    records = load_history_records(path, experiment, profile)
    return CostHistory(records) if records else None
