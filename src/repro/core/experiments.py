"""The paper's experiments as parameter sweeps (Figures 1–6, Table 1).

§4.2's methodology is one procedure: vary exactly one of the key
parameters — number of nodes (Fig. 2), density (Figs. 3–4), distinct
labels (Fig. 5), number of graphs (Fig. 6), the real-dataset stand-in
(Fig. 1, Table 1), the R-MAT scale of the massive regime — hold the
others at the profile's "sane defaults", and measure every (x value ×
method) cell the same way.  :data:`EXPERIMENTS` states what each
experiment *is* (one :class:`Experiment` record apiece);
:func:`run_experiment` is the one procedure.

A sweep returns a :class:`SweepResult` holding one
:class:`~repro.core.runner.MethodCell` per (x value, method); accessor
methods project it onto each sub-figure's series, with ``None`` marking
the missing data points the paper draws as truncated curves.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace
from functools import partial

from repro.core.arena import ArenaHandle, DatasetArena
from repro.core.parallel import ParallelRunner
from repro.core.presets import ScaleProfile, active_profile
from repro.core.runner import CellTask, MethodCell, run_cell
from repro.core.scheduling import (
    QueryBatch,
    estimate_batch_cost,
    estimate_cost,
    longest_first,
    merge_batches,
    propagate_build_failure,
    run_batch,
    split_cell,
)
from repro.graphs.dataset import dataset_fingerprint
from repro.generators.graphgen import GraphGenConfig, generate_dataset
from repro.generators.queries import generate_queries
from repro.generators.realsets import (
    REAL_DATASET_SPECS,
    RealDatasetSpec,
    make_real_dataset,
)
from repro.generators.rmat import RMATConfig, generate_massive_dataset
from repro.graphs.dataset import GraphDataset
from repro.graphs.statistics import dataset_statistics
from repro.indexes.base import SINGLE_GRAPH, TRANSACTIONAL

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "SweepResult",
    "run_experiment",
    "nodes_sweep",
    "density_sweep",
    "labels_sweep",
    "graph_count_sweep",
    "massive_sweep",
    "real_dataset_experiment",
]

ProgressHook = Callable[[str], None]


@dataclass(slots=True)
class SweepResult:
    """All measurements of one sweep."""

    #: Human name of the varied parameter (figure x-axis label).
    x_name: str
    #: The x values actually swept (ints, floats, or dataset names).
    x_values: list
    #: Methods evaluated, in presentation order.
    methods: list[str]
    #: (x value, method) -> measurement cell.
    cells: dict[tuple, MethodCell] = field(default_factory=dict)
    #: Per-x-value dataset statistics (Table 1 for the real experiment).
    dataset_stats: dict = field(default_factory=dict)
    #: Query sizes used in the workloads.
    query_sizes: tuple[int, ...] = ()
    #: (x value, method) -> static :func:`~repro.core.scheduling
    #: .estimate_cost` units assigned when the cell ran.  Execution
    #: metadata for shard manifests and the cost-model feedback loop —
    #: never serialized into the sweep JSON, so it cannot perturb
    #: canonical byte-identity.
    cost_units: dict[tuple, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # index-store provenance (execution metadata, like cost_units)
    # ------------------------------------------------------------------

    def reused_builds(self) -> int:
        """Cells whose index build was served by the artifact store."""
        return sum(
            1 for cell in self.cells.values() if cell.provenance.get("reused")
        )

    def resumed_cells(self) -> int:
        """Cells restored whole from a ``--resume`` manifest — they ran
        nothing this invocation, so they are neither fresh nor reused."""
        return sum(
            1 for cell in self.cells.values() if cell.provenance.get("resumed")
        )

    def fresh_builds(self) -> int:
        """Cells that built (or failed to build) an index themselves."""
        return len(self.cells) - self.reused_builds() - self.resumed_cells()

    def duplicate_builds(self) -> int:
        """Builds beyond the first that a batched cell's batches ran
        between them — 0 when every index was built (at most) once."""
        return sum(
            max(0, cell.provenance.get("fresh_batches", 0) - 1)
            for cell in self.cells.values()
        )

    # ------------------------------------------------------------------
    # figure projections: method -> [(x, value-or-None)]
    # ------------------------------------------------------------------

    def series(self, extract: Callable[[MethodCell], float | None]) -> dict[str, list]:
        out: dict[str, list] = {}
        for method in self.methods:
            points = []
            for x in self.x_values:
                cell = self.cells.get((x, method))
                points.append((x, None if cell is None else extract(cell)))
            out[method] = points
        return out

    def indexing_time(self) -> dict[str, list]:
        """Sub-figure (a): index construction seconds."""
        return self.series(lambda cell: cell.build_seconds)

    def index_size_mb(self) -> dict[str, list]:
        """Sub-figure (b): index size in MB."""
        return self.series(
            lambda cell: None
            if cell.index_bytes is None
            else cell.index_bytes / (1024.0 * 1024.0)
        )

    def query_time(self) -> dict[str, list]:
        """Sub-figure (c): average query seconds over all sizes."""
        return self.series(MethodCell.query_seconds)

    def fp_ratio(self) -> dict[str, list]:
        """Sub-figure (d): average false positive ratio (Eq. 3)."""
        return self.series(MethodCell.fp_ratio)

    def query_time_for_size(self, size: int) -> dict[str, list]:
        """Figure 4 panels: query seconds for one query size."""
        return self.series(lambda cell: cell.query_seconds_for(size))


# ----------------------------------------------------------------------
# the experiment table (Figures 1-6, Table 1, the massive regime)
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Experiment:
    """One paper experiment: the parameter it varies and how an x value
    becomes a dataset.  Everything else that differs between experiments
    — default roster, query sizes and count — follows from ``regime``."""

    #: ``repro sweep`` / ``repro launch`` name.
    name: str
    #: Paper figure number the sweep renders as.
    figure: str
    #: Human name of the varied parameter (figure x-axis label).
    x_name: str
    #: The ``--only`` selector key addressing the axis (besides ``x``).
    axis_key: str
    #: :class:`ScaleProfile` attribute holding the default x values.
    values_attr: str
    #: ``(profile, x) -> dataset config`` — a :class:`GraphGenConfig`,
    #: :class:`RMATConfig` or a real-dataset stand-in; the driver prices
    #: a cell from this same object before any dataset exists.
    config_for: Callable[[ScaleProfile, object], object]
    #: ``(config, seed) -> GraphDataset``.
    generate: Callable[[object, int], GraphDataset]
    #: Query answer form (:data:`repro.indexes.base.REGIMES`).
    regime: str = TRANSACTIONAL
    #: The x values are dataset names: statistics rows are named after
    #: them and the sweep renders Table 1 instead of line plots.
    table1: bool = False

    def x_values(self, profile: ScaleProfile) -> list:
        return list(getattr(profile, self.values_attr))

    def roster(self, profile: ScaleProfile) -> list[str]:
        """Default methods: the massive regime has its own (the methods
        with single-graph filtering worth measuring)."""
        if self.regime == SINGLE_GRAPH:
            return list(profile.massive_methods)
        return list(profile.method_names())

    def query_grid(self, profile: ScaleProfile) -> tuple[tuple[int, ...], int]:
        """``(query sizes, queries per size)`` of every cell's workloads."""
        if self.regime == SINGLE_GRAPH:
            return tuple(profile.massive_query_sizes), profile.massive_queries_per_size
        return tuple(profile.query_sizes), profile.queries_per_size

    def expected_shape(
        self, profile: ScaleProfile, x: object
    ) -> tuple[float, float, float]:
        """Expected ``(graphs, nodes per graph, edges per graph)`` of
        the dataset :attr:`generate` would produce for *x*, read off the
        config object — what the driver prices a cell from."""
        config = self.config_for(profile, x)
        if isinstance(config, GraphGenConfig):
            nodes = float(config.mean_nodes)
            edges = float(config.mean_density) * nodes * (nodes - 1.0) / 2.0
            return float(config.num_graphs), nodes, edges
        if isinstance(config, RMATConfig):
            # One graph of 2**scale vertices, edge_factor draws each.
            return 1.0, float(config.num_vertices), float(config.num_edge_draws)
        spec = config.spec  # a real-dataset stand-in's scaled Table 1 row
        return (
            float(spec.num_graphs),
            spec.avg_nodes,
            spec.avg_nodes * spec.avg_degree / 2.0,
        )


@dataclass(frozen=True, slots=True)
class _RealStandIn:
    """Dataset config of the real experiment: a Table 1 stand-in by
    name, at the profile's scale."""

    name: str
    scale: float

    @property
    def spec(self) -> RealDatasetSpec:
        return REAL_DATASET_SPECS[self.name.upper()].scaled(self.scale)


def _sane_defaults_but(varied: str) -> Callable[[ScaleProfile, object], GraphGenConfig]:
    """§4.2's methodology: the profile's "sane defaults" with exactly
    one :class:`GraphGenConfig` field set to the x value."""

    def config_for(profile: ScaleProfile, x: object) -> GraphGenConfig:
        defaults = {
            "num_graphs": profile.default_num_graphs,
            "mean_nodes": profile.default_nodes,
            "mean_density": profile.default_density,
            "num_labels": profile.default_labels,
        }
        return GraphGenConfig(**{**defaults, varied: x})

    return config_for


#: Every experiment ``repro sweep`` knows, by name — the one definition
#: the runner, the driver's planner, the selector language and the CLI
#: all read.
EXPERIMENTS: dict[str, Experiment] = {
    experiment.name: experiment
    for experiment in (
        Experiment(
            name="nodes", figure="2", x_name="number of nodes",
            axis_key="nodes", values_attr="nodes_values",
            config_for=_sane_defaults_but("mean_nodes"),
            generate=generate_dataset,
        ),
        Experiment(
            name="density", figure="3", x_name="density",
            axis_key="density", values_attr="density_values",
            config_for=_sane_defaults_but("mean_density"),
            generate=generate_dataset,
        ),
        Experiment(
            name="labels", figure="5", x_name="labels",
            axis_key="labels", values_attr="label_values",
            config_for=_sane_defaults_but("num_labels"),
            generate=generate_dataset,
        ),
        Experiment(
            name="graphs", figure="6", x_name="number of graphs",
            axis_key="graphs", values_attr="graph_count_values",
            config_for=_sane_defaults_but("num_graphs"),
            generate=generate_dataset,
        ),
        Experiment(
            name="real", figure="1", x_name="dataset",
            axis_key="dataset", values_attr="real_dataset_names",
            config_for=lambda profile, x: _RealStandIn(
                x, profile.real_dataset_scale
            ),
            generate=lambda config, seed: make_real_dataset(
                config.name, scale=config.scale, seed=seed
            ),
            table1=True,
        ),
        # One graph500-style graph of 2**scale vertices per x value;
        # queries answer with embedding roots instead of graph ids.
        Experiment(
            name="massive", figure="7", x_name="scale",
            axis_key="scale", values_attr="massive_scale_values",
            config_for=lambda profile, x: RMATConfig(
                scale=x,
                edge_factor=profile.massive_edge_factor,
                num_labels=profile.massive_labels,
            ),
            generate=generate_massive_dataset,
            regime=SINGLE_GRAPH,
        ),
    )
}


def run_experiment(
    name: str,
    profile: ScaleProfile | None = None,
    methods: Sequence[str] | None = None,
    values: Sequence | None = None,
    seed: int = 0,
    progress: ProgressHook | None = None,
    jobs: int | None = 1,
    shared_mem: bool = False,
    batch_queries: bool = False,
    runner: ParallelRunner | None = None,
    plan=None,
    index_store_dir: str | None = None,
    reuse_indexes: bool = True,
) -> SweepResult:
    """Run ``EXPERIMENTS[name]``: every (x value, method) cell, measured
    the same way.  *values* / *methods* default to the profile's grid
    and the experiment's roster; *plan* (a
    :class:`~repro.core.sharding.SweepPlan`) narrows which cells run."""
    experiment = EXPERIMENTS[name]
    profile = profile or active_profile()
    method_names = list(
        methods if methods is not None else experiment.roster(profile)
    )
    xs = list(values if values is not None else experiment.x_values(profile))
    run_keys: set | None = None
    if plan is not None:
        xs, method_names = plan.subgrid(xs, method_names, experiment.x_name)
        run_keys = set(plan.cells_to_run(xs, method_names))
    sizes, queries_per_size = experiment.query_grid(profile)
    result = SweepResult(
        x_name=experiment.x_name,
        x_values=xs,
        methods=method_names,
        query_sizes=sizes,
    )

    def tasks():
        for x in xs:
            wanted = [
                m
                for m in method_names
                if run_keys is None or (x, m) in run_keys
            ]
            if not wanted:
                # Every cell of this x is outside the shard or already
                # completed — skip the dataset generation entirely.
                continue
            dataset = experiment.generate(experiment.config_for(profile, x), seed)
            workloads = _make_workloads(dataset, sizes, queries_per_size, seed)
            result.dataset_stats[x] = dataset_statistics(
                dataset, name=x if experiment.table1 else None
            )
            digest = (
                dataset_fingerprint(dataset)
                if index_store_dir is not None or batch_queries
                else None
            )
            for method in wanted:
                yield CellTask(
                    key=(x, method),
                    method=method,
                    dataset=dataset,
                    workloads=workloads,
                    method_config=profile.method_configs.get(method),
                    build_budget_seconds=profile.build_budget_seconds,
                    query_budget_seconds=profile.query_budget_seconds,
                    index_store_dir=index_store_dir,
                    reuse_indexes=reuse_indexes,
                    dataset_digest=digest,
                    regime=experiment.regime,
                )

    total = (
        len(xs) * len(method_names) if run_keys is None else len(run_keys)
    )
    _dispatch(
        result,
        tasks(),
        total,
        experiment.x_name,
        jobs,
        progress,
        shared_mem=shared_mem,
        batch_queries=batch_queries,
        runner=runner,
        history=None if plan is None else plan.history,
    )
    if plan is not None:
        plan.finalize(result)
    return result


#: The paper's sweeps by their historical names: ``run_experiment``
#: with the experiment fixed (Figure 2, Figures 3+4, Figure 5, Figure 6
#: and the massive single-graph regime).
nodes_sweep = partial(run_experiment, "nodes")
density_sweep = partial(run_experiment, "density")
labels_sweep = partial(run_experiment, "labels")
graph_count_sweep = partial(run_experiment, "graphs")
massive_sweep = partial(run_experiment, "massive")


def real_dataset_experiment(profile=None, methods=None, names=None, *args, **kwargs):
    """Figure 1 and Table 1: ``run_experiment("real", ...)`` with the
    x values spelled *names*."""
    return run_experiment("real", profile, methods, names, *args, **kwargs)


def _dispatch(
    result: SweepResult,
    tasks: "Iterable[CellTask]",
    total: int,
    x_name: str,
    jobs: int | None,
    progress: ProgressHook | None,
    shared_mem: bool = False,
    batch_queries: bool = False,
    runner: ParallelRunner | None = None,
    history=None,
) -> None:
    """Execute *tasks* and merge deterministically.

    Every cell runs through the one batch executor
    (:func:`~repro.core.scheduling.run_batch`); what differs is how
    cells are *submitted*:

    * **streamed** — sequential runs with no engine feature requested
      consume the lazy *tasks* iterable one whole cell at a time
      (:func:`~repro.core.runner.run_cell`), so only one x value's
      dataset is alive at a time, and report each cell *before* it runs,
      so an hours-long cell is visible in flight;
    * **batched** (:func:`_run_batched`) — engine runs materialize every
      task to submit it, and can only report completions; results still
      merge in task order regardless of worker completion order, so
      ``result.cells`` has the exact insertion order — x outer, method
      inner — the streamed loop produces.

    Engine features (each independently optional):

    * ``shared_mem`` selects how a dataset travels: each x value's is
      packed once into a :class:`~repro.core.arena.DatasetArena` and
      tasks ship arena handles instead of pickled datasets.  Each
      segment is **evicted as soon as every batch referencing it has
      completed** (per-arena refcounts decremented from the completion
      hook), so a multi-GB sweep holds at most the segments of
      in-flight x values; the ``finally`` below still unlinks whatever
      remains, even when a worker crashes mid-sweep.
    * ``batch_queries`` selects the batch count: cells split into
      ``runner.jobs`` per-query batches
      (:func:`~repro.core.scheduling.split_cell`) instead of one, so one
      slow cell's workload spreads across workers: batch 0 builds the
      index, the others are dispatched when it has finished; merged
      cells are byte-identical (canonicalized) however they were cut.
    * parallel submissions are always longest-first
      (:func:`~repro.core.scheduling.longest_first`) to shrink the tail.
      ``history`` (a :class:`~repro.core.scheduling.CostHistory`, e.g.
      from a shard manifest) calibrates the static estimates with
      measured cell seconds when available.
    * ``runner`` — an externally owned (persistent) runner to reuse;
      its pool is left alive for the caller's next sweep.

    Every dispatched task's **static** cost units are recorded in
    ``result.cost_units`` so shard manifests can persist them next to
    the measured seconds — the data the next run's ``history`` is
    built from.
    """
    runner = runner if runner is not None else ParallelRunner(jobs=jobs)
    if runner.jobs <= 1 and not shared_mem and not batch_queries:
        for done, task in enumerate(tasks, start=1):
            if progress is not None:
                progress(
                    f"[{done}/{total}] {x_name}={task.key[0]} method={task.method}"
                )
            result.cost_units[task.key] = estimate_cost(task)
            result.cells[task.key] = run_cell(task)
        return

    task_list = list(tasks)
    arenas: list[DatasetArena] = []
    try:
        if shared_mem:
            task_list = _move_to_arenas(task_list, arenas)
        _run_batched(
            result,
            task_list,
            runner,
            runner.jobs if batch_queries else 1,
            x_name,
            progress,
            history,
            arenas,
        )
    finally:
        for arena in arenas:
            arena.close()


def _arena_evictor(batches: list[QueryBatch], arenas: list[DatasetArena]):
    """A completion hook releasing each shared-memory segment once the
    last batch referencing it has finished (ROADMAP: arena eviction for
    multi-GB invocations).

    Safe because workers materialize a segment's dataset when a batch
    *starts* and cache it process-locally — by the time the final
    referencing batch has completed, no future batch attaches the
    segment.  Closing is idempotent, so the dispatch-end ``finally``
    remains the crash backstop.
    """
    arena_by_name = {arena.handle.shm_name: arena for arena in arenas}
    refs: dict[str, int] = {}
    for batch in batches:
        if isinstance(batch.dataset, ArenaHandle):
            name = batch.dataset.shm_name
            refs[name] = refs.get(name, 0) + 1

    def evict(batch: QueryBatch) -> None:
        if not isinstance(batch.dataset, ArenaHandle):
            return
        name = batch.dataset.shm_name
        refs[name] -= 1
        if refs[name] == 0:
            arena_by_name[name].close()

    return evict


def _move_to_arenas(
    tasks: list[CellTask], arenas: list[DatasetArena]
) -> list[CellTask]:
    """Move every task's dataset into a shared-memory arena (one per
    distinct dataset object; all methods of an x value share it)."""
    handle_of: dict[int, ArenaHandle] = {}
    shared: list[CellTask] = []
    for task in tasks:
        handle = handle_of.get(id(task.dataset))
        if handle is None:
            arena = DatasetArena.create(task.dataset)
            arenas.append(arena)
            handle = handle_of[id(task.dataset)] = arena.handle
        shared.append(replace(task, dataset=handle))
    return shared


def _run_batched(
    result: SweepResult,
    tasks: list[CellTask],
    runner: ParallelRunner,
    num_batches: int,
    x_name: str,
    progress: ProgressHook | None,
    history,
    arenas: list[DatasetArena],
) -> None:
    """Split cells into up to *num_batches* query batches each (1 = whole
    cells), run longest-first, merge in order.

    Each cell's batch 0 carries the build and is submitted longest-first;
    its other batches are submitted when it has finished (or, after a
    failed build, take its status without running), so no two workers
    ever build one cell's index side by side.

    A dataset's segment in *arenas* is released once the last batch
    referencing it completes."""
    batches: list[QueryBatch] = []
    groups: list[tuple] = []  # (task, range of batch indices)
    for task in tasks:
        result.cost_units[task.key] = estimate_cost(task)
        cell_batches = split_cell(task, num_batches)
        start = len(batches)
        batches.extend(cell_batches)
        groups.append((task, range(start, start + len(cell_batches))))

    total = len(batches)
    evict = _arena_evictor(batches, arenas)

    def hook(done, _total, batch):
        evict(batch)
        if progress is not None:
            part = (
                f" batch {batch.batch_index + 1}/{batch.num_batches}"
                if num_batches > 1
                else ""
            )
            progress(
                f"[{done}/{total}] {x_name}={batch.key[0]} method={batch.method}{part}"
            )

    costs = [estimate_batch_cost(batch, history) for batch in batches]
    order = longest_first(costs) if runner.jobs > 1 else None
    after = {i: indices[0] for _, indices in groups for i in indices[1:]}
    outcomes = runner.map(
        run_batch,
        batches,
        progress=hook,
        order=order,
        after=after,
        resolve=propagate_build_failure,
    )
    for task, indices in groups:
        result.cells[task.key] = merge_batches(
            [batches[i] for i in indices], [outcomes[i] for i in indices]
        )


def _make_workloads(
    dataset: GraphDataset, sizes: Sequence[int], count: int, seed: int
) -> dict[int, list]:
    """*count* random-walk queries per size; sizes the dataset cannot
    yield (all graphs too small) are skipped, as with 32-edge queries on
    tiny CI-scale stand-ins."""
    workloads: dict[int, list] = {}
    for size in sizes:
        try:
            workloads[size] = generate_queries(
                dataset, count, size, seed=seed + size
            )
        except ValueError:
            continue
    return workloads
