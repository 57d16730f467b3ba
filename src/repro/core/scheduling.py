"""Per-query batching and adaptive (longest-first) cell scheduling.

PR 1 parallelized at cell granularity, so one slow (method × dataset)
cell — a frequent-mining build over the largest dataset, say — owns the
tail of every sweep: the response-time/granularity trade-off Das et al.
measure on large-graph query processing.  This module shrinks that tail
in two independent ways:

* **Longest-first scheduling** — cells are *submitted* in descending
  estimated cost (:func:`estimate_cost`: dataset size × query work), so
  the expensive cells start first and the cheap ones pack the stragglers.
  Results still merge in original submission order, so scheduling is
  invisible in the output.
* **Per-query batching** — one cell's query workload splits into
  :class:`QueryBatch` subtasks (:func:`split_cell`), each carrying a
  contiguous slice of every query size.  The build is a prerequisite,
  not a race: batch 0 carries it (writing through to the
  content-addressed :class:`~repro.indexes.store.IndexStore` when one
  is configured), and the cell's other batches are dispatched once it
  has finished, finding the index in the process memo or the store —
  or not dispatched at all when the build failed
  (:func:`propagate_build_failure`).  :func:`merge_batches` reassembles
  the per-query records **in original query order** and aggregates
  them, so the merged cell canonicalizes byte-identically however many
  batches it was cut into.

:func:`run_batch` is the only code in the sweep pipeline that builds or
fetches an index and answers a workload: a whole cell
(:func:`repro.core.runner.run_cell`) is a cell split into one batch.

Semantics note: the paper's per-workload query budget is enforced per
*batch* (wall-clock cannot be shared across processes); an unsplit
cell's one batch holds every size whole, so there it spans the workload.
With no budget, or the zero budget the failure tests use, every split
agrees exactly; a real mid-workload timeout may land on a different
query than in an unsplit cell — the same nondeterminism two unsplit runs
already have.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.arena import ArenaHandle, cached_dataset
from repro.graphs.csr import as_core_query
from repro.core.metrics import QueryRecord, record_of, summarize_records
from repro.core.runner import (
    STATUS_ERROR,
    STATUS_MEMORY,
    STATUS_OK,
    STATUS_TIMEOUT,
    CellTask,
    MethodCell,
    SizeStats,
    make_method,
)
from repro.graphs.dataset import GraphDataset, dataset_fingerprint
from repro.graphs.graph import Graph
from repro.indexes.base import GraphIndex
from repro.utils.budget import Budget, BudgetExceeded, MemoryBudgetExceeded

__all__ = [
    "BatchOutcome",
    "BatchPart",
    "CellCost",
    "CostHistory",
    "QueryBatch",
    "clear_index_cache",
    "estimate_batch_cost",
    "estimate_cost",
    "longest_first",
    "merge_batches",
    "propagate_build_failure",
    "run_batch",
    "split_cell",
]


# ----------------------------------------------------------------------
# adaptive scheduling: cost model + longest-first ordering
# ----------------------------------------------------------------------


def _weight_of(dataset: GraphDataset | ArenaHandle) -> float:
    """Rough size of a dataset, by object or by arena handle."""
    if isinstance(dataset, ArenaHandle):
        return float(
            dataset.num_graphs + dataset.total_vertices + dataset.total_edges
        )
    return float(len(dataset) + dataset.total_vertices() + dataset.total_edges())


def _query_work(workloads: Mapping[int, Sequence[Graph]]) -> float:
    """Total query edges — the workload side of the cost product."""
    return float(sum(size * len(queries) for size, queries in workloads.items()))


def estimate_cost(task: CellTask, history: "CostHistory | None" = None) -> float:
    """Estimated cell cost: dataset size × (1 + query work).

    The static estimate is deliberately method-blind — the paper's whole
    point is that method cost profiles differ wildly and unpredictably —
    but dataset size and query volume dominate within a sweep, which is
    what tail-shrinking needs: the big-dataset cells start first.

    When *history* (measured cell seconds from earlier runs, e.g. a
    shard manifest — :mod:`repro.core.sharding`) is given, the static
    unit count is calibrated into predicted **seconds**: an exact
    re-run of a recorded cell gets its measured time back, other cells
    of a recorded method get that method's observed seconds-per-unit
    rate, and unrecorded methods fall back to the global rate.  This is
    the cost-model feedback loop that un-blinds the scheduler where
    evidence exists.
    """
    units = _weight_of(task.dataset) * (1.0 + _query_work(task.workloads))
    if history is not None:
        return history.calibrate(task.key, task.method, units)
    return units


def estimate_batch_cost(
    batch: "QueryBatch", history: "CostHistory | None" = None
) -> float:
    """Cost of one batch: its slice of the queries plus, for batch 0,
    which alone carries it, the build — a cell's batch costs sum to its
    :func:`estimate_cost`.

    *history* calibrates the batch's unit count exactly as
    :func:`estimate_cost` does for whole cells; a recorded cell's
    measured rate prices each of its batches proportionally to the
    batch's share of the cell's work.
    """
    work = float(sum(part.size * len(part.queries) for part in batch.parts))
    build = 1.0 if batch.batch_index == 0 else 0.0
    units = _weight_of(batch.dataset) * (build + work)
    if history is not None:
        return history.calibrate(batch.key, batch.method, units)
    return units


@dataclass(frozen=True, slots=True)
class CellCost:
    """One completed cell's measured cost, as recorded in a manifest."""

    #: Wall-clock seconds the cell's build + queries actually took.
    seconds: float
    #: The static :func:`estimate_cost` units computed when it ran.
    units: float


class CostHistory:
    """Measured cell seconds from previous runs, as a cost calibrator.

    Built from ``(key, method, seconds, units)`` records — one per
    completed cell, typically read out of a shard manifest
    (:func:`repro.core.sharding.cost_history`).  Three estimators, most
    specific first:

    1. **exact** — the same ``key`` was measured before: scale its
       observed seconds-per-unit rate by the requested unit count (for
       a whole cell that returns the measured seconds verbatim; for a
       query batch, the batch's proportional share);
    2. **per-method rate** — the mean seconds-per-unit over the
       method's recorded cells, correcting the static model's
       method-blindness;
    3. **global rate** — the mean over all recorded cells, so cells of
       never-measured methods stay comparable (in seconds) with
       calibrated ones.

    With no usable records at all, :meth:`calibrate` returns the static
    units unchanged — every estimate stays in one currency either way,
    which is all :func:`longest_first` needs.
    """

    def __init__(
        self, records: "Iterable[tuple[tuple, str, float, float]]" = ()
    ) -> None:
        self._costs: dict[tuple, CellCost] = {}
        rates_by_method: dict[str, list[float]] = {}
        for key, method, seconds, units in records:
            self._costs[key] = CellCost(seconds=seconds, units=units)
            if units > 0.0 and seconds >= 0.0:
                rates_by_method.setdefault(method, []).append(seconds / units)
        self._method_rates = {
            method: sum(rates) / len(rates)
            for method, rates in rates_by_method.items()
        }
        all_rates = [rate for rates in rates_by_method.values() for rate in rates]
        self._global_rate = sum(all_rates) / len(all_rates) if all_rates else None

    def __len__(self) -> int:
        return len(self._costs)

    def recorded(self, key: tuple) -> CellCost | None:
        """The measured cost of *key*, if this history holds one."""
        return self._costs.get(key)

    def predict_seconds(
        self, key: tuple, method: str, units: float
    ) -> float | None:
        """Best-evidence predicted seconds for one cell, or ``None``.

        Unlike :meth:`calibrate` — which scales a *rate* by the caller's
        unit count and therefore needs those units to match the recorded
        ones for an exact hit — this answers the planner's question
        directly: a recorded key returns its measured seconds verbatim
        (whatever units the caller guessed), an unrecorded key of a
        recorded method returns ``units`` priced at the method's rate,
        and a history with nothing usable returns ``None`` so the
        caller can fall back to its static estimate.  The sweep
        orchestration driver (:mod:`repro.core.driver`) plans shard
        assignments with this before any dataset exists.
        """
        exact = self._costs.get(key)
        if exact is not None:
            return exact.seconds
        rate = self._method_rates.get(method, self._global_rate)
        return None if rate is None else units * rate

    def rate_for(self, key: tuple, method: str) -> float | None:
        """Seconds-per-unit estimate for one cell, or ``None`` if the
        history holds nothing usable."""
        exact = self._costs.get(key)
        if exact is not None and exact.units > 0.0:
            return exact.seconds / exact.units
        return self._method_rates.get(method, self._global_rate)

    def calibrate(self, key: tuple, method: str, units: float) -> float:
        """Predicted seconds for *units* of work on this cell (static
        units unchanged when the history has no usable records)."""
        rate = self.rate_for(key, method)
        return units if rate is None else units * rate


def longest_first(costs: Sequence[float]) -> list[int]:
    """Submission order: indices by descending cost, stable on ties.

    The returned permutation feeds ``ParallelRunner.map(..., order=...)``;
    results still come back in the *original* index order, so the sweep
    output is submission-deterministic regardless of completion order.
    """
    return sorted(range(len(costs)), key=lambda i: (-costs[i], i))


# ----------------------------------------------------------------------
# per-query batching: task shapes
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BatchPart:
    """A contiguous slice of one query size's workload."""

    size: int
    #: Position of ``queries[0]`` within the size's full workload.
    start: int
    queries: tuple[Graph, ...]


@dataclass(frozen=True, slots=True)
class QueryBatch:
    """One worker-sized share of a cell's query workload.

    Batch 0 builds the cell's index; the dispatcher holds the other
    batches back until it has finished.  Every batch still carries
    enough to (re)build it: with a store directory the dependents fetch
    the artifact (content-addressed by ``(method, index_params,
    dataset_key)``), so the index is built once per *store* — across
    batches, cells, sweeps, and invocations; without one a dependent
    landing in another worker rebuilds it there, at most once per
    worker.
    """

    key: tuple
    method: str
    dataset: GraphDataset | ArenaHandle
    #: Content digest of the dataset — the store's address component
    #: (``None`` for a one-batch cell without a store, which never
    #: looks its index up anywhere).
    dataset_key: int | None
    batch_index: int
    num_batches: int
    #: Every query size of the parent cell, in workload order (the
    #: merged cell's ``per_size`` insertion order).
    sizes: tuple[int, ...]
    parts: tuple[BatchPart, ...]
    method_config: Mapping[str, object] | None = None
    build_budget_seconds: float | None = None
    query_budget_seconds: float | None = None
    build_memory_bytes: int | None = None
    #: On-disk tier of the index artifact store (``None`` = memory-only).
    index_store_dir: str | None = None
    #: ``False`` keeps reuse cell-local (paper-faithful build timings).
    reuse_indexes: bool = True
    #: Query answer form (:data:`repro.indexes.base.REGIMES`).
    regime: str = "transactional"


@dataclass(frozen=True, slots=True)
class PartOutcome:
    """What happened to one batch part."""

    size: int
    start: int
    status: str
    records: tuple[QueryRecord, ...] = ()
    error: str = ""


@dataclass(frozen=True, slots=True)
class BatchOutcome:
    """One executed batch: build outcome plus per-part query records."""

    key: tuple
    batch_index: int
    build_status: str
    build_seconds: float | None = None
    index_bytes: int | None = None
    build_details: dict = field(default_factory=dict)
    build_error: str = ""
    parts: tuple[PartOutcome, ...] = ()
    #: Build provenance (artifact address, reused flag) — execution
    #: metadata forwarded onto the merged cell, never canonicalized.
    provenance: dict = field(default_factory=dict)
    #: This batch ran the build itself instead of finding the index in
    #: the process memo or the store.
    built: bool = False


def split_cell(task: CellTask, num_batches: int) -> list[QueryBatch]:
    """Split one cell into up to *num_batches* query batches.

    Each size's workload is cut into contiguous chunks (chunk *i* of a
    ``q``-query size is ``queries[i*q//n : (i+1)*q//n]``), so batch 0
    holds the head of every size and batch n-1 the tail.  Cells with
    fewer queries than batches produce fewer batches; a cell with no
    queries still produces one build-only batch.  The split is a pure
    function of (task, num_batches) — deterministic across runs.
    """
    sizes = tuple(task.workloads)
    total_queries = sum(len(queries) for queries in task.workloads.values())
    count = max(1, min(int(num_batches), total_queries)) if total_queries else 1
    key = task.dataset_digest
    if key is None:
        if isinstance(task.dataset, ArenaHandle):
            key = task.dataset.fingerprint
        elif count > 1 or task.index_store_dir is not None:
            key = dataset_fingerprint(task.dataset)
    parts_of: list[list[BatchPart]] = [[] for _ in range(count)]
    for size, queries in task.workloads.items():
        queries = list(queries)
        length = len(queries)
        for i in range(count):
            lo = (i * length) // count
            hi = ((i + 1) * length) // count
            if hi > lo:
                parts_of[i].append(BatchPart(size, lo, tuple(queries[lo:hi])))
    return [
        QueryBatch(
            key=task.key,
            method=task.method,
            dataset=task.dataset,
            dataset_key=key,
            batch_index=i,
            num_batches=count,
            sizes=sizes,
            parts=tuple(parts_of[i]),
            method_config=task.method_config,
            build_budget_seconds=task.build_budget_seconds,
            query_budget_seconds=task.query_budget_seconds,
            build_memory_bytes=task.build_memory_bytes,
            index_store_dir=task.index_store_dir,
            reuse_indexes=task.reuse_indexes,
            regime=task.regime,
        )
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# worker side: store-backed builds + batch execution
# ----------------------------------------------------------------------

#: Per-process build memo — the direct successor of PR 2's
#: ``_INDEX_CACHE``, with the same budget-inclusive keying: failures are
#: cached so every batch of a cell reports the same deterministic
#: status, and successful builds are shared across batches (and, when
#: ``reuse_indexes`` is on, across cells) *of the same budgets*.  Only
#: split cells use it: a one-batch cell has no later batch to serve, and
#: memoizing it would keep every index of a sweep alive in the process.
#: The :class:`~repro.indexes.store.IndexStore` sits in front of it only
#: when an explicit store directory is configured — store artifacts are
#: budget-free by documented contract, and that trade must be opted
#: into, never implied.
_BUILD_MEMO: dict[tuple, tuple] = {}


def clear_index_cache() -> None:
    """Drop this process's built-index state (tests, memory pressure):
    the build memo plus every shared store's memory tier."""
    from repro.indexes.store import clear_stores

    _BUILD_MEMO.clear()
    clear_stores()


def _built_index_for(batch: QueryBatch) -> tuple[tuple, bool]:
    """``("ok", index, report, provenance)`` or ``(status, error)``,
    and whether this call ran the build itself.

    Resolution order for a split cell: the budget-keyed process memo —
    within one process the live built index beats re-materializing from
    the store, and the building run's batches all report consistent
    provenance; then :func:`_fetch_or_build`, whose outcome (a store
    hit included: the cell's remaining batches must not repeat the
    payload import) is memoized.

    Without ``--index-store`` the memo alone serves reuse, keyed by
    budgets exactly as PR 2's cache was — a lenient-budget build must
    never mask the timeout a strict-budget cell would have reported, so
    crossing budget boundaries is reserved for the explicit store (a
    documented trade of its own).
    """
    probe = make_method(batch.method, batch.method_config)
    if batch.num_batches == 1:
        return _fetch_or_build(batch, probe)
    memo_key = (
        batch.method,
        tuple(sorted(probe.index_params().items())),
        batch.dataset_key,
        batch.build_budget_seconds,
        batch.build_memory_bytes,
        None if batch.reuse_indexes else batch.key,
    )
    entry = _BUILD_MEMO.get(memo_key)
    if entry is not None:
        return entry, False
    entry, built = _fetch_or_build(batch, probe)
    _BUILD_MEMO[memo_key] = entry
    return entry, built


def _fetch_or_build(batch: QueryBatch, index: GraphIndex) -> tuple[tuple, bool]:
    """:func:`repro.indexes.store.fetch_or_build` as cell statuses: a
    hit in the explicit artifact store (memory LRU, then disk)
    materializes a fresh index and reports the *original* build's
    provenance; else a budgeted build of *index*, written through to
    the store, whose failures become statuses."""
    # repro.indexes.store imports the package root, which imports this
    from repro.indexes.store import fetch_or_build, materialize_artifact, shared_store

    store = (
        shared_store(batch.index_store_dir)
        if batch.index_store_dir is not None
        else None
    )
    dataset = cached_dataset(batch.dataset)
    budget = (
        Budget(
            batch.build_budget_seconds,
            max_bytes=batch.build_memory_bytes,
            phase=f"{batch.method} build",
        )
        if batch.build_budget_seconds is not None
        or batch.build_memory_bytes is not None
        else None
    )
    try:
        index, artifact, reused = fetch_or_build(
            index, dataset, store, batch.dataset_key, batch.reuse_indexes, budget
        )
    except MemoryBudgetExceeded:
        return (STATUS_MEMORY, ""), True
    except BudgetExceeded:
        return (STATUS_TIMEOUT, ""), True
    except (MemoryError, RecursionError, ValueError, RuntimeError) as exc:
        return (STATUS_ERROR, f"{type(exc).__name__}: {exc}"), True
    if reused:
        # Outside the status mapping: an artifact that does not fit its
        # dataset (IndexStoreError, a RuntimeError) is not a method failure.
        index = materialize_artifact(artifact, dataset)
        provenance = {
            "reused": True,
            "artifact": artifact.address,
            "built_at": artifact.provenance.created_at,
            "library_version": artifact.provenance.library_version,
        }
    elif artifact is not None:
        provenance = {"reused": False, "artifact": artifact.address}
    else:
        provenance = {}
    return (STATUS_OK, index, index.build_report, provenance), not reused


def run_batch(batch: QueryBatch) -> BatchOutcome:
    """Worker entry point: build/fetch the index, answer this slice.

    Method failures become statuses, never exceptions — a build that
    overruns its budget fails the batch, a part that overruns fails
    that query size only; programming errors (unknown method)
    propagate.
    """
    entry, built = _built_index_for(batch)
    if entry[0] != STATUS_OK:
        return BatchOutcome(
            key=batch.key,
            batch_index=batch.batch_index,
            build_status=entry[0],
            build_error=entry[1],
        )
    _, index, report, provenance = entry
    parts: list[PartOutcome] = []
    for part in batch.parts:
        budget = (
            Budget(
                batch.query_budget_seconds,
                phase=f"{batch.method} queries size {part.size}",
            )
            if batch.query_budget_seconds is not None
            else None
        )
        try:
            # Query admission: each query converts to CSR once, here,
            # so filter and verify both see CSR-vs-CSR (queries arrive
            # from generators/IO as builder graphs).
            records = tuple(
                record_of(
                    index.query(
                        as_core_query(query), budget=budget, regime=batch.regime
                    )
                )
                for query in part.queries
            )
        except BudgetExceeded:
            parts.append(PartOutcome(part.size, part.start, STATUS_TIMEOUT))
        except (MemoryError, RecursionError, ValueError, RuntimeError) as exc:
            parts.append(
                PartOutcome(
                    part.size,
                    part.start,
                    STATUS_ERROR,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
        else:
            parts.append(PartOutcome(part.size, part.start, STATUS_OK, records))
    return BatchOutcome(
        key=batch.key,
        batch_index=batch.batch_index,
        build_status=STATUS_OK,
        build_seconds=report.seconds,
        index_bytes=report.size_bytes,
        build_details=dict(report.details),
        parts=tuple(parts),
        provenance=dict(provenance),
        built=built,
    )


def propagate_build_failure(
    batch: QueryBatch, lead: BatchOutcome
) -> BatchOutcome | None:
    """The outcome of *batch* when its cell's build, run by batch 0 with
    outcome *lead*, failed — ``None`` when it succeeded and *batch* must
    run.  The dispatcher's ``resolve`` hook: a timed-out build costs
    one budget, not one per batch, and every batch reports its status.
    """
    if lead.build_status == STATUS_OK:
        return None
    return BatchOutcome(
        key=batch.key,
        batch_index=batch.batch_index,
        build_status=lead.build_status,
        build_error=lead.build_error,
    )


# ----------------------------------------------------------------------
# deterministic merge
# ----------------------------------------------------------------------


def merge_batches(
    batches: Sequence[QueryBatch], outcomes: Sequence[BatchOutcome]
) -> MethodCell:
    """Reassemble one cell from its batch outcomes, order-independently.

    *batches* and *outcomes* are aligned pairs in any order (they are
    sorted internally by batch index / part start), so the merged cell
    is a pure function of the outcome *set* — completion order cannot
    leak in.  Build fields and provenance come from batch 0, which ran
    the build (or fetched it) before any other batch started; a size's
    status is the status of its earliest non-OK part ("first failure
    aborts the workload"), otherwise its records concatenate in query
    order and aggregate as one workload.  ``provenance["fresh_batches"]``
    counts the batches that ran a build: more than one means duplicated
    work.
    """
    if not batches:
        raise ValueError("merge_batches needs at least one batch")
    pairs = sorted(zip(batches, outcomes), key=lambda pair: pair[1].batch_index)
    lead_batch, lead = pairs[0]
    # Any build failure fails the whole cell, all or nothing: batch
    # 0's, carried by every batch, or that of a storeless dependent's
    # private rebuild in another worker.
    failed_build = next(
        (o for _, o in pairs if o.build_status != STATUS_OK), None
    )
    if failed_build is not None:
        return MethodCell(
            method=lead_batch.method,
            build_status=failed_build.build_status,
            build_error=failed_build.build_error,
        )
    cell = MethodCell(
        method=lead_batch.method,
        build_status=lead.build_status,
        build_seconds=lead.build_seconds,
        index_bytes=lead.index_bytes,
        build_details=dict(lead.build_details),
        build_error=lead.build_error,
        provenance={
            **lead.provenance,
            "fresh_batches": sum(o.built for _, o in pairs),
        },
    )
    parts_by_size: dict[int, list[PartOutcome]] = {}
    for _, outcome in pairs:
        for part in outcome.parts:
            parts_by_size.setdefault(part.size, []).append(part)
    for size in lead_batch.sizes:
        parts = sorted(parts_by_size.get(size, []), key=lambda p: p.start)
        failed = next((p for p in parts if p.status != STATUS_OK), None)
        if failed is not None:
            cell.per_size[size] = SizeStats(status=failed.status, error=failed.error)
            continue
        records: list[QueryRecord] = []
        for part in parts:
            records.extend(part.records)
        cell.per_size[size] = SizeStats(
            status=STATUS_OK, stats=summarize_records(records)
        )
    return cell
