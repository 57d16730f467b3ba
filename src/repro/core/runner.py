"""Budgeted execution of one method over one dataset + workloads.

Each (method, dataset) pair yields a :class:`MethodCell` — one "cell"
of a paper figure: build status/time/size, plus per-query-size workload
statistics.  Budget overruns and implementation failures are recorded
as statuses rather than raised, exactly as the paper reports methods
that "failed to produce an index within the 8-hour limit" or crashed
(gCode on PDBS, §5.1) — the figures simply have no data point there.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.graphs.csr import as_core_dataset, as_core_query
from repro.graphs.dataset import GraphDataset
from repro.graphs.graph import Graph
from repro.indexes import ALL_INDEX_CLASSES
from repro.indexes.base import GraphIndex
from repro.core.metrics import WorkloadStats, summarize_results
from repro.utils.budget import Budget, BudgetExceeded, MemoryBudgetExceeded

__all__ = [
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "STATUS_MEMORY",
    "STATUS_ERROR",
    "SizeStats",
    "MethodCell",
    "CellTask",
    "make_method",
    "evaluate_method",
    "run_cell",
]

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
#: The index outgrew its memory allowance (Grapes on huge datasets, §5.2.4).
STATUS_MEMORY = "memory"
STATUS_ERROR = "error"


@dataclass(frozen=True, slots=True)
class SizeStats:
    """Workload outcome for one query size."""

    status: str
    stats: WorkloadStats | None = None
    error: str = ""


@dataclass(slots=True)
class MethodCell:
    """One method's measurements on one dataset configuration."""

    method: str
    build_status: str
    build_seconds: float | None = None
    index_bytes: int | None = None
    build_details: dict = field(default_factory=dict)
    build_error: str = ""
    #: Query size -> workload statistics.
    per_size: dict[int, SizeStats] = field(default_factory=dict)
    #: Execution metadata about where the build came from (artifact
    #: address, ``reused`` flag, original build timestamp).  Never
    #: serialized into sweep JSON and excluded from canonicalization —
    #: a warm (store-reusing) run stays byte-identical to a cold one.
    provenance: dict = field(default_factory=dict)

    # -- figure accessors (None = missing data point) ------------------

    def query_seconds(self) -> float | None:
        """Average query time over all sizes with data (Figures c)."""
        values = [
            cell.stats.avg_query_seconds
            for cell in self.per_size.values()
            if cell.status == STATUS_OK and cell.stats is not None
        ]
        return sum(values) / len(values) if values else None

    def fp_ratio(self) -> float | None:
        """Average false positive ratio over all sizes (Figures d)."""
        values = [
            cell.stats.false_positive_ratio
            for cell in self.per_size.values()
            if cell.status == STATUS_OK and cell.stats is not None
        ]
        return sum(values) / len(values) if values else None

    def query_seconds_for(self, size: int) -> float | None:
        """Average query time for one query size (Figure 4)."""
        cell = self.per_size.get(size)
        if cell is None or cell.status != STATUS_OK or cell.stats is None:
            return None
        return cell.stats.avg_query_seconds


@dataclass(frozen=True, slots=True)
class CellTask:
    """A picklable description of one (method × dataset) cell.

    This is the unit of work the parallel engine ships to worker
    processes (:mod:`repro.core.parallel`): everything
    :func:`evaluate_method` needs, as plain data.  ``key`` is an opaque
    tag the caller uses to place the resulting
    :class:`MethodCell` — sweeps use ``(x_value, method_name)``.
    """

    key: tuple
    method: str
    dataset: GraphDataset
    #: Query size -> queries of that size.
    workloads: Mapping[int, Sequence[Graph]]
    method_config: Mapping[str, object] | None = None
    build_budget_seconds: float | None = None
    query_budget_seconds: float | None = None
    build_memory_bytes: int | None = None
    #: On-disk tier of the index artifact store; ``None`` disables the
    #: store for this cell (legacy always-rebuild behavior).
    index_store_dir: str | None = None
    #: ``False`` forces a paper-faithful rebuild (fresh measured build
    #: timing) even when a matching artifact exists; the fresh build is
    #: still stored for other consumers.
    reuse_indexes: bool = True
    #: Canonical dataset content digest, computed once by the
    #: dispatching parent so the M method-cells over one dataset do not
    #: each re-fingerprint it worker-side (``None`` = compute lazily).
    dataset_digest: int | None = None
    #: Query answer form (:data:`repro.indexes.base.REGIMES`):
    #: transactional graph ids, or single-graph embedding roots.
    regime: str = "transactional"


def run_cell(task: CellTask) -> MethodCell:
    """Execute one cell: a pure, picklable function of its task.

    Builds the index and runs every workload *in the calling process* —
    when dispatched by :class:`repro.core.parallel.ParallelRunner` the
    budgets are therefore enforced inside the worker, and only the
    resulting :class:`MethodCell` crosses the process boundary.
    """
    return evaluate_method(
        task.method,
        task.dataset,
        task.workloads,
        method_config=task.method_config,
        build_budget_seconds=task.build_budget_seconds,
        query_budget_seconds=task.query_budget_seconds,
        build_memory_bytes=task.build_memory_bytes,
        index_store_dir=task.index_store_dir,
        reuse_indexes=task.reuse_indexes,
        dataset_digest=task.dataset_digest,
        regime=task.regime,
    )


def make_method(name: str, config: Mapping[str, object] | None = None) -> GraphIndex:
    """Instantiate a method by its paper name with optional settings."""
    try:
        cls = ALL_INDEX_CLASSES[name]
    except KeyError:
        known = ", ".join(ALL_INDEX_CLASSES)
        raise ValueError(f"unknown method {name!r}; expected one of {known}")
    return cls(**dict(config or {}))


def evaluate_method(
    method_name: str,
    dataset: GraphDataset,
    workloads: Mapping[int, Sequence[Graph]],
    method_config: Mapping[str, object] | None = None,
    build_budget_seconds: float | None = None,
    query_budget_seconds: float | None = None,
    build_memory_bytes: int | None = None,
    index_store_dir: str | None = None,
    reuse_indexes: bool = True,
    dataset_digest: int | None = None,
    regime: str = "transactional",
) -> MethodCell:
    """Build one method over *dataset* and run every workload.

    Parameters
    ----------
    method_name:
        Key into :data:`repro.indexes.ALL_INDEX_CLASSES`.
    workloads:
        Query size → queries of that size.
    build_budget_seconds / query_budget_seconds:
        The paper's 8-hour limits, scaled.  The query budget applies
        per workload (one batch of queries of one size).
    build_memory_bytes:
        Optional memory allowance for the build (the paper's 128 GB
        host); overruns are recorded as ``STATUS_MEMORY``.
    index_store_dir / reuse_indexes / dataset_digest:
        When a store directory is given, a matching
        :class:`~repro.indexes.store.IndexArtifact` replaces the build
        (unless ``reuse_indexes`` is off), and every fresh successful
        build is stored for later cells and invocations.  A reused cell
        reports the artifact's *provenance* build seconds — the
        original measured time, never a fake re-measured one — and tags
        ``cell.provenance``.  Build budgets are not re-enforced on
        reuse.  *dataset_digest* skips re-fingerprinting when the
        caller (e.g. an arena handle) already knows it.
    regime:
        The query answer form every workload runs under —
        ``"transactional"`` graph ids (the default) or
        ``"single-graph"`` embedding roots over a one-graph dataset.
        Building and the artifact store are regime-independent.

    Never raises for method failures; statuses record them.
    """
    # The hot loops below see the immutable flat-array dataset.
    dataset = as_core_dataset(dataset)
    index = make_method(method_name, method_config)
    cell = MethodCell(method=method_name, build_status=STATUS_OK)

    store = None
    if index_store_dir is not None:
        from repro.indexes.store import shared_store

        store = shared_store(index_store_dir)
        if dataset_digest is None:
            from repro.graphs.dataset import dataset_fingerprint

            dataset_digest = dataset_fingerprint(dataset)
        if reuse_indexes:
            artifact = store.get(method_name, index.index_params(), dataset_digest)
            if artifact is not None:
                from repro.indexes.store import materialize_artifact

                index = materialize_artifact(artifact, dataset)
                provenance = artifact.provenance
                cell.build_seconds = provenance.build_seconds
                cell.index_bytes = provenance.size_bytes
                cell.build_details = dict(provenance.details)
                cell.provenance = {
                    "reused": True,
                    "artifact": artifact.address,
                    "built_at": provenance.created_at,
                    "library_version": provenance.library_version,
                }
                _run_workloads(cell, index, workloads, query_budget_seconds, regime)
                return cell

    build_budget = (
        Budget(
            build_budget_seconds,
            max_bytes=build_memory_bytes,
            phase=f"{method_name} build",
        )
        if build_budget_seconds is not None or build_memory_bytes is not None
        else None
    )
    try:
        report = index.build(dataset, budget=build_budget)
    except MemoryBudgetExceeded:
        cell.build_status = STATUS_MEMORY
        return cell
    except BudgetExceeded:
        cell.build_status = STATUS_TIMEOUT
        return cell
    except (MemoryError, RecursionError, ValueError, RuntimeError) as exc:
        cell.build_status = STATUS_ERROR
        cell.build_error = f"{type(exc).__name__}: {exc}"
        return cell
    cell.build_seconds = report.seconds
    cell.index_bytes = report.size_bytes
    cell.build_details = dict(report.details)
    if store is not None:
        from repro.indexes.store import artifact_from_index

        assert dataset_digest is not None
        try:
            address = store.put(artifact_from_index(index, dataset_digest))
        except NotImplementedError:
            pass  # no payload-split contract (test double): run unstored
        else:
            cell.provenance = {"reused": False, "artifact": address}

    _run_workloads(cell, index, workloads, query_budget_seconds, regime)
    return cell


def _run_workloads(
    cell: MethodCell,
    index: GraphIndex,
    workloads: Mapping[int, Sequence[Graph]],
    query_budget_seconds: float | None,
    regime: str = "transactional",
) -> None:
    """Run every workload through a built *index*, recording per-size
    statistics and statuses on *cell* (shared by the fresh-build and
    artifact-reuse paths)."""
    for size, queries in workloads.items():
        query_budget = (
            Budget(query_budget_seconds, phase=f"{cell.method} queries size {size}")
            if query_budget_seconds is not None
            else None
        )
        # Query admission: convert each workload query to CSR once,
        # here, so filter and verify both see CSR-vs-CSR (queries
        # arrive from generators/IO as builder graphs).
        admitted = [as_core_query(query) for query in queries]
        try:
            results = [
                index.query(query, budget=query_budget, regime=regime)
                for query in admitted
            ]
        except BudgetExceeded:
            cell.per_size[size] = SizeStats(status=STATUS_TIMEOUT)
            continue
        except (MemoryError, RecursionError, ValueError, RuntimeError) as exc:
            cell.per_size[size] = SizeStats(
                status=STATUS_ERROR, error=f"{type(exc).__name__}: {exc}"
            )
            continue
        cell.per_size[size] = SizeStats(
            status=STATUS_OK, stats=summarize_results(results)
        )
