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

from repro.core.arena import ArenaHandle
from repro.core.metrics import WorkloadStats
from repro.graphs.dataset import GraphDataset
from repro.graphs.graph import Graph
from repro.indexes import ALL_INDEX_CLASSES
from repro.indexes.base import GraphIndex

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

    Everything :func:`run_cell` needs, as plain data — the unit a sweep
    plans in and :func:`repro.core.scheduling.split_cell` cuts into the
    query batches workers execute.  ``key`` is an opaque tag the caller
    uses to place the resulting :class:`MethodCell` — sweeps use
    ``(x_value, method_name)``.
    """

    key: tuple
    method: str
    #: The dataset itself, or the handle of the shared-memory arena it
    #: was packed into (``--shared-mem``).
    dataset: GraphDataset | ArenaHandle
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
    #: each re-fingerprint it (``None`` = an arena handle's own, else
    #: computed when a store or a multi-batch split needs it).
    dataset_digest: int | None = None
    #: Query answer form (:data:`repro.indexes.base.REGIMES`):
    #: transactional graph ids, or single-graph embedding roots.
    regime: str = "transactional"


def run_cell(task: CellTask) -> MethodCell:
    """Execute one cell: a pure, picklable function of its task.

    A whole cell is the one-batch case of the batch executor
    (:mod:`repro.core.scheduling`): the build (or its fetch from the
    artifact store), every workload and the budgets all run *in the
    calling process*, through the same ``run_batch`` a pool worker runs.
    """
    # scheduling imports this module's cell types, hence not at the top
    from repro.core.scheduling import merge_batches, run_batch, split_cell

    batches = split_cell(task, 1)
    return merge_batches(batches, [run_batch(batch) for batch in batches])


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

    The keyword form of :func:`run_cell`.

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
        caller already knows it.
    regime:
        The query answer form every workload runs under —
        ``"transactional"`` graph ids (the default) or
        ``"single-graph"`` embedding roots over a one-graph dataset.
        Building and the artifact store are regime-independent.

    Never raises for method failures; statuses record them.
    """
    return run_cell(
        CellTask(
            key=(method_name,),
            method=method_name,
            dataset=dataset,
            workloads=workloads,
            method_config=method_config,
            build_budget_seconds=build_budget_seconds,
            query_budget_seconds=query_budget_seconds,
            build_memory_bytes=build_memory_bytes,
            index_store_dir=index_store_dir,
            reuse_indexes=reuse_indexes,
            dataset_digest=dataset_digest,
            regime=regime,
        )
    )
