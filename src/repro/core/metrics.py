"""Metric definitions (paper §4.3, Eq. (3)).

The false positive ratio of a query workload is the *average of
per-query ratios*, not the ratio of totals::

    FP = (1/|Q|) Σ_q (|C_q| − |A_q|) / |C_q|

— a distinction that matters when candidate-set sizes vary wildly
across queries.  Queries with empty candidate sets contribute zero.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.indexes.base import QueryResult

__all__ = [
    "false_positive_ratio",
    "WorkloadStats",
    "summarize_results",
    "QueryRecord",
    "record_of",
    "summarize_records",
]


def false_positive_ratio(results: Iterable[QueryResult]) -> float:
    """Eq. (3) over a workload: mean of per-query FP ratios."""
    ratios = [result.false_positive_ratio for result in results]
    if not ratios:
        return 0.0
    return sum(ratios) / len(ratios)


@dataclass(frozen=True, slots=True)
class WorkloadStats:
    """Aggregated metrics of one query workload against one index."""

    num_queries: int
    avg_query_seconds: float
    avg_filter_seconds: float
    avg_verify_seconds: float
    avg_candidates: float
    avg_answers: float
    false_positive_ratio: float

    def total_query_seconds(self) -> float:
        """The workload's total measured query time (mean × count).

        The shard manifests (:mod:`repro.core.sharding`) record each
        cell's measured seconds as build time plus this total over its
        per-size workloads — a mode-independent quantity derivable from
        the cell alone, whichever worker(s) ran it.
        """
        return self.avg_query_seconds * self.num_queries


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """One query's measurements, reduced to scalars.

    The per-query batching engine (:mod:`repro.core.scheduling`) ships
    these across the process boundary instead of full
    :class:`~repro.indexes.base.QueryResult` objects: the candidate and
    answer *sets* stay in the worker, only their sizes and the (already
    computed, bit-exact) per-query FP ratio travel.
    """

    total_seconds: float
    filter_seconds: float
    verify_seconds: float
    num_candidates: int
    num_answers: int
    false_positive_ratio: float


def record_of(result: QueryResult) -> QueryRecord:
    """Reduce one result to its scalar record."""
    return QueryRecord(
        total_seconds=result.total_seconds,
        filter_seconds=result.filter_seconds,
        verify_seconds=result.verify_seconds,
        num_candidates=len(result.candidates),
        num_answers=len(result.answers),
        false_positive_ratio=result.false_positive_ratio,
    )


def summarize_records(records: Sequence[QueryRecord]) -> WorkloadStats:
    """Collapse per-query records into the paper's reported quantities.

    The one aggregation arithmetic: records concatenated back into
    original query order sum in that order and divide once, so a
    workload aggregates to bit-identical statistics however many
    batches answered it.
    """
    if not records:
        return WorkloadStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    count = len(records)
    return WorkloadStats(
        num_queries=count,
        avg_query_seconds=sum(r.total_seconds for r in records) / count,
        avg_filter_seconds=sum(r.filter_seconds for r in records) / count,
        avg_verify_seconds=sum(r.verify_seconds for r in records) / count,
        avg_candidates=sum(r.num_candidates for r in records) / count,
        avg_answers=sum(r.num_answers for r in records) / count,
        false_positive_ratio=sum(r.false_positive_ratio for r in records) / count,
    )


def summarize_results(results: Sequence[QueryResult]) -> WorkloadStats:
    """:func:`summarize_records` over full per-query results."""
    return summarize_records([record_of(result) for result in results])
