"""The six workloads, by the names ``BENCHMARK.json`` declares.

Shapes are fixed here; only ``--seed`` varies the inputs.  Each shape
was chosen so one layer does most of the work (the *why* lines live in
``BENCHMARK.json`` and the README) and so a run fits the benchmark's
run-time cap: set-up three times, a timed phase of ``--seconds``, the
correctness checks, all in well under half a minute.
"""

from __future__ import annotations

from adapters import RMATConfig, uniform_graphs
from workload_query import SINGLE_GRAPH, QueryShape, QueryWorkload
from workload_serve import ServeWorkload
from workload_sweep import SweepWorkload

__all__ = ["WORKLOADS", "make_workload"]

QUERY_SHAPES = {
    # Label-rich and sparse: filters cut the candidate set to a few
    # graphs, so filtering is most of a query and verification is small.
    "txn_selective": QueryShape(
        config=uniform_graphs(60, nodes=40, density=0.08, labels=8),
        quick_config=uniform_graphs(10, nodes=40, density=0.08, labels=8),
        roster=("grapes", "ggsx", "ctindex", "gcode", "cni"),
        sizes=(4, 8, 16),
        queries_per_size=1200,
    ),
    # Three labels and dense: nearly every graph survives every filter,
    # so verification (VF2 and its two variants) is nearly all of a query.
    "txn_dense": QueryShape(
        config=uniform_graphs(30, nodes=40, density=0.12, labels=3),
        quick_config=uniform_graphs(6, nodes=40, density=0.12, labels=3),
        roster=("ggsx", "grapes", "ctindex"),
        sizes=(4, 8),
        queries_per_size=900,
    ),
    # One R-MAT graph, embedding roots as answers: STwig pruning and a
    # pinned-root Ullmann search per candidate root, nothing else.  The
    # graph is the workload's database, the same for every seed, as the
    # billion-node literature treats it: a handful of hubs carry most
    # walks, so which labels they drew moves latency by 10 % from one
    # graph to the next, and no number of queries averages that out.
    "massive_rmat12": QueryShape(
        config=RMATConfig(scale=12, edge_factor=8, num_labels=64),
        quick_config=RMATConfig(scale=9, edge_factor=8, num_labels=64),
        roster=("cni",),
        sizes=(4, 6),
        queries_per_size=900,
        regime=SINGLE_GRAPH,
        budget_seconds=30.0,
        naive_sample=10,
        dataset_seed=2015,
    ),
}

WORKLOADS = ("sweep_graphs", *QUERY_SHAPES, "serve_read", "serve_mixed")


def make_workload(name: str, **common):
    """Instantiate the workload called *name* (``common``: seed, quick, ...)."""
    if name == "sweep_graphs":
        return SweepWorkload(name=name, **common)
    if name in QUERY_SHAPES:
        return QueryWorkload(name=name, shape=QUERY_SHAPES[name], **common)
    if name in ("serve_read", "serve_mixed"):
        return ServeWorkload(name=name, mixed=name == "serve_mixed", **common)
    raise KeyError(name)
