"""Exhaustive simple-path enumeration with counts and locations.

Grapes and GraphGrepSX both index every simple path of up to a maximum
number of edges, found by depth-first search from every vertex (§3).
Grapes additionally records *location information*: the ids of the
vertices where each path starts, plus an occurrence counter per graph.

Counting semantics: every *directed traversal* of a path counts one
occurrence, so a (non-palindromic) path instance contributes two — once
from each endpoint.  What matters for filtering correctness is that the
same convention applies to data graphs and queries: a monomorphism maps
traversals injectively, hence query counts never exceed data counts for
contained queries.

The enumeration runs directly over the CSR arrays: an iterative DFS
over ``indptr``/``indices`` with preallocated int stacks, per-vertex
label *ids* instead of label objects, and canonical-label lookups
memoized per id-sequence across the whole run.  The recursive walk it
replaced is kept as the reference in ``tests/oracles.py``; on a CSR
graph the two produce the identical dict, insertion order included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.canonical.paths import path_canonical
from repro.graphs.csr import as_core_query
from repro.graphs.protocol import LabeledGraph
from repro.utils.budget import Budget

__all__ = ["PathOccurrences", "path_features"]


@dataclass(slots=True)
class PathOccurrences:
    """Aggregate of one path feature inside one graph."""

    #: Number of directed traversals realizing the feature.
    count: int = 0
    #: Vertices at which some traversal of the feature starts.
    starts: set[int] = field(default_factory=set)


def path_features(
    graph: LabeledGraph,
    max_edges: int,
    include_vertices: bool = True,
    budget: Budget | None = None,
) -> dict[tuple, PathOccurrences]:
    """Enumerate all simple paths of ``0..max_edges`` edges in *graph*.

    Parameters
    ----------
    graph:
        Host graph (a builder graph is converted to CSR first).
    max_edges:
        Maximum feature size (edges per path); must be ≥ 0.
    include_vertices:
        Whether to include size-0 features (single labeled vertices).
        Both Grapes and GGSX match single-vertex query labels, so this
        defaults to on.
    budget:
        Optional time budget, polled once per start vertex.

    Returns
    -------
    dict
        Canonical path label (tuple of vertex labels) → occurrence
        aggregate.
    """
    if max_edges < 0:
        raise ValueError(f"max_edges must be non-negative, got {max_edges}")
    graph = as_core_query(graph)
    indptr_arr, indices_arr = graph.adjacency_arrays()
    indptr: list[int] = indptr_arr.tolist()
    indices: list[int] = indices_arr.tolist()
    label_ids: list[int] = graph.label_ids_array().tolist()
    table = graph.label_table
    order = len(label_ids)

    features: dict[tuple, PathOccurrences] = {}
    #: label-id sequence -> canonical label tuple, shared across starts.
    canon_of: dict[tuple[int, ...], tuple] = {}
    on_path = bytearray(order)
    # Preallocated DFS stacks: vertex, resume cursor into ``indices``,
    # and the label-id run of the current path (depth == edges so far).
    vstack = [0] * (max_edges + 1)
    cstack = [0] * (max_edges + 1)
    lstack = [0] * (max_edges + 1)

    def record(ids: tuple[int, ...], start: int) -> None:
        canonical = canon_of.get(ids)
        if canonical is None:
            canonical = canon_of[ids] = path_canonical(
                [table[i] for i in ids]
            )
        entry = features.get(canonical)
        if entry is None:
            entry = features[canonical] = PathOccurrences()
        entry.count += 1
        entry.starts.add(start)

    for start in range(order):
        if budget is not None:
            budget.check()
        if include_vertices:
            record((label_ids[start],), start)
        if max_edges == 0:
            continue
        on_path[start] = 1
        depth = 0
        vstack[0] = start
        cstack[0] = indptr[start]
        lstack[0] = label_ids[start]
        while depth >= 0:
            v = vstack[depth]
            cursor = cstack[depth]
            end = indptr[v + 1]
            descended = False
            while cursor < end:
                w = indices[cursor]
                cursor += 1
                if on_path[w]:
                    continue
                lid = label_ids[w]
                lstack[depth + 1] = lid
                record(tuple(lstack[: depth + 2]), start)
                if depth + 1 < max_edges:
                    cstack[depth] = cursor
                    depth += 1
                    on_path[w] = 1
                    vstack[depth] = w
                    cstack[depth] = indptr[w]
                    descended = True
                    break
            if descended:
                continue
            on_path[v] = 0
            depth -= 1
    return features
