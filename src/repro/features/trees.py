"""Enumeration of connected edge subsets and subtrees.

CT-Index exhaustively enumerates every *tree-shaped* substructure of up
to a size limit (§3).  We enumerate connected edge subsets uniquely with
the ESU algorithm (Wernicke 2006) applied to the line graph — two edges
are adjacent iff they share an endpoint, and a set of edges induces a
connected subgraph iff it is connected in the line graph.  ESU's
root-anchored, exclusive-neighborhood extension discipline guarantees
each subset is produced exactly once, with no global "seen" table.

For trees, subsets that acquire a cycle are pruned immediately: adding
edges never removes a cycle, and every connected subset of a tree's
edge set is itself a tree, so the pruned search still reaches every
subtree exactly once.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.graphs.csr import as_core_query
from repro.graphs.protocol import LabeledGraph
from repro.utils.budget import Budget

__all__ = ["connected_edge_subsets", "enumerate_trees"]

Edge = tuple[int, int]


def _edge_list(graph: LabeledGraph) -> list[Edge]:
    """All edges as ``(u, v)`` tuples with ``u < v``, in one shot.

    The ESU enumeration only touches the host graph through its edge
    list; it is extracted in one vectorized pass over the CSR arrays.
    Row order — ascending ``u``, then ascending ``v`` — matches
    ``CSRGraph.edges()`` exactly.
    """
    indptr, indices = as_core_query(graph).adjacency_arrays()
    if not indices.shape[0]:
        return []
    rows = np.repeat(
        np.arange(indptr.shape[0] - 1, dtype=np.int64), np.diff(indptr)
    )
    keep = rows < indices
    return list(zip(rows[keep].tolist(), indices[keep].tolist()))


def connected_edge_subsets(
    graph: LabeledGraph,
    max_edges: int,
    trees_only: bool = False,
    budget: Budget | None = None,
) -> Iterator[tuple[Edge, ...]]:
    """Yield every connected edge subset of size ``1..max_edges`` once.

    Subsets are yielded as tuples of ``(u, v)`` edges with ``u < v``, in
    discovery order.  With ``trees_only`` the enumeration is restricted
    to acyclic subsets (subtrees).
    """
    if max_edges < 1:
        return
    edges = _edge_list(graph)
    incident: dict[int, list[int]] = {}
    for index, (u, v) in enumerate(edges):
        incident.setdefault(u, []).append(index)
        incident.setdefault(v, []).append(index)
    neighbors: list[set[int]] = [
        {other for w in edge for other in incident[w] if other != index}
        for index, edge in enumerate(edges)
    ]

    subset: list[int] = []
    subset_ids: set[int] = set()
    subset_vertices: set[int] = set()

    def extend(hood: set[int], ext: set[int], root: int) -> Iterator[tuple[Edge, ...]]:
        """ESU extension step.

        ``hood`` is the exact line-graph neighborhood of the current
        subset (adjacent edge ids, subset excluded); ``ext`` the ESU
        extension set.  A candidate's *exclusive* neighbors — adjacent
        to it but to no current subset edge — join the extension, so
        each subset is reachable along exactly one generation path.
        """
        yield tuple(edges[i] for i in subset)
        if len(subset) == max_edges:
            return
        ext_work = set(ext)
        while ext_work:
            candidate = ext_work.pop()
            u, v = edges[candidate]
            if trees_only and u in subset_vertices and v in subset_vertices:
                continue
            exclusive = {
                x
                for x in neighbors[candidate]
                if x > root and x not in hood and x not in subset_ids
            }
            new_hood = (hood | neighbors[candidate]) - subset_ids
            new_hood.discard(candidate)
            subset.append(candidate)
            subset_ids.add(candidate)
            added_vertices = {u, v} - subset_vertices
            subset_vertices.update(added_vertices)
            yield from extend(new_hood, ext_work | exclusive, root)
            subset.pop()
            subset_ids.discard(candidate)
            subset_vertices.difference_update(added_vertices)

    for root in range(len(edges)):
        if budget is not None:
            budget.check()
        subset.append(root)
        subset_ids.add(root)
        subset_vertices.update(edges[root])
        hood = set(neighbors[root])
        ext = {x for x in neighbors[root] if x > root}
        yield from extend(hood, ext, root)
        subset.pop()
        subset_ids.discard(root)
        subset_vertices.clear()


def enumerate_trees(
    graph: LabeledGraph, max_edges: int, budget: Budget | None = None
) -> Iterator[tuple[Edge, ...]]:
    """Yield every subtree (acyclic connected edge subset) up to the limit."""
    yield from connected_edge_subsets(graph, max_edges, trees_only=True, budget=budget)
