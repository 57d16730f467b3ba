"""Enumeration of simple cycles up to a length limit.

CT-Index combines tree features with *simple cycle* features (§3), and
Tree+Δ derives its Δ features from the simple cycles of query graphs.
The enumeration below produces each cycle exactly once using the
classic anchored scheme: a cycle is reported from its minimum-id vertex
(the anchor), growing simple paths through vertices larger than the
anchor, and accepting a closure back to the anchor only when the second
path vertex is smaller than the last — fixing one of the two traversal
directions.  The search is an iterative DFS over the raw CSR
``indptr``/``indices`` lists; the recursive walk it replaced is the
reference in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.graphs.csr import as_core_query
from repro.graphs.protocol import LabeledGraph
from repro.utils.budget import Budget

__all__ = ["enumerate_simple_cycles"]


def enumerate_simple_cycles(
    graph: LabeledGraph, max_edges: int, budget: Budget | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield each simple cycle of ``3..max_edges`` edges exactly once.

    Cycles are yielded as vertex tuples in cyclic order, starting at the
    cycle's minimum-id vertex.  A cycle of *k* vertices has *k* edges,
    so ``max_edges`` bounds both.
    """
    if max_edges < 3:
        return
    indptr_arr, indices_arr = as_core_query(graph).adjacency_arrays()
    indptr: list[int] = indptr_arr.tolist()
    indices: list[int] = indices_arr.tolist()
    order = len(indptr) - 1

    on_path = bytearray(order)
    # One frame per path vertex: the vertex and its resume cursor.
    path = [0] * max_edges
    cstack = [0] * max_edges

    for anchor in range(order):
        if budget is not None:
            budget.check()
        on_path[anchor] = 1
        depth = 0  # index of the path's last vertex
        path[0] = anchor
        cstack[0] = indptr[anchor]
        while depth >= 0:
            v = path[depth]
            cursor = cstack[depth]
            end = indptr[v + 1]
            descended = False
            while cursor < end:
                w = indices[cursor]
                cursor += 1
                if w == anchor:
                    # Closing edge: ≥ 3 vertices and a fixed direction.
                    if depth >= 2 and path[1] < path[depth]:
                        yield tuple(path[: depth + 1])
                    continue
                if w < anchor or on_path[w]:
                    continue
                if depth + 1 == max_edges:
                    continue  # one more vertex would exceed the limit
                cstack[depth] = cursor
                depth += 1
                on_path[w] = 1
                path[depth] = w
                cstack[depth] = indptr[w]
                descended = True
                break
            if descended:
                continue
            on_path[v] = 0
            depth -= 1
