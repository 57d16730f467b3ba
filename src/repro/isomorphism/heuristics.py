"""Query-vertex ordering heuristics for VF2.

The order in which VF2 maps query vertices dominates its running time.
Two strategies are provided:

* :func:`connectivity_order` — the plain VF2 behaviour: explore the
  query so that (within each connected component) every vertex after the
  first is adjacent to an already-ordered vertex.  Used by Grapes,
  GGSX, gIndex, Tree+Δ and gCode, whose original implementations call
  stock VF2.
* :func:`frequency_degree_order` — the CT-Index refinement: start from
  the rarest-label, highest-degree vertices so the search fails fast.
  This is the "modified VF2 algorithm with additional heuristics" that
  lets CT-Index trade filtering power for verification speed (§3, §5).
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.canonical.order import label_key
from repro.graphs.protocol import LabeledGraph

__all__ = ["connectivity_order", "frequency_degree_order", "frequency_ranks"]


def connectivity_order(
    query: LabeledGraph, data: LabeledGraph | None = None
) -> list[int]:
    """Order query vertices connectivity-first, by increasing id.

    Starts each component at its smallest vertex id and grows by always
    appending the smallest unvisited vertex adjacent to the ordered
    prefix.  Deterministic and data-independent.
    """
    ordered: list[int] = []
    visited = [False] * query.order
    for start in query.vertices():
        if visited[start]:
            continue
        visited[start] = True
        ordered.append(start)
        frontier = {w for w in query.neighbors(start) if not visited[w]}
        while frontier:
            v = min(frontier)
            visited[v] = True
            ordered.append(v)
            frontier.discard(v)
            frontier.update(w for w in query.neighbors(v) if not visited[w])
    return ordered


def frequency_degree_order(
    query: LabeledGraph, data: LabeledGraph | None = None
) -> list[int]:
    """CT-Index-style ordering: rare labels and high degrees first.

    The first vertex of each component is the one whose label is rarest
    in *data* (falling back to rarity within the query when no data
    graph is supplied), breaking ties by descending degree.  Subsequent
    vertices stay connected to the prefix, again preferring rare labels
    and high degree, so infeasible branches are pruned near the root.
    """
    if data is not None:
        frequency: dict[object, int] = data.label_histogram()
    else:
        frequency = query.label_histogram()

    rank = [
        (
            frequency.get(query.label(v), 0),
            -query.degree(v),
            label_key(query.label(v)),
            v,
        )
        for v in query.vertices()
    ]

    ordered: list[int] = []
    remaining = set(query.vertices())
    while remaining:
        # Each component starts at its best-ranked vertex and grows by
        # the best-ranked vertex adjacent to the ordered prefix.
        frontier = {min(remaining, key=rank.__getitem__)}
        while frontier:
            chosen = min(frontier, key=rank.__getitem__)
            ordered.append(chosen)
            remaining.discard(chosen)
            frontier.discard(chosen)
            frontier.update(w for w in query.neighbors(chosen) if w in remaining)
    return ordered


def frequency_ranks(
    labels: Sequence[Hashable], data: LabeledGraph
) -> tuple[int, ...]:
    """Dense ranks of *labels*' vertex counts in *data*.

    All :func:`frequency_degree_order` reads from its data graph is how
    the query labels' frequencies compare with one another, so two data
    graphs with equal ranks for the query's labels yield the same order
    — and the same VF2 plan.
    """
    histogram = data.label_histogram()
    counts = [histogram.get(label, 0) for label in labels]
    rank = {count: i for i, count in enumerate(sorted(set(counts)))}
    return tuple(rank[count] for count in counts)
