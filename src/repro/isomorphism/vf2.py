"""VF2 subgraph monomorphism (paper Definition 3).

Given a query graph ``q`` and a data graph ``g``, find injective
mappings ``I`` of query vertices to data vertices such that labels agree
and every query edge maps to a data edge (extra data edges permitted —
*monomorphism*, not induced isomorphism).

This is the verification stage of all six benchmarked methods.  The
implementation follows VF2's state-space search with its feasibility
rules adapted to monomorphism:

* **label rule** — ``L(v) == L(I(v))``;
* **core rule** — every already-mapped query neighbor of the next query
  vertex must map to a data neighbor of the candidate;
* **degree / lookahead rule** — the candidate must have at least as many
  *unused* neighbors as the query vertex has *unmapped* neighbors (each
  of which must eventually occupy a distinct data neighbor);
* **neighbor-label rule** — the candidate's neighbor-label multiset must
  dominate the query vertex's (a cheap static refinement that CT-Index's
  tweaked matcher exploits).

Matching generates candidates by intersecting the data-neighbor sets of
the images of mapped query neighbors, so the branching factor collapses
quickly on labeled graphs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.graphs.protocol import LabeledGraph
from repro.isomorphism.heuristics import connectivity_order
from repro.utils.budget import Budget

__all__ = ["SubgraphMatcher", "is_subgraph", "find_embedding", "count_embeddings"]

#: How many search-tree nodes between budget polls.
_BUDGET_POLL_INTERVAL = 2048

VertexOrder = Callable[[LabeledGraph, LabeledGraph | None], list[int]]


class SubgraphMatcher:
    """Reusable matcher for one (query, data) pair.

    Parameters
    ----------
    query, data:
        The pattern and the host graph.
    ordering:
        Strategy producing the query-vertex exploration order; defaults
        to :func:`~repro.isomorphism.heuristics.connectivity_order`.
    budget:
        Optional :class:`~repro.utils.budget.Budget` polled during the
        search, so runaway verifications honour the experiment limit.
    """

    def __init__(
        self,
        query: LabeledGraph,
        data: LabeledGraph,
        ordering: VertexOrder = connectivity_order,
        budget: Budget | None = None,
    ) -> None:
        self.query = query
        self.data = data
        self._budget = budget
        self._nodes_visited = 0
        self._order = ordering(query, data)
        # Earlier-mapped neighbors per position, so candidate generation
        # can intersect image adjacencies without rescanning.
        position_of = {v: i for i, v in enumerate(self._order)}
        self._mapped_neighbors: list[list[int]] = [
            [w for w in query.neighbors(v) if position_of[w] < i]
            for i, v in enumerate(self._order)
        ]
        self._query_neighbor_labels = query.neighbor_label_counts()
        # A CSRGraph amortizes these across every matcher built on the
        # same data graph; a builder Graph (Grapes' component
        # projections) recomputes them per pair.
        self._data_neighbor_labels = data.neighbor_label_counts()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def exists(self) -> bool:
        """True iff at least one monomorphism exists (first-match mode).

        This mirrors the benchmarked configuration: the paper patched
        Grapes so that *all* systems stop at the first match (§4.1).
        """
        for _ in self.iter_embeddings():
            return True
        return False

    def first(self) -> dict[int, int] | None:
        """The first embedding found, or ``None``."""
        for embedding in self.iter_embeddings():
            return embedding
        return None

    def count(self, limit: int | None = None) -> int:
        """Number of embeddings, optionally stopping at *limit*."""
        found = 0
        for _ in self.iter_embeddings():
            found += 1
            if limit is not None and found >= limit:
                break
        return found

    def iter_embeddings(self) -> Iterator[dict[int, int]]:
        """Yield each embedding as a query-vertex → data-vertex dict."""
        if self.query.order == 0:
            yield {}
            return
        if self.query.order > self.data.order or self.query.size > self.data.size:
            return
        if not self._labels_compatible():
            return
        mapping: dict[int, int] = {}
        used: set[int] = set()
        yield from self._search(0, mapping, used)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def _search(
        self, position: int, mapping: dict[int, int], used: set[int]
    ) -> Iterator[dict[int, int]]:
        if position == len(self._order):
            yield dict(mapping)
            return
        self._poll_budget()

        q_vertex = self._order[position]
        for d_vertex in self._candidates(position, mapping):
            if d_vertex in used:
                continue
            if not self._feasible(q_vertex, d_vertex, mapping, used):
                continue
            mapping[q_vertex] = d_vertex
            used.add(d_vertex)
            yield from self._search(position + 1, mapping, used)
            del mapping[q_vertex]
            used.discard(d_vertex)

    def _candidates(self, position: int, mapping: dict[int, int]):
        q_vertex = self._order[position]
        anchors = self._mapped_neighbors[position]
        if not anchors:
            # New component root: any data vertex with the right label
            # and enough degree (vertices dropped here would fail
            # _feasible's degree rule anyway).
            return self.data.candidate_vertices(
                self.query.label(q_vertex), self.query.degree(q_vertex)
            )
        # Intersect the data adjacencies of the mapped anchor images,
        # starting from the smallest to keep the working set tiny.
        neighbor_sets = sorted(
            (self.data.neighbor_set(mapping[w]) for w in anchors), key=len
        )
        candidates = set(neighbor_sets[0])
        for neighbor_set in neighbor_sets[1:]:
            candidates &= neighbor_set
            if not candidates:
                break
        return candidates

    def _feasible(
        self, q_vertex: int, d_vertex: int, mapping: dict[int, int], used: set[int]
    ) -> bool:
        if self.query.label(q_vertex) != self.data.label(d_vertex):
            return False
        if self.query.degree(q_vertex) > self.data.degree(d_vertex):
            return False
        # Lookahead: unmapped query neighbors need distinct unused slots.
        unmapped_q = sum(
            1 for w in self.query.neighbors(q_vertex) if w not in mapping
        )
        if unmapped_q:
            unused_d = sum(
                1 for x in self.data.neighbors(d_vertex) if x not in used
            )
            if unmapped_q > unused_d:
                return False
        # Neighbor-label dominance.
        q_counts = self._query_neighbor_labels[q_vertex]
        d_counts = self._data_neighbor_labels[d_vertex]
        for lbl, needed in q_counts.items():
            if d_counts.get(lbl, 0) < needed:
                return False
        return True

    def _labels_compatible(self) -> bool:
        """Global precheck: per-label vertex counts must dominate."""
        data_histogram = self.data.label_histogram()
        for lbl, needed in self.query.label_histogram().items():
            if data_histogram.get(lbl, 0) < needed:
                return False
        return True

    def _poll_budget(self) -> None:
        if self._budget is None:
            return
        self._nodes_visited += 1
        if self._nodes_visited % _BUDGET_POLL_INTERVAL == 0:
            self._budget.check()


# ----------------------------------------------------------------------
# module-level conveniences
# ----------------------------------------------------------------------


def is_subgraph(
    query: LabeledGraph,
    data: LabeledGraph,
    ordering: VertexOrder = connectivity_order,
    budget: Budget | None = None,
) -> bool:
    """True iff *query* is subgraph-monomorphic to *data* (Def. 3)."""
    return SubgraphMatcher(query, data, ordering=ordering, budget=budget).exists()


def find_embedding(
    query: LabeledGraph,
    data: LabeledGraph,
    ordering: VertexOrder = connectivity_order,
    budget: Budget | None = None,
) -> dict[int, int] | None:
    """First embedding of *query* in *data*, or ``None``."""
    return SubgraphMatcher(query, data, ordering=ordering, budget=budget).first()


def count_embeddings(
    query: LabeledGraph,
    data: LabeledGraph,
    limit: int | None = None,
    ordering: VertexOrder = connectivity_order,
    budget: Budget | None = None,
) -> int:
    """Number of embeddings (optionally capped at *limit*)."""
    return SubgraphMatcher(query, data, ordering=ordering, budget=budget).count(limit)
