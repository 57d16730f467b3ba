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

Everything those rules need from the *query* — the order, each
position's mapped anchors, label, degree, neighbor-label needs and
unmapped-neighbor count — is a :class:`MatchPlan`, compiled once per
admitted query (:func:`match_plan`) rather than once per (query, data)
pair.  The search itself is the reference matcher's, candidate for
candidate: ``tests/test_vf2.py`` pins equal embedding sequences and
equal budget node counts against ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from repro.graphs.csr import CSRGraph
from repro.graphs.protocol import LabeledGraph
from repro.isomorphism.heuristics import connectivity_order
from repro.utils.budget import Budget

__all__ = [
    "MatchPlan",
    "SubgraphMatcher",
    "count_embeddings",
    "find_embedding",
    "is_subgraph",
    "match_plan",
]

#: How many search-tree nodes between budget polls.
_BUDGET_POLL_INTERVAL = 2048

VertexOrder = Callable[[LabeledGraph, LabeledGraph | None], list[int]]


class MatchPlan:
    """The query half of a VF2 search, compiled once per query order.

    Position ``i`` of the search maps query vertex ``order[i]``.
    ``anchors[i]`` are its neighbors mapped at earlier positions (the
    images whose adjacencies candidate generation intersects);
    ``labels[i]`` and ``degrees[i]`` are its label and degree;
    ``needs[i]`` is its neighbor-label multiset as ``(label, count)``
    pairs; ``unmapped[i]`` is how many of its neighbors are still
    unmapped when it is placed — static, because the search maps the
    query in plan order.  ``histogram`` is the query's label histogram
    (the global label precheck).
    """

    __slots__ = (
        "order", "anchors", "labels", "degrees", "needs", "unmapped", "histogram"
    )

    def __init__(self, query: LabeledGraph, order: Sequence[int]) -> None:
        position_of = {v: i for i, v in enumerate(order)}
        counts = query.neighbor_label_counts()
        self.order = tuple(order)
        self.anchors = tuple(
            tuple(w for w in query.neighbors(v) if position_of[w] < i)
            for i, v in enumerate(order)
        )
        self.labels = tuple(query.label(v) for v in order)
        self.degrees = tuple(query.degree(v) for v in order)
        self.needs = tuple(tuple(counts[v].items()) for v in order)
        self.unmapped = tuple(
            degree - len(anchors)
            for degree, anchors in zip(self.degrees, self.anchors)
        )
        self.histogram = tuple(query.label_histogram().items())


def match_plan(
    query: LabeledGraph,
    data: LabeledGraph,
    ordering: VertexOrder = connectivity_order,
) -> MatchPlan:
    """The plan for matching *query* under *ordering* against *data*.

    The default :func:`connectivity_order` ignores the data graph, so
    its plan is compiled once per admitted :class:`CSRGraph` query and
    cached on it — every candidate graph, and every later request for
    the same admitted query, reuses it.  A data-dependent ordering
    (CT-Index's :func:`frequency_degree_order`) and a mutable builder
    query get a fresh plan per pair.
    """
    if ordering is connectivity_order and isinstance(query, CSRGraph):
        plan = query.match_plan
        if plan is None:
            plan = query.match_plan = MatchPlan(query, ordering(query))
        return plan
    return MatchPlan(query, ordering(query, data))


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
        self._plan = match_plan(query, data, ordering)
        # A CSRGraph amortizes these across every matcher built on the
        # same data graph; a builder Graph recomputes them per pair.
        self._data_labels = data.labels
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
        plan = self._plan
        if position == len(plan.order):
            yield dict(mapping)
            return
        self._poll_budget()

        q_vertex = plan.order[position]
        for d_vertex in self._candidates(position, mapping):
            if d_vertex in used:
                continue
            if not self._feasible(position, d_vertex, used):
                continue
            mapping[q_vertex] = d_vertex
            used.add(d_vertex)
            yield from self._search(position + 1, mapping, used)
            del mapping[q_vertex]
            used.discard(d_vertex)

    def _candidates(self, position: int, mapping: dict[int, int]):
        plan = self._plan
        anchors = plan.anchors[position]
        if not anchors:
            # New component root: any data vertex with the right label
            # and enough degree (vertices dropped here would fail
            # _feasible's degree rule anyway).
            return self.data.candidate_vertices(
                plan.labels[position], plan.degrees[position]
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

    def _feasible(self, position: int, d_vertex: int, used: set[int]) -> bool:
        plan = self._plan
        if plan.labels[position] != self._data_labels[d_vertex]:
            return False
        d_neighbors = self.data.neighbors(d_vertex)
        if plan.degrees[position] > len(d_neighbors):
            return False
        # Lookahead: unmapped query neighbors need distinct unused slots.
        unmapped = plan.unmapped[position]
        if unmapped and unmapped > sum(1 for x in d_neighbors if x not in used):
            return False
        # Neighbor-label dominance.
        d_counts = self._data_neighbor_labels[d_vertex]
        for lbl, needed in plan.needs[position]:
            if d_counts.get(lbl, 0) < needed:
                return False
        return True

    def _labels_compatible(self) -> bool:
        """Global precheck: per-label vertex counts must dominate."""
        data_histogram = self.data.label_histogram()
        for lbl, needed in self._plan.histogram:
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
