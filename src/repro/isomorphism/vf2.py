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

The search runs on bit rows, the design of
:mod:`repro.isomorphism.ullmann`: one Python ``int`` per data vertex
with bit ``w`` set iff ``w`` is a neighbor
(:meth:`~repro.graphs.csr.CSRGraph.adjacency_rows`).  The label,
degree and neighbor-label rules depend only on the query vertex and the
candidate, so they are packed once per data graph and
``(label, degree, needs)`` key into a *feasible row*
(:meth:`~repro.graphs.csr.CSRGraph.feasible_rows`, cached on the graph).
A position's candidates are then one expression — its feasible row AND
the adjacency rows of its mapped neighbors' images AND the free
(unused) vertices — tried in ascending id order, and the lookahead is
one popcount: ``(adjacency[v] & free).bit_count() >= unmapped``.  A
caller may confine the free row to a vertex mask (Grapes' marked
components, :meth:`SubgraphMatcher.with_plan`).

Everything the search needs from the *query* — the order, each
position's mapped anchors, feasible-row key and unmapped-neighbor
count — is a :class:`MatchPlan`, compiled once per admitted query
(:func:`match_plan`) rather than once per (query, data) pair.

``tests/oracles.py`` keeps the matcher this replaced, which intersects
neighbor sets and checks each rule per candidate.  Asked to try
candidates in ascending order it walks the same search tree:
``tests/test_vf2.py`` pins equal embedding sequences and equal budget
node counts against it, and the same embedding set against its
set-iteration order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from repro.graphs.csr import CSRGraph, as_core_query
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
    ``anchors[i]`` are the earlier *positions* holding its neighbors
    (the images whose adjacency rows its candidates are ANDed with);
    ``keys[i]`` is ``(label, degree, needs)`` — its label, its degree
    and its neighbor-label multiset as a frozenset of ``(label, count)``
    pairs — the key of its feasible row on every data graph
    (:meth:`~repro.graphs.csr.CSRGraph.feasible_rows`); ``unmapped[i]``
    is how many of its neighbors are still unmapped when it is placed —
    static, because the search maps the query in plan order.
    ``histogram`` is the query's label histogram (the global label
    precheck).
    """

    __slots__ = ("order", "anchors", "keys", "unmapped", "histogram")

    def __init__(self, query: LabeledGraph, order: Sequence[int]) -> None:
        position_of = {v: i for i, v in enumerate(order)}
        labels = query.labels
        anchors = []
        keys = []
        for i, v in enumerate(order):
            neighbors = query.neighbors(v)
            earlier = (position_of[w] for w in neighbors)
            anchors.append(_shared(tuple(sorted(p for p in earlier if p < i))))
            # The needs are counted here and dropped: nothing per
            # vertex stays cached on the query beyond the shared keys.
            needs: dict = {}
            for w in neighbors:
                needs[labels[w]] = needs.get(labels[w], 0) + 1
            keys.append(_shared((labels[v], len(neighbors), frozenset(needs.items()))))
        self.keys = tuple(keys)
        self.order = _shared(tuple(order))
        self.anchors = _shared(tuple(anchors))
        self.unmapped = _shared(
            tuple(key[1] - len(a) for key, a in zip(self.keys, anchors))
        )
        self.histogram = _shared(tuple(query.label_histogram().items()))


#: Interned plan parts (see :func:`_shared`), and the size at which the
#: table starts over.
_SHARED: dict = {}
_SHARED_LIMIT = 1 << 16


def _shared(value):
    """The one interned object equal to *value*.

    Plans of different queries mostly repeat the same keys, anchor
    tuples and shapes, and every admitted query keeps its plan; interning
    the parts keeps a cached plan to a few references.  The table is
    process-wide and holds only immutable values, so sharing is a saving
    and never a semantic: it starts over when it reaches
    ``_SHARED_LIMIT`` entries.
    """
    if len(_SHARED) >= _SHARED_LIMIT:
        _SHARED.clear()
    return _SHARED.setdefault(value, value)


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
    query get a fresh plan per call.
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

    :meth:`with_plan` builds one from an already compiled
    :class:`MatchPlan`, optionally confined to a vertex mask.
    """

    def __init__(
        self,
        query: LabeledGraph,
        data: LabeledGraph,
        ordering: VertexOrder = connectivity_order,
        budget: Budget | None = None,
    ) -> None:
        self._setup(match_plan(query, data, ordering), query, data, budget, -1)

    @classmethod
    def with_plan(
        cls,
        plan: MatchPlan,
        query: LabeledGraph,
        data: LabeledGraph,
        budget: Budget | None = None,
        mask: int = -1,
    ) -> "SubgraphMatcher":
        """A matcher searching *data* under *plan* (compiled for
        *query*), mapping query vertices only into the vertices whose
        bits *mask* sets (``-1``: every vertex)."""
        matcher = cls.__new__(cls)
        matcher._setup(plan, query, data, budget, mask)
        return matcher

    def _setup(
        self,
        plan: MatchPlan,
        query: LabeledGraph,
        data: LabeledGraph,
        budget: Budget | None,
        mask: int,
    ) -> None:
        self.query = query
        self.data = data
        self._budget = budget
        self._nodes_visited = 0
        self._plan = plan
        self._mask = mask

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def exists(self) -> bool:
        """True iff at least one monomorphism exists (first-match mode).

        This mirrors the benchmarked configuration: the paper patched
        Grapes so that *all* systems stop at the first match (§4.1).
        """
        if self.query.order == 0:
            return True
        prepared = self._prepare()
        if prepared is None:
            return False
        adjacency, feasible, free = prepared
        anchors, unmapped = self._plan.anchors, self._plan.unmapped
        last = len(feasible) - 1
        images = [0] * len(feasible)
        budget = self._budget

        def search(position: int, free: int) -> bool:
            if budget is not None:
                self._nodes_visited += 1
                if self._nodes_visited % _BUDGET_POLL_INTERVAL == 0:
                    budget.check()
            row = feasible[position] & free
            for anchor in anchors[position]:
                row &= adjacency[images[anchor]]
            need = unmapped[position]
            while row:
                bit = row & -row
                row ^= bit
                vertex = bit.bit_length() - 1
                # Lookahead: unmapped query neighbors need distinct
                # free slots around the image.
                if need and (adjacency[vertex] & free).bit_count() < need:
                    continue
                if position == last:
                    return True
                images[position] = vertex
                if search(position + 1, free ^ bit):
                    return True
            return False

        return search(0, free)

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
        prepared = self._prepare()
        if prepared is None:
            return
        adjacency, feasible, free = prepared
        plan = self._plan
        order, anchors, unmapped = plan.order, plan.anchors, plan.unmapped
        images = [0] * len(feasible)
        budget = self._budget

        def search(position: int, free: int) -> Iterator[dict[int, int]]:
            if position == len(images):
                yield dict(zip(order, images))
                return
            if budget is not None:
                self._nodes_visited += 1
                if self._nodes_visited % _BUDGET_POLL_INTERVAL == 0:
                    budget.check()
            row = feasible[position] & free
            for anchor in anchors[position]:
                row &= adjacency[images[anchor]]
            need = unmapped[position]
            while row:
                bit = row & -row
                row ^= bit
                vertex = bit.bit_length() - 1
                if need and (adjacency[vertex] & free).bit_count() < need:
                    continue
                images[position] = vertex
                yield from search(position + 1, free ^ bit)

        yield from search(0, free)

    # ------------------------------------------------------------------
    # search set-up
    # ------------------------------------------------------------------

    def _prepare(self) -> tuple[list[int], list[int], int] | None:
        """The host's adjacency rows, each plan position's feasible row
        and the initial free row (the mask), or ``None`` when a global
        precheck already rules every embedding out."""
        query, data = self.query, self.data
        if query.order > data.order or query.size > data.size:
            return None
        data_histogram = data.label_histogram()
        for lbl, needed in self._plan.histogram:
            if data_histogram.get(lbl, 0) < needed:
                return None
        host = as_core_query(data)
        return (
            host.adjacency_rows(),
            host.feasible_rows(self._plan.keys),
            self._mask & ((1 << host.order) - 1),
        )


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
