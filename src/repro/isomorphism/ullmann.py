"""Ullmann's subgraph isomorphism algorithm (1976), monomorphism variant.

The classic predecessor of VF2 and the usual baseline when comparing
verification algorithms.  Ullmann maintains a candidate matrix ``M``
(query vertex → feasible data vertices) and interleaves backtracking
with *refinement*: a candidate pair ``(u, d)`` survives only if every
query neighbor of ``u`` still has at least one candidate among ``d``'s
data neighbors.  Refinement propagates to a fixpoint, pruning far from
the failure point — at the cost of touching the whole matrix per node
of the search tree.

A query is compiled once per host (:func:`compile_query`) and then
searched as often as the caller likes — the single-graph regime pins a
different embedding root per search.  Domain rows and host adjacency
rows are plain Python ``int``\\ s, one bit per host vertex, so every
refinement step is one C-level AND/OR whatever the host's width (the
same trade :mod:`repro.utils.bitset` makes for fingerprints).  The host
is the whole data graph, or — when the caller supplies candidate
domains — the subgraph induced by their union, relabeled in ascending
order: domains only ever shrink, so every vertex the search can touch
is in that union, and the monotone relabel keeps iteration order, and
hence the search tree, exactly what it is over the whole graph.

The original per-vertex ``set[int]`` engine lives on as the
differential reference in ``tests/oracles.py``: both explore the *same*
search tree (candidates are iterated ascending, refinement passes visit
query vertices in the same order, and a domain emptied at the same step
fails at the same step), so accept/reject answers *and* budget poll
counts match exactly — pinned by ``tests/test_ullmann.py``.

The transactional regime verifies with VF2 everywhere (as every
benchmarked system does, §2.2); Ullmann verifies pinned embedding roots
in the single-graph regime, runs in the verification-algorithm ablation
in ``benchmarks/``, and is an independent oracle in tests.  Semantics are
identical to :mod:`repro.isomorphism.vf2`: subgraph *monomorphism* per
the paper's Definition 3.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence, Set

from repro.graphs.csr import as_core_query
from repro.graphs.protocol import LabeledGraph
from repro.utils.budget import Budget

__all__ = ["CompiledQuery", "compile_query", "ullmann_is_subgraph"]

#: Search-tree nodes between budget polls.
_BUDGET_POLL_INTERVAL = 512


def ullmann_is_subgraph(
    query: LabeledGraph,
    data: LabeledGraph,
    budget: Budget | None = None,
    domains: Sequence[Set[int]] | None = None,
) -> bool:
    """True iff *query* is subgraph-monomorphic to *data* (Def. 3).

    *domains*, when given, constrains the search: query vertex ``u``
    may only map into ``domains[u]`` (intersected with the built-in
    label/degree feasibility), and the search runs over the subgraph
    those domains induce.  ``None`` searches the whole graph.
    """
    if query.order == 0:
        return True
    compiled = compile_query(query, data, domains)
    return compiled is not None and compiled.embeds(budget)


def compile_query(
    query: LabeledGraph,
    data: LabeledGraph,
    domains: Sequence[Set[int]] | None = None,
) -> "CompiledQuery | None":
    """*query* compiled against *data*, or ``None`` when no embedding
    can exist (too large, or some query vertex has no feasible
    candidate).

    Per query vertex, the label- and degree-feasible data vertices are
    intersected with ``domains[u]``; with *domains* the host is the
    subgraph their union induces (one CSR row slice,
    :meth:`~repro.graphs.csr.CSRGraph.induced_subgraph`), otherwise the
    whole graph.
    """
    if query.order > data.order or query.size > data.size:
        return None
    candidates = _initial_candidates(query, data)
    if candidates is None:
        return None
    core = as_core_query(data)
    if domains is None:
        return CompiledQuery(query, core.adjacency_rows(), candidates, None)
    if len(domains) != query.order:
        raise ValueError(
            f"domains carries {len(domains)} entries for a "
            f"{query.order}-vertex query"
        )
    for u, feasible in enumerate(candidates):
        feasible &= domains[u]
        if not feasible:
            return None
    host, vertices = core.induced_subgraph(set().union(*candidates))
    index_of = {v: i for i, v in enumerate(vertices)}
    return CompiledQuery(
        query,
        host.adjacency_rows(),
        [[index_of[v] for v in feasible] for feasible in candidates],
        index_of,
    )


def _initial_candidates(
    query: LabeledGraph, data: LabeledGraph
) -> list[set[int]] | None:
    """Degree- and label-feasible candidate sets per query vertex, or
    ``None`` as soon as one is empty (computed once per pair)."""
    candidates: list[set[int]] = []
    for u in query.vertices():
        feasible = set(data.candidate_vertices(query.label(u), query.degree(u)))
        if not feasible:
            return None
        candidates.append(feasible)
    return candidates


class CompiledQuery:
    """One query compiled against one host, searchable many times.

    ``domains[u]`` packs query vertex ``u``'s feasible candidates into
    an ``int`` over host vertex ids, and ``adjacency[h]`` is host vertex
    ``h``'s adjacency row in the same bit space.  ``index_of`` maps a
    data vertex to its host id (``None``: the host is the whole graph,
    ids coincide).  ``nodes`` counts the search-tree nodes of the last
    budgeted search — the unit budget polls are scheduled on.
    """

    __slots__ = ("qneighbors", "adjacency", "domains", "index_of", "nodes")

    def __init__(
        self,
        query: LabeledGraph,
        adjacency: list[int],
        candidates: Sequence[Iterable[int]],
        index_of: dict[int, int] | None,
    ) -> None:
        self.qneighbors = [tuple(query.neighbors(u)) for u in query.vertices()]
        self.adjacency = adjacency
        self.domains = [_pack(members) for members in candidates]
        self.index_of = index_of
        self.nodes = 0

    def embeds(
        self, budget: Budget | None = None, pin: tuple[int, int] | None = None
    ) -> bool:
        """Does an embedding exist — with query vertex ``pin[0]`` mapped
        onto data vertex ``pin[1]``, when *pin* is given?"""
        self.nodes = 0
        domains = list(self.domains)
        if pin is not None:
            u, vertex = pin
            index = vertex if self.index_of is None else self.index_of.get(vertex)
            domains[u] &= 0 if index is None else 1 << index
            if not domains[u]:
                return False
        return self._search(0, domains, 0, budget)

    def _search(
        self, position: int, domains: list[int], used: int, budget: Budget | None
    ) -> bool:
        if position == len(domains):
            return True
        if budget is not None:
            self.nodes += 1
            if self.nodes % _BUDGET_POLL_INTERVAL == 0:
                budget.check()
        # Ascending bit order — the set engine's ``sorted()`` — minus
        # the vertices already assigned.
        row = domains[position] & ~used
        while row:
            bit = row & -row
            row ^= bit
            narrowed = self._assign(position, bit, domains)
            if narrowed is not None and self._search(
                position + 1, narrowed, used | bit, budget
            ):
                return True
        return False

    def _assign(
        self, position: int, bit: int, domains: list[int]
    ) -> list[int] | None:
        """Pin query vertex *position* to host vertex *bit* and refine
        to fixpoint."""
        narrowed = list(domains)
        narrowed[position] = bit
        # Neighbors must map into the image's adjacency (which never
        # holds the image itself: no self-loops, so injectivity is kept).
        row = self.adjacency[bit.bit_length() - 1]
        for u in self.qneighbors[position]:
            kept = narrowed[u] & row
            if not kept:
                return None
            narrowed[u] = kept
        return self._refine(narrowed)

    def _refine(self, domains: list[int]) -> list[int] | None:
        """Ullmann refinement to fixpoint via support masks.

        A candidate ``d`` of query vertex ``u`` survives a pass iff,
        for every query neighbor ``w``, ``d`` is adjacent to some
        current candidate of ``w`` — i.e. iff bit ``d`` is set in
        ``support(w)``, the OR of the adjacency rows of ``w``'s
        candidates.  So a pass is one AND per query edge:
        ``domains[u] &= support(w)``.  The survival predicate is a pure
        function of the *current* domains — exactly the set engine's
        inner loop — so supports are memoized per vertex and
        invalidated the moment that vertex's domain shrinks, keeping
        the two engines' search trees identical.
        """
        adjacency = self.adjacency
        supports: list[int | None] = [None] * len(domains)
        changed = True
        while changed:
            changed = False
            for u, neighbors in enumerate(self.qneighbors):
                if not neighbors:
                    continue
                row = domains[u]
                for w in neighbors:
                    mask = supports[w]
                    if mask is None:
                        mask = 0
                        members = domains[w]
                        while members:
                            bit = members & -members
                            members ^= bit
                            mask |= adjacency[bit.bit_length() - 1]
                        supports[w] = mask
                    row &= mask
                if row == domains[u]:
                    continue
                if not row:
                    return None
                domains[u] = row
                supports[u] = None
                changed = True
        return domains


def _pack(members: Iterable[int]) -> int:
    """One bit per member."""
    row = 0
    for index in members:
        row |= 1 << index
    return row
