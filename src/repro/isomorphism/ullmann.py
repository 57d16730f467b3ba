"""Ullmann's subgraph isomorphism algorithm (1976), monomorphism variant.

The classic predecessor of VF2 and the usual baseline when comparing
verification algorithms.  Ullmann maintains a candidate matrix ``M``
(query vertex → feasible data vertices) and interleaves backtracking
with *refinement*: a candidate pair ``(u, d)`` survives only if every
query neighbor of ``u`` still has at least one candidate among ``d``'s
data neighbors.  Refinement propagates to a fixpoint, pruning far from
the failure point — at the cost of touching the whole matrix per node
of the search tree.

Candidate domains are packed uint64 rows, one bit per data vertex;
refinement is numpy bitwise AND + ``any`` over whole rows against the
data graph's packed adjacency bit matrix (cached on the
:class:`~repro.graphs.csr.CSRGraph`).  The original per-vertex
``set[int]`` engine lives on as the differential reference in
``tests/oracles.py``: both explore the *same* search tree (candidates
are iterated ascending, refinement passes visit query vertices in the
same order, and a domain emptied at the same step fails at the same
step), so accept/reject answers *and* budget poll counts match exactly
— pinned by ``tests/test_ullmann.py``.

The transactional regime verifies with VF2 everywhere (as every
benchmarked system does, §2.2); Ullmann verifies pinned embedding roots
in the single-graph regime, runs in the verification-algorithm ablation
in ``benchmarks/``, and is an independent oracle in tests.  Semantics are
identical to :mod:`repro.isomorphism.vf2`: subgraph *monomorphism* per
the paper's Definition 3.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import as_core_query
from repro.graphs.protocol import LabeledGraph
from repro.utils.budget import Budget

__all__ = ["ullmann_is_subgraph"]

#: Search-tree nodes between budget polls.
_BUDGET_POLL_INTERVAL = 512

_ONE = np.uint64(1)
_WORD_BITS = 64


def ullmann_is_subgraph(
    query: LabeledGraph,
    data: LabeledGraph,
    budget: Budget | None = None,
    domains: list[set[int]] | None = None,
) -> bool:
    """True iff *query* is subgraph-monomorphic to *data* (Def. 3).

    *domains*, when given, constrains the search: query vertex ``u``
    may only map into ``domains[u]`` (intersected with the built-in
    label/degree feasibility).  The single-graph regime pins embedding
    roots and narrows candidates this way; ``None`` leaves the classic
    search — and its budget poll counts — untouched.
    """
    if query.order == 0:
        return True
    if query.order > data.order or query.size > data.size:
        return False

    candidates = _initial_candidates(query, data)
    if candidates is None:
        return False
    if domains is not None:
        if len(domains) != query.order:
            raise ValueError(
                f"domains carries {len(domains)} entries for a "
                f"{query.order}-vertex query"
            )
        for u, feasible in enumerate(candidates):
            feasible &= domains[u]
            if not feasible:
                return False
    bitset_state = _BitsetState(query, data, budget)
    return bitset_state.search(0, bitset_state.pack(candidates), set())


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


class _BitsetState:
    """The packed-uint64 domain engine.

    Domains are a ``(query.order, words)`` uint64 matrix — bit ``d`` of
    row ``u`` set iff data vertex ``d`` is a candidate for query vertex
    ``u`` — refined against a data adjacency bit matrix of the same
    width.  The search tree is identical to the reference set engine's
    (``tests/oracles.py``): bits are iterated ascending
    (``sorted(candidates[position])``), refinement passes visit query
    vertices in the same order, and a pass dooms exactly the candidates
    the set engine's inner loop would.
    """

    __slots__ = ("query", "data", "budget", "nodes", "words", "adj", "qneighbors")

    def __init__(
        self, query: LabeledGraph, data: LabeledGraph, budget: Budget | None
    ) -> None:
        self.query = query
        self.data = data
        self.budget = budget
        self.nodes = 0
        self.words = (data.order + _WORD_BITS - 1) // _WORD_BITS
        # The packed matrix is a cached structure of the CSR graph (one
        # vectorized scatter, amortized across the workload).
        self.adj = as_core_query(data).adjacency_bitmatrix()
        #: Query adjacency as plain int lists, for the refinement loop.
        self.qneighbors = [list(query.neighbors(u)) for u in query.vertices()]

    def pack(self, candidates: list[set[int]]) -> np.ndarray:
        """Pack per-vertex candidate sets into domain bit rows."""
        domains = np.zeros((len(candidates), self.words), dtype=np.uint64)
        for u, feasible in enumerate(candidates):
            members = np.fromiter(feasible, dtype=np.int64, count=len(feasible))
            np.bitwise_or.at(
                domains[u],
                members >> 6,
                _ONE << (members & 63).astype(np.uint64),
            )
        return domains

    @staticmethod
    def _members(row: np.ndarray) -> list[int]:
        """Set bits of one domain row, ascending — the iteration order
        ``sorted()`` gives the set engine."""
        bits = np.unpackbits(row.view(np.uint8), bitorder="little")
        return np.nonzero(bits)[0].tolist()

    def search(
        self, position: int, domains: np.ndarray, used: set[int]
    ) -> bool:
        if position == self.query.order:
            return True
        self._poll()
        for d in self._members(domains[position]):
            if d in used:
                continue
            narrowed = self._assign(position, d, domains)
            if narrowed is None:
                continue
            used.add(d)
            if self.search(position + 1, narrowed, used):
                used.discard(d)
                return True
            used.discard(d)
        return False

    def _assign(
        self, position: int, d: int, domains: np.ndarray
    ) -> np.ndarray | None:
        """Pin query vertex *position* to *d* and refine to fixpoint."""
        narrowed = domains.copy()
        narrowed[position] = 0
        narrowed[position, d >> 6] = _ONE << np.uint64(d & 63)
        neighbors = self.qneighbors[position]
        if neighbors:
            # One slab op: mask every neighbor row to d's data adjacency
            # and clear bit d (injectivity) in the same pass.
            narrowed[neighbors] &= self.adj[d]
            narrowed[neighbors, d >> 6] &= ~(_ONE << np.uint64(d & 63))
            if not narrowed[neighbors].any(axis=1).all():
                return None
        return self._refine(narrowed)

    def _refine(self, domains: np.ndarray) -> np.ndarray | None:
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
        order = self.query.order
        supports: list[np.ndarray | None] = [None] * order
        changed = True
        while changed:
            changed = False
            for u in range(order):
                neighbors = self.qneighbors[u]
                if not neighbors:
                    continue
                row = domains[u]
                for w in neighbors:
                    mask = supports[w]
                    if mask is None:
                        mask = supports[w] = np.bitwise_or.reduce(
                            self.adj[self._members(domains[w])], axis=0
                        )
                    row = row & mask
                if np.array_equal(row, domains[u]):
                    continue
                if not row.any():
                    return None
                domains[u] = row
                supports[u] = None
                changed = True
        return domains

    def _poll(self) -> None:
        if self.budget is None:
            return
        self.nodes += 1
        if self.nodes % _BUDGET_POLL_INTERVAL == 0:
            self.budget.check()
