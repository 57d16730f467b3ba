"""Reference implementations the differential tests compare against.

These are the straightforward versions of algorithms whose shipped
implementations are array kernels: the recursive feature walks written
against the graph protocol (``neighbors()`` tuples, one ``label()`` call
per visit) and Ullmann's search over ``set[int]`` domains.  They are
kept verbatim from when they were the production code, so every parity
property pins the kernels to an independently readable definition:

* ``tests/test_feature_kernels.py`` — same features, counts, start
  sets, dict insertion order and yield order as the walks on the same
  ``CSRGraph``;
* ``tests/test_ullmann.py`` — same answers *and* the same search tree
  (node counts, hence budget poll schedules) as the set engine.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.canonical.paths import path_canonical
from repro.features.paths import PathOccurrences
from repro.isomorphism.ullmann import _BUDGET_POLL_INTERVAL, _initial_candidates
from repro.utils.budget import Budget

__all__ = [
    "SetDomainState",
    "set_ullmann_is_subgraph",
    "walk_edge_list",
    "walk_path_features",
    "walk_simple_cycles",
]


# ----------------------------------------------------------------------
# feature walks (reference for repro.features)
# ----------------------------------------------------------------------


def walk_path_features(
    graph,
    max_edges: int,
    include_vertices: bool = True,
    budget: Budget | None = None,
) -> dict[tuple, PathOccurrences]:
    """Recursive-DFS reference for :func:`repro.features.paths.path_features`."""
    if max_edges < 0:
        raise ValueError(f"max_edges must be non-negative, got {max_edges}")
    features: dict[tuple, PathOccurrences] = {}

    def record(labels: list, start: int) -> None:
        canonical = path_canonical(labels)
        entry = features.get(canonical)
        if entry is None:
            entry = features[canonical] = PathOccurrences()
        entry.count += 1
        entry.starts.add(start)

    on_path = [False] * graph.order
    label_stack: list = []

    def extend(vertex: int, start: int, depth: int) -> None:
        for neighbor in graph.neighbors(vertex):
            if on_path[neighbor]:
                continue
            label_stack.append(graph.label(neighbor))
            record(label_stack, start)
            if depth + 1 < max_edges:
                on_path[neighbor] = True
                extend(neighbor, start, depth + 1)
                on_path[neighbor] = False
            label_stack.pop()

    for start in graph.vertices():
        if budget is not None:
            budget.check()
        if include_vertices:
            record([graph.label(start)], start)
        if max_edges == 0:
            continue
        on_path[start] = True
        label_stack.append(graph.label(start))
        extend(start, start, 0)
        label_stack.pop()
        on_path[start] = False
    return features


def walk_simple_cycles(
    graph, max_edges: int, budget: Budget | None = None
) -> Iterator[tuple[int, ...]]:
    """Recursive reference for
    :func:`repro.features.cycles.enumerate_simple_cycles`."""
    if max_edges < 3:
        return
    on_path = [False] * graph.order
    path: list[int] = []

    def search(anchor: int, vertex: int) -> Iterator[tuple[int, ...]]:
        for neighbor in graph.neighbors(vertex):
            if neighbor == anchor:
                # Closing edge: need ≥ 3 vertices and a fixed direction.
                if len(path) >= 3 and path[1] < path[-1]:
                    yield tuple(path)
                continue
            if neighbor < anchor or on_path[neighbor]:
                continue
            if len(path) == max_edges:
                continue  # adding a vertex would exceed the edge limit
            on_path[neighbor] = True
            path.append(neighbor)
            yield from search(anchor, neighbor)
            path.pop()
            on_path[neighbor] = False

    for anchor in graph.vertices():
        if budget is not None:
            budget.check()
        on_path[anchor] = True
        path.append(anchor)
        yield from search(anchor, anchor)
        path.pop()
        on_path[anchor] = False


def walk_edge_list(graph) -> list[tuple[int, int]]:
    """The edge list the ESU enumeration in :mod:`repro.features.trees`
    starts from, via the protocol's ``edges()`` generator."""
    return [(u, v) if u < v else (v, u) for u, v in graph.edges()]


# ----------------------------------------------------------------------
# set-domain Ullmann (reference for repro.isomorphism.ullmann)
# ----------------------------------------------------------------------


def set_ullmann_is_subgraph(query, data, budget: Budget | None = None) -> bool:
    """:func:`repro.isomorphism.ullmann.ullmann_is_subgraph` over the
    set engine: same early exits, same initial candidates."""
    if query.order == 0:
        return True
    if query.order > data.order or query.size > data.size:
        return False
    candidates = _initial_candidates(query, data)
    if candidates is None:
        return False
    return SetDomainState(query, data, budget).search(0, candidates, set())


class SetDomainState:
    """Ullmann's search over per-vertex ``set[int]`` domains."""

    __slots__ = ("query", "data", "budget", "nodes")

    def __init__(self, query, data, budget: Budget | None) -> None:
        self.query = query
        self.data = data
        self.budget = budget
        self.nodes = 0

    def search(
        self, position: int, candidates: list[set[int]], used: set[int]
    ) -> bool:
        if position == self.query.order:
            return True
        self._poll()
        for d in sorted(candidates[position]):
            if d in used:
                continue
            narrowed = self._assign(position, d, candidates)
            if narrowed is None:
                continue
            used.add(d)
            if self.search(position + 1, narrowed, used):
                used.discard(d)
                return True
            used.discard(d)
        return False

    def _assign(
        self, position: int, d: int, candidates: list[set[int]]
    ) -> list[set[int]] | None:
        """Pin query vertex *position* to *d* and refine to fixpoint."""
        narrowed = [set(c) for c in candidates]
        narrowed[position] = {d}
        # Monomorphism constraint: query neighbors of `position` must
        # map into data neighbors of d (and not onto d — injectivity).
        for u in self.query.neighbors(position):
            narrowed[u] &= self.data.neighbor_set(d)
            narrowed[u].discard(d)
            if not narrowed[u]:
                return None
        return self._refine(narrowed)

    def _refine(self, candidates: list[set[int]]) -> list[set[int]] | None:
        """Ullmann refinement to fixpoint.

        A candidate ``d`` for query vertex ``u`` survives only if every
        query neighbor of ``u`` has at least one candidate adjacent to
        ``d`` in the data graph.
        """
        changed = True
        while changed:
            changed = False
            for u in self.query.vertices():
                doomed = []
                for d in candidates[u]:
                    for w in self.query.neighbors(u):
                        if not (candidates[w] & self.data.neighbor_set(d)):
                            doomed.append(d)
                            break
                if doomed:
                    candidates[u] -= set(doomed)
                    if not candidates[u]:
                        return None
                    changed = True
        return candidates

    def _poll(self) -> None:
        if self.budget is None:
            return
        self.nodes += 1
        if self.nodes % _BUDGET_POLL_INTERVAL == 0:
            self.budget.check()
