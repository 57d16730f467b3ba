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

:func:`reference_cell` is the straight-line measurement cell — build,
query each size, aggregate — that was ``evaluate_method``'s body until
whole cells became one-batch cells of the batch executor;
``tests/test_scheduling.py`` holds every split of a cell to it.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.canonical.paths import path_canonical
from repro.core.metrics import WorkloadStats
from repro.core.runner import (
    STATUS_ERROR,
    STATUS_MEMORY,
    STATUS_OK,
    STATUS_TIMEOUT,
    MethodCell,
    SizeStats,
    make_method,
)
from repro.features.paths import PathOccurrences
from repro.graphs.csr import as_core_dataset, as_core_query
from repro.isomorphism.ullmann import _BUDGET_POLL_INTERVAL, _initial_candidates
from repro.utils.budget import Budget, BudgetExceeded, MemoryBudgetExceeded

__all__ = [
    "SetDomainState",
    "reference_cell",
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


# ----------------------------------------------------------------------
# the straight-line cell (reference for repro.core.scheduling)
# ----------------------------------------------------------------------


def reference_cell(
    method_name: str,
    dataset,
    workloads,
    method_config=None,
    build_budget_seconds: float | None = None,
    query_budget_seconds: float | None = None,
    build_memory_bytes: int | None = None,
    regime: str = "transactional",
) -> MethodCell:
    """Build one method over *dataset* and run every workload, in one
    loop and with no store: the paper's measurement cell as §4 states it.

    Never raises for method failures; statuses record them.
    """
    dataset = as_core_dataset(dataset)
    index = make_method(method_name, method_config)
    cell = MethodCell(method=method_name, build_status=STATUS_OK)
    build_budget = (
        Budget(
            build_budget_seconds,
            max_bytes=build_memory_bytes,
            phase=f"{method_name} build",
        )
        if build_budget_seconds is not None or build_memory_bytes is not None
        else None
    )
    try:
        report = index.build(dataset, budget=build_budget)
    except MemoryBudgetExceeded:
        cell.build_status = STATUS_MEMORY
        return cell
    except BudgetExceeded:
        cell.build_status = STATUS_TIMEOUT
        return cell
    except (MemoryError, RecursionError, ValueError, RuntimeError) as exc:
        cell.build_status = STATUS_ERROR
        cell.build_error = f"{type(exc).__name__}: {exc}"
        return cell
    cell.build_seconds = report.seconds
    cell.index_bytes = report.size_bytes
    cell.build_details = dict(report.details)

    for size, queries in workloads.items():
        query_budget = (
            Budget(query_budget_seconds, phase=f"{cell.method} queries size {size}")
            if query_budget_seconds is not None
            else None
        )
        admitted = [as_core_query(query) for query in queries]
        try:
            results = [
                index.query(query, budget=query_budget, regime=regime)
                for query in admitted
            ]
        except BudgetExceeded:
            cell.per_size[size] = SizeStats(status=STATUS_TIMEOUT)
            continue
        except (MemoryError, RecursionError, ValueError, RuntimeError) as exc:
            cell.per_size[size] = SizeStats(
                status=STATUS_ERROR, error=f"{type(exc).__name__}: {exc}"
            )
            continue
        cell.per_size[size] = SizeStats(
            status=STATUS_OK, stats=_reference_stats(results)
        )
    return cell


def _reference_stats(results) -> WorkloadStats:
    """Per-query results collapsed into the paper's reported quantities
    (Eq. (3): the FP ratio is the mean of per-query ratios)."""
    if not results:
        return WorkloadStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    count = len(results)
    ratios = [result.false_positive_ratio for result in results]
    return WorkloadStats(
        num_queries=count,
        avg_query_seconds=sum(r.total_seconds for r in results) / count,
        avg_filter_seconds=sum(r.filter_seconds for r in results) / count,
        avg_verify_seconds=sum(r.verify_seconds for r in results) / count,
        avg_candidates=sum(len(r.candidates) for r in results) / count,
        avg_answers=sum(len(r.answers) for r in results) / count,
        false_positive_ratio=sum(ratios) / len(ratios),
    )
