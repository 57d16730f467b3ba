"""Reference implementations the differential tests compare against.

These are the straightforward versions of algorithms whose shipped
implementations are array kernels or compiled plans: the recursive
feature walks written against the graph protocol (``neighbors()``
tuples, one ``label()`` call per visit), Ullmann's search over
``set[int]`` domains, VF2 recomputing its query-side structures per
(query, data) pair and intersecting neighbor sets, and Grapes' filter
and verification over per-component projections.  They are kept
verbatim from when they were the production code, so every parity
property pins the shipped code to an independently readable
definition:

* ``tests/test_feature_kernels.py`` — same features, counts, start
  sets, dict insertion order and yield order as the walks on the same
  ``CSRGraph``;
* ``tests/test_ullmann.py`` — same answers *and* the same search tree
  (node counts, hence budget poll schedules) as the set engine, over
  the whole graph and over a compact host;
* ``tests/test_vf2.py`` — the same embeddings in the same order, and
  the same node counts, as :class:`ReferenceMatcher` trying candidates
  in ascending order (and the same embedding *set* as its set-order
  search);
* ``tests/test_grapes_masks.py`` — Grapes' bit-row components, masked
  search and filter survivors equal the component-set projection path
  (:func:`projection_filter`, :func:`projection_contains`);
* ``tests/test_regimes.py`` — single-graph answers equal
  :func:`reference_embedding_roots`, which never sees an index, a
  domain or a compact host;
* ``tests/test_ctindex_features.py`` — CT-Index fingerprints equal
  :func:`reference_fingerprint`, which canonicalises and hashes every
  tree and cycle occurrence on its own.
* ``tests/test_gcode_table.py`` — gCode's signature records equal
  :func:`reference_vertex_signature` (one path tree, one ``eigvalsh``
  and one ``stable_hash`` per label at a time) and its array filter
  equals :func:`reference_gcode_candidates`, which tests every
  (query, data) signature pair with :func:`dominates` and runs Kuhn's
  matching on every graph past the order bisect.

:func:`reference_cell` is the straight-line measurement cell — build,
query each size, aggregate — that was ``evaluate_method``'s body until
whole cells became one-batch cells of the batch executor;
``tests/test_scheduling.py`` holds every split of a cell to it.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator

import numpy as np

from repro.canonical.cycles import cycle_canonical
from repro.canonical.paths import path_canonical
from repro.canonical.trees import tree_canonical
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
from repro.features.cycles import enumerate_simple_cycles
from repro.features.paths import PathOccurrences, path_features
from repro.features.trees import enumerate_trees
from repro.graphs.csr import as_core_dataset, as_core_query
from repro.graphs.protocol import LabeledGraph
from repro.indexes.gcode import _EIGEN_EPSILON, VertexSignature
from repro.isomorphism import ullmann
from repro.isomorphism.decompose import embedding_root
from repro.isomorphism.heuristics import connectivity_order
from repro.isomorphism.ullmann import _initial_candidates
from repro.isomorphism.vf2 import _BUDGET_POLL_INTERVAL, SubgraphMatcher, VertexOrder
from repro.utils.budget import Budget, BudgetExceeded, MemoryBudgetExceeded
from repro.utils.hashing import hash_positions, stable_hash

__all__ = [
    "ReferenceMatcher",
    "SetDomainState",
    "counts_dominate",
    "dominates",
    "projection_components",
    "projection_contains",
    "projection_filter",
    "reference_cell",
    "reference_embedding_roots",
    "reference_features",
    "reference_fingerprint",
    "reference_gcode_candidates",
    "reference_vertex_signature",
    "set_ullmann_is_subgraph",
    "signatures_match",
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
# per-occurrence fingerprint (reference for repro.indexes.ctindex)
# ----------------------------------------------------------------------


def reference_features(graph, edges: int) -> list[tuple]:
    """``("T" | "C", canonical form)`` of every tree and cycle occurrence
    of up to *edges* edges, each canonicalised on its own."""
    return [
        ("T", tree_canonical(graph, tree)) for tree in enumerate_trees(graph, edges)
    ] + [
        ("C", cycle_canonical([graph.label(v) for v in cycle]))
        for cycle in enumerate_simple_cycles(graph, edges)
    ]


def reference_fingerprint(graph, bits: int, edges: int, per_feature: int = 1) -> int:
    """:meth:`repro.indexes.ctindex.CTIndex.fingerprint`'s value, with
    every occurrence's canonical form hashed on its own."""
    value = 0
    for canonical in reference_features(graph, edges):
        for position in hash_positions(canonical, bits, per_feature):
            value |= 1 << position
    return value


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
        if self.nodes % ullmann._BUDGET_POLL_INTERVAL == 0:
            self.budget.check()


def reference_embedding_roots(query, data) -> set[int]:
    """Every data vertex hosting the query's anchor vertex in some
    embedding into the whole of *data*.

    The anchor is :func:`~repro.isomorphism.decompose.embedding_root`;
    each data vertex is pinned in turn under plain label/degree
    candidates and searched by :class:`SetDomainState` — no index, no
    STwig pruning, no compact host.
    """
    if query.order == 0:
        return set()
    root = embedding_root(query, data)
    feasible = [
        {
            v
            for v in data.vertices()
            if data.label(v) == query.label(u)
            and data.degree(v) >= query.degree(u)
        }
        for u in query.vertices()
    ]
    roots = set()
    for vertex in sorted(feasible[root]):
        pinned = [set(candidates) for candidates in feasible]
        pinned[root] = {vertex}
        if SetDomainState(query, data, None).search(0, pinned, set()):
            roots.add(vertex)
    return roots


# ----------------------------------------------------------------------
# VF2 (reference for repro.isomorphism.vf2)
# ----------------------------------------------------------------------


class ReferenceMatcher:
    """VF2 for one (query, data) pair, recomputing the query side per pair.

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
    sorted_candidates:
        Try each position's candidates in ascending id order, as the
        shipped bit-row engine does, instead of the iteration order of
        the intersected neighbor sets.  Same feasibility rules, so the
        sorted mode explores exactly the shipped engine's search tree.
    """

    def __init__(
        self,
        query: LabeledGraph,
        data: LabeledGraph,
        ordering: VertexOrder = connectivity_order,
        budget: Budget | None = None,
        sorted_candidates: bool = False,
    ) -> None:
        self.query = query
        self.data = data
        self._budget = budget
        self._sorted = sorted_candidates
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
        # same data graph; a builder Graph recomputes them per pair.
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
        return sorted(candidates) if self._sorted else candidates

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
# Grapes' component projections (reference for repro.indexes.grapes)
# ----------------------------------------------------------------------


def projection_components(graph, marked: set[int]) -> list[set[int]]:
    """Connected components of *graph*'s projection onto *marked*."""
    components: list[set[int]] = []
    unvisited = set(marked)
    while unvisited:
        start = unvisited.pop()
        component = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in graph.neighbors(v):
                if w in unvisited:
                    unvisited.discard(w)
                    component.add(w)
                    stack.append(w)
        components.append(component)
    return components


def projection_filter(index, query) -> dict[int, list[set[int]]]:
    """Grapes' filter over component sets: each survivor's id mapped to
    its viable marked components (empty lists for a disconnected query,
    which skips the location stage)."""
    query_paths = path_features(query, index.max_path_edges)
    candidates: set[int] | None = None
    matched_nodes = []
    for canonical, occurrences in query_paths.items():
        node = index._trie.lookup(canonical)
        if node is None:
            return {}
        matched_nodes.append(node)
        matching = {
            graph_id
            for graph_id, count in node.counts.items()
            if count >= occurrences.count
        }
        candidates = matching if candidates is None else candidates & matching
        if not candidates:
            return {}
    if candidates is None:
        candidates = index._dataset.all_ids()
    if not query.is_connected():
        return {graph_id: [] for graph_id in candidates}
    marked: dict[int, set[int]] = {graph_id: set() for graph_id in candidates}
    for node in matched_nodes:
        for graph_id, starts in node.starts.items():
            if graph_id in marked:
                marked[graph_id].update(starts)
    needed = query.label_histogram()
    survivors: dict[int, list[set[int]]] = {}
    for graph_id in candidates:
        graph = index._dataset[graph_id]
        viable = []
        for component in projection_components(graph, marked[graph_id]):
            counts: dict = {}
            for v in component:
                counts[graph.label(v)] = counts.get(graph.label(v), 0) + 1
            if all(counts.get(lbl, 0) >= n for lbl, n in needed.items()):
                viable.append(component)
        if viable:
            survivors[graph_id] = viable
    return survivors


def projection_contains(query, graph, components: list[set[int]]) -> bool:
    """Grapes' verification per component: VF2 on each sufficiently
    large component's induced subgraph (the whole graph when there are
    no components), first match wins."""
    if not components:
        return SubgraphMatcher(query, graph).exists()
    return any(
        SubgraphMatcher(query, graph.induced_subgraph(component)[0]).exists()
        for component in components
        if len(component) >= query.order
    )


# ----------------------------------------------------------------------
# gCode signatures and filter (reference for repro.indexes.gcode)
# ----------------------------------------------------------------------


def reference_vertex_signature(index, graph, vertex: int) -> VertexSignature:
    """gCode signature of one vertex, built one path tree at a time."""
    graph = as_core_query(graph)
    labels, edges = _reference_path_tree(index, graph, vertex)
    return VertexSignature(
        label=graph.label(vertex),
        neighbor_counts=_reference_bucket_counts(
            index, [graph.label(w) for w in graph.neighbors(vertex)]
        ),
        tree_counts=_reference_bucket_counts(index, labels),
        eigenvalues=_reference_top_eigenvalues(index, edges),
    )


def _reference_path_tree(index, graph, root: int) -> tuple[list, list[tuple[int, int]]]:
    labels = [graph.label(root)]
    edges: list[tuple[int, int]] = []
    # Frontier entries: (node_id, path vertices as tuple).
    frontier: list[tuple[int, tuple[int, ...]]] = [(0, (root,))]
    for _ in range(index.path_depth):
        next_frontier: list[tuple[int, tuple[int, ...]]] = []
        for node_id, path in frontier:
            tail = path[-1]
            for w in graph.neighbors(tail):
                if w in path:
                    continue
                child_id = len(labels)
                labels.append(graph.label(w))
                edges.append((node_id, child_id))
                next_frontier.append((child_id, path + (w,)))
        frontier = next_frontier
    return labels, edges


def _reference_top_eigenvalues(index, edges: list[tuple[int, int]]) -> tuple[float, ...]:
    if not edges:
        return tuple([-float("inf")] * index.top_eigenvalues)
    size = max(max(u, v) for u, v in edges) + 1
    matrix = np.zeros((size, size))
    for u, v in edges:
        matrix[u, v] = matrix[v, u] = 1.0
    spectrum = np.linalg.eigvalsh(matrix)[::-1]  # descending
    top = [float(value) for value in spectrum[: index.top_eigenvalues]]
    while len(top) < index.top_eigenvalues:
        top.append(-float("inf"))
    return tuple(top)


def _reference_bucket_counts(index, labels) -> tuple[int, ...]:
    counts = [0] * index.counter_buckets
    for label in labels:
        bucket = stable_hash(label) % index.counter_buckets
        if counts[bucket] < 255:  # saturating counters keep dominance
            counts[bucket] += 1
    return tuple(counts)


def dominates(data: VertexSignature, query: VertexSignature) -> bool:
    """True iff *query* (a query signature) fits under *data*."""
    if data.label != query.label:
        return False
    if any(q > g for q, g in zip(query.neighbor_counts, data.neighbor_counts)):
        return False
    if any(q > g for q, g in zip(query.tree_counts, data.tree_counts)):
        return False
    return all(
        q <= g + _EIGEN_EPSILON for q, g in zip(query.eigenvalues, data.eigenvalues)
    )


def counts_dominate(query_counts: tuple[int, ...], data_counts: tuple[int, ...]) -> bool:
    return all(q <= g for q, g in zip(query_counts, data_counts))


def signatures_match(
    query_signatures: tuple[VertexSignature, ...],
    data_signatures: tuple[VertexSignature, ...],
) -> bool:
    """Stage-2 filter: semi-perfect matching of query signatures.

    Every query vertex must claim a *distinct* data vertex whose
    signature dominates its own (Kuhn's augmenting-path matching).
    """
    adjacency = []
    for q_sig in query_signatures:
        row = [j for j, g_sig in enumerate(data_signatures) if dominates(g_sig, q_sig)]
        if not row:
            return False
        adjacency.append(row)
    # Try scarce query vertices first: fewer options, faster failure.
    order = sorted(range(len(adjacency)), key=lambda i: len(adjacency[i]))
    matched_to: dict[int, int] = {}

    def try_assign(qi: int, banned: set[int]) -> bool:
        for dj in adjacency[qi]:
            if dj in banned:
                continue
            banned.add(dj)
            if dj not in matched_to or try_assign(matched_to[dj], banned):
                matched_to[dj] = qi
                return True
        return False

    return all(try_assign(qi, set()) for qi in order)


def reference_gcode_candidates(index, query) -> set[int]:
    """gCode's two-stage filter, one signature pair at a time, over the
    built *index*'s sorted graph codes."""
    query_code = index.graph_code(query)
    candidates = set()
    start = bisect.bisect_left(index._orders, query_code.order)
    for code in index._codes[start:]:
        if not counts_dominate(query_code.label_counts, code.label_counts):
            continue
        if signatures_match(query_code.signatures, code.signatures):
            candidates.add(code.graph_id)
    return candidates


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
