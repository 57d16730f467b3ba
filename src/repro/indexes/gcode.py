"""gCode — spectral vertex signatures in a search tree [28].

Zou, Chen, Yu & Lu, *A novel spectral coding in a large graph
database*, EDBT 2008.  gCode exhaustively enumerates paths of up to a
small depth (paper setting: 2) around every vertex and condenses them
into a *vertex signature* with three components (§3):

1. a counter-string over the labels of the vertices reachable along
   those paths (the "level-n path tree" of the vertex),
2. a counter-string over the labels of the vertex's direct neighbors,
3. the top-m eigenvalues (paper setting: m=2) of the adjacency matrix
   of the level-n path tree rooted at the vertex.

Soundness of signature dominance: a monomorphism maps the level-n path
tree of a query vertex onto a subtree of the image's path tree, so
per-label counts dominate and — by Cauchy eigenvalue interlacing for
principal submatrices — so do the sorted eigenvalues.

Graph codes (the multiset of vertex signatures plus a graph-level label
counter) are kept sorted by graph order, standing in for the original's
balanced search tree: filtering skips every graph with fewer vertices
than the query via binary search, then (stage 1) checks label-counter
dominance, then (stage 2) requires a semi-perfect bipartite matching of
query signatures onto dominating, distinct data-vertex signatures.

gCode represents "encoded exhaustive paths": slow in absolute terms —
signature construction and matching dominate, making it the slowest
method in most of the paper's plots — but with better scaling in
density/graph count than the frequent-mining methods (§6).

Reproduces: gCode (Zou, Chen, Yu & Lu, EDBT 2008) — reference [28] of
the benchmarked paper.

Feature class: paths — exhaustive paths of depth ``path_depth`` around
every vertex, encoded into spectral vertex signatures (label counters
plus top-``m`` eigenvalues of the level-n path tree).

Known deviations: graph codes are kept in a list sorted by graph
order with binary-search skipping, standing in for the original's
balanced search tree (same pruning, different lookup constants);
stage-2 filtering solves the signature-dominance assignment as an
exact bipartite matching in pure Python.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple

import numpy as np

from repro.graphs.csr import CSRGraph, as_core_query
from repro.graphs.dataset import GraphDataset
from repro.graphs.graph import Graph
from repro.indexes.base import GraphIndex
from repro.utils.budget import Budget
from repro.utils.hashing import stable_hash

__all__ = ["GCodeIndex", "VertexSignature"]

#: Tolerance for eigenvalue dominance (floating-point head-room only;
#: must stay small enough never to mask a genuine violation).
_EIGEN_EPSILON = 1e-6


class VertexSignature(NamedTuple):
    """The gCode signature of one vertex."""

    label: object
    #: Bucketed, saturated counts of direct-neighbor labels.
    neighbor_counts: tuple[int, ...]
    #: Bucketed, saturated counts of labels over the level-n path tree.
    tree_counts: tuple[int, ...]
    #: Top-m eigenvalues of the path-tree adjacency matrix, descending,
    #: padded with ``-inf``.
    eigenvalues: tuple[float, ...]

    def dominates(self, other: "VertexSignature") -> bool:
        """True iff *other* (a query signature) fits under this one."""
        if self.label != other.label:
            return False
        if any(q > g for q, g in zip(other.neighbor_counts, self.neighbor_counts)):
            return False
        if any(q > g for q, g in zip(other.tree_counts, self.tree_counts)):
            return False
        return all(
            q <= g + _EIGEN_EPSILON
            for q, g in zip(other.eigenvalues, self.eigenvalues)
        )


class _GraphCode(NamedTuple):
    graph_id: int
    order: int
    label_counts: tuple[int, ...]
    signatures: tuple[VertexSignature, ...]


class GCodeIndex(GraphIndex):
    """gCode: spectral vertex signatures with two-stage filtering.

    Parameters
    ----------
    path_depth:
        Level of the per-vertex path tree (paper setting: 2).
    top_eigenvalues:
        Eigenvalues retained per signature (paper setting: 2).
    counter_buckets:
        Width of the label counter-strings (paper setting: 32).
    """

    name = "gcode"

    def __init__(
        self,
        path_depth: int = 2,
        top_eigenvalues: int = 2,
        counter_buckets: int = 32,
    ) -> None:
        super().__init__()
        if path_depth < 1:
            raise ValueError(f"path_depth must be >= 1, got {path_depth}")
        if top_eigenvalues < 1:
            raise ValueError(f"top_eigenvalues must be >= 1, got {top_eigenvalues}")
        if counter_buckets < 1:
            raise ValueError(f"counter_buckets must be >= 1, got {counter_buckets}")
        self.path_depth = path_depth
        self.top_eigenvalues = top_eigenvalues
        self.counter_buckets = counter_buckets
        #: Graph codes sorted by graph order (the "search tree").
        self._codes: list[_GraphCode] = []
        self._orders: list[int] = []
        #: (label_table, bucket ids); datasets share one label table,
        #: so one hash pass covers every graph.
        self._bucket_cache: tuple[object, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # signature construction
    # ------------------------------------------------------------------

    def graph_code(self, graph: Graph, budget: Budget | None = None) -> _GraphCode:
        """Compute the full gCode of one graph."""
        graph = as_core_query(graph)
        signatures = []
        for v in graph.vertices():
            if budget is not None and v % 64 == 0:
                budget.check()
            signatures.append(self.vertex_signature(graph, v))
        label_counts = self._bucket_counts_from_ids(
            self._bucket_array(graph), graph.label_ids_array()
        )
        return _GraphCode(
            graph_id=graph.graph_id if graph.graph_id is not None else -1,
            order=graph.order,
            label_counts=label_counts,
            signatures=tuple(signatures),
        )

    def vertex_signature(self, graph: Graph, vertex: int) -> VertexSignature:
        """Signature of one vertex: counters plus path-tree spectrum."""
        graph = as_core_query(graph)
        neighbor_counts = self._bucket_counts_from_ids(
            self._bucket_array(graph),
            graph.label_ids_array()[graph.neighbors_slice(vertex)],
        )
        tree_labels, adjacency = self._path_tree(graph, vertex)
        tree_counts = self._bucket_counts(tree_labels)
        eigenvalues = self._top_eigenvalues(adjacency)
        return VertexSignature(
            label=graph.label(vertex),
            neighbor_counts=neighbor_counts,
            tree_counts=tree_counts,
            eigenvalues=eigenvalues,
        )

    def _path_tree(self, graph: Graph, root: int) -> tuple[list, list[tuple[int, int]]]:
        """The level-n path tree of *root*.

        Nodes are the simple paths of length ``0..path_depth`` starting
        at *root*; each node is labeled by its endpoint's label and
        linked to its one-edge extensions.  Returns the node labels and
        the tree's edge list (over node ids).
        """
        labels = [graph.label(root)]
        edges: list[tuple[int, int]] = []
        # Frontier entries: (node_id, path vertices as tuple).
        frontier: list[tuple[int, tuple[int, ...]]] = [(0, (root,))]
        for _ in range(self.path_depth):
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

    def _top_eigenvalues(self, edges: list[tuple[int, int]]) -> tuple[float, ...]:
        if not edges:
            return tuple([-float("inf")] * self.top_eigenvalues)
        size = max(max(u, v) for u, v in edges) + 1
        matrix = np.zeros((size, size))
        for u, v in edges:
            matrix[u, v] = matrix[v, u] = 1.0
        spectrum = np.linalg.eigvalsh(matrix)[::-1]  # descending
        top = [float(value) for value in spectrum[: self.top_eigenvalues]]
        while len(top) < self.top_eigenvalues:
            top.append(-float("inf"))
        return tuple(top)

    def _bucket_counts(self, labels) -> tuple[int, ...]:
        counts = [0] * self.counter_buckets
        for label in labels:
            bucket = stable_hash(label) % self.counter_buckets
            if counts[bucket] < 255:  # saturating counters keep dominance
                counts[bucket] += 1
        return tuple(counts)

    def _bucket_array(self, graph: CSRGraph) -> np.ndarray:
        """Bucket id per label-table entry, cached across graphs."""
        table = graph.label_table
        cached = self._bucket_cache
        if cached is None or cached[0] is not table:
            buckets = np.array(
                [stable_hash(label) % self.counter_buckets for label in table],
                dtype=np.int64,
            )
            self._bucket_cache = cached = (table, buckets)
        return cached[1]

    def _bucket_counts_from_ids(
        self, bucket_of: np.ndarray, label_ids: np.ndarray
    ) -> tuple[int, ...]:
        """Vectorized twin of :meth:`_bucket_counts` over label ids.

        ``bincount`` then clamp matches the scalar saturating loop
        exactly: counts only grow, so clamping after the fact is the
        same as refusing increments past 255.  Counts come back as
        Python ints (numpy scalars would change pickled artifacts).
        """
        counts = np.bincount(bucket_of[label_ids], minlength=self.counter_buckets)
        return tuple(np.minimum(counts, 255).tolist())

    # ------------------------------------------------------------------
    # build / filter
    # ------------------------------------------------------------------

    def _build(self, dataset: GraphDataset, budget: Budget | None) -> dict:
        codes = []
        # Rough per-signature footprint: two counter tuples + spectrum.
        signature_bytes = self.counter_buckets * 2 * 30 + self.top_eigenvalues * 30 + 120
        signatures_built = 0
        for graph in dataset:
            if budget is not None:
                budget.check()
                budget.check_memory(signatures_built * signature_bytes)
            codes.append(self.graph_code(graph, budget=budget))
            signatures_built += graph.order
        codes.sort(key=lambda code: code.order)
        self._codes = codes
        self._orders = [code.order for code in codes]
        return {"signatures": sum(code.order for code in codes)}

    def _filter(self, query: Graph, budget: Budget | None) -> set[int]:
        query_code = self.graph_code(query, budget=budget)
        candidates = set()
        start = bisect.bisect_left(self._orders, query.order)
        for code in self._codes[start:]:
            if budget is not None:
                budget.check()
            if not _counts_dominate(query_code.label_counts, code.label_counts):
                continue
            if self._signatures_match(query_code.signatures, code.signatures):
                candidates.add(code.graph_id)
        return candidates

    def _signatures_match(
        self,
        query_signatures: tuple[VertexSignature, ...],
        data_signatures: tuple[VertexSignature, ...],
    ) -> bool:
        """Stage-2 filter: semi-perfect matching of query signatures.

        Every query vertex must claim a *distinct* data vertex whose
        signature dominates its own (Kuhn's augmenting-path matching).
        """
        adjacency = []
        for q_sig in query_signatures:
            row = [
                j
                for j, g_sig in enumerate(data_signatures)
                if g_sig.dominates(q_sig)
            ]
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

    def _size_payload(self) -> object:
        return (self._codes, self._orders)

    # -- artifact contract ---------------------------------------------

    def _index_params(self) -> dict:
        return {
            "path_depth": self.path_depth,
            "top_eigenvalues": self.top_eigenvalues,
            "counter_buckets": self.counter_buckets,
        }

    def _export_payload(self) -> object:
        return (self._codes, self._orders)

    def _import_payload(self, payload: object) -> None:
        codes, orders = payload  # type: ignore[misc]
        self._codes = codes
        self._orders = orders


def _counts_dominate(query_counts: tuple[int, ...], data_counts: tuple[int, ...]) -> bool:
    return all(q <= g for q, g in zip(query_counts, data_counts))
