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
balanced search tree (same pruning, different lookup constants).
Both filter stages run over a signature table frozen from the sorted
codes (every data vertex grouped by label, its counters as one
``uint8`` row, its eigenvalues with the tolerance already added):
stage 1 is one compare over the label-count rows, stage 2 one
broadcast compare per distinct query label.  Candidates are those of
the per-signature definition — the dominance relation is the same
test on the same numbers — and Kuhn's matching runs only on graphs
where every query vertex has at least one dominating vertex, which
are the only graphs it could accept.
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

#: Largest stack of same-size path-tree matrices handed to one
#: ``eigvalsh`` call, in matrix entries (64 MB of float64).
_EIGEN_STACK_ENTRIES = 1 << 23


class VertexSignature(NamedTuple):
    """The gCode signature of one vertex.

    *q* fits under *g* (``g`` dominates ``q``) iff ``g.label ==
    q.label``, every counter of *q* is ``<=`` the same counter of *g*,
    and every eigenvalue ``q_i <= g_i + _EIGEN_EPSILON``.
    """

    label: object
    #: Bucketed, saturated counts of direct-neighbor labels.
    neighbor_counts: tuple[int, ...]
    #: Bucketed, saturated counts of labels over the level-n path tree.
    tree_counts: tuple[int, ...]
    #: Top-m eigenvalues of the path-tree adjacency matrix, descending,
    #: padded with ``-inf``.
    eigenvalues: tuple[float, ...]


class _GraphCode(NamedTuple):
    graph_id: int
    order: int
    label_counts: tuple[int, ...]
    signatures: tuple[VertexSignature, ...]


class _SignatureTable(NamedTuple):
    """Every data vertex's signature as array rows, frozen from the
    sorted graph codes.  Rows are grouped by label id (one contiguous
    block per label, ``bounds[l]:bounds[l + 1]``) and ascend by code
    position inside a block."""

    #: Label object per label id; ids are interned with ``==``.
    labels: list
    label_id: dict
    #: ``(labels + 1,)`` block boundaries over the rows.
    bounds: np.ndarray
    #: Code position owning each row.
    positions: np.ndarray
    #: ``(N, 2 * counter_buckets)`` uint8: neighbor counts, then tree
    #: counts (saturated at 255, so uint8 is exact).
    counters: np.ndarray
    #: ``(N, top_eigenvalues)`` float64, ``_EIGEN_EPSILON`` added.
    eigen_ceilings: np.ndarray
    #: ``(G, counter_buckets)`` uint8 graph-level label counts.
    label_counts: np.ndarray


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
        #: The filter's view of ``_codes`` (derived, never exported).
        self._table: _SignatureTable = self._freeze([])
        #: (label_table, bucket ids); datasets share one label table,
        #: so one hash pass covers every graph.
        self._bucket_cache: tuple[object, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # signature construction
    # ------------------------------------------------------------------

    def graph_code(self, graph: Graph, budget: Budget | None = None) -> _GraphCode:
        """Compute the full gCode of one graph."""
        graph = as_core_query(graph)
        bucket_of = self._bucket_array(graph)
        counters, eigenvalues = self._signature_rows(graph, bucket_of, budget)
        return _GraphCode(
            graph_id=graph.graph_id if graph.graph_id is not None else -1,
            order=graph.order,
            label_counts=self._bucket_counts_from_ids(
                bucket_of, graph.label_ids_array()
            ),
            signatures=self._records(graph.labels, counters, eigenvalues),
        )

    def vertex_signature(self, graph: Graph, vertex: int) -> VertexSignature:
        """Signature of one vertex: counters plus path-tree spectrum."""
        return self.graph_code(graph).signatures[vertex]

    def _records(
        self, labels, counters: np.ndarray, eigenvalues: np.ndarray
    ) -> tuple[VertexSignature, ...]:
        """Signature rows as payload records of Python ints and floats
        (numpy scalars would change pickled artifacts).  A one-node
        path tree's spectrum repeats one ``-inf`` object, as its record
        always has: ``index_bytes`` counts each object once."""
        width = self.counter_buckets
        return tuple(
            VertexSignature(
                label,
                tuple(row[:width]),
                tuple(row[width:]),
                tuple(top) if top[0] > -np.inf else (-float("inf"),) * len(top),
            )
            for label, row, top in zip(labels, counters.tolist(), eigenvalues.tolist())
        )

    def _signature_rows(
        self,
        graph: CSRGraph,
        bucket_of: np.ndarray,
        budget: Budget | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Counters ``(n, 2 * counter_buckets)`` int64 and descending
        top eigenvalues ``(n, top_eigenvalues)`` of every vertex.

        The level-n path tree of a root has one node per simple path of
        length ``0..path_depth`` starting at it, labeled by the path's
        endpoint and linked to its one-edge extensions; node 0 is the
        root and every other node ``c`` has one parent ``< c``.
        Counters are ``bincount`` over bucket ids, clamped at 255 —
        counts only grow, so clamping afterwards equals refusing
        increments past 255.  Same-size trees share one ``eigvalsh``
        call over their stacked adjacency matrices.
        """
        width = self.counter_buckets
        label_ids = graph.label_ids_array().tolist()
        neighbors = [graph.neighbors(v) for v in graph.vertices()]
        tree_rows: list[int] = []
        tree_ids: list[int] = []
        neighbor_rows: list[int] = []
        neighbor_ids: list[int] = []
        by_size: dict[int, tuple[list[int], list[list[int]]]] = {}
        for root in graph.vertices():
            if budget is not None and root % 64 == 0:
                budget.check()
            ids = [label_ids[root]]
            parents: list[int] = []
            frontier: list[tuple[int, tuple[int, ...]]] = [(0, (root,))]
            for _ in range(self.path_depth):
                next_frontier = []
                for node, path in frontier:
                    for w in neighbors[path[-1]]:
                        if w in path:
                            continue
                        next_frontier.append((len(ids), path + (w,)))
                        ids.append(label_ids[w])
                        parents.append(node)
                frontier = next_frontier
            tree_rows.extend([root] * len(ids))
            tree_ids.extend(ids)
            neighbor_rows.extend([root] * len(neighbors[root]))
            neighbor_ids.extend(label_ids[w] for w in neighbors[root])
            if parents:
                group = by_size.setdefault(len(ids), ([], []))
                group[0].append(root)
                group[1].append(parents)
        count = graph.order
        counters = np.empty((count, 2 * width), dtype=np.int64)
        for offset, rows, ids in (
            (0, neighbor_rows, neighbor_ids),
            (width, tree_rows, tree_ids),
        ):
            flat = np.asarray(rows, dtype=np.int64) * width
            if ids:
                flat += bucket_of[ids]
            counts = np.bincount(flat, minlength=count * width)
            counters[:, offset : offset + width] = np.minimum(counts, 255).reshape(
                count, width
            )
        eigenvalues = np.full((count, self.top_eigenvalues), -np.inf)
        for size, (rows, parent_lists) in by_size.items():
            top = min(size, self.top_eigenvalues)
            step = max(1, _EIGEN_STACK_ENTRIES // (size * size))
            for lo in range(0, len(rows), step):
                parents = np.asarray(parent_lists[lo : lo + step], dtype=np.int64)
                stack = np.zeros((len(parents), size, size))
                which = np.arange(len(parents))[:, None]
                children = np.arange(1, size)[None, :]
                stack[which, children, parents] = 1.0
                stack[which, parents, children] = 1.0
                spectra = np.linalg.eigvalsh(stack)  # ascending per matrix
                eigenvalues[rows[lo : lo + step], :top] = spectra[:, ::-1][:, :top]
        return counters, eigenvalues

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
        """Saturating label counter-string over label ids (Python ints)."""
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
        self._adopt(codes, [code.order for code in codes])
        return {"signatures": sum(code.order for code in codes)}

    def _adopt(self, codes: list[_GraphCode], orders: list[int]) -> None:
        self._codes = codes
        self._orders = orders
        self._table = self._freeze(codes)

    def _freeze(self, codes: list[_GraphCode]) -> _SignatureTable:
        """Derive the filter's signature table from sorted *codes*.

        Labels are interned with ``==`` (a dict), the equality the
        per-signature dominance test applies, so ``1``, ``1.0`` and
        ``True`` share one block.
        """
        width = self.counter_buckets
        label_id: dict = {}
        labels: list = []
        row_labels: list[int] = []
        positions: list[int] = []
        counters: list[bytes] = []
        eigenvalues: list[tuple[float, ...]] = []
        for position, code in enumerate(codes):
            for signature in code.signatures:
                lid = label_id.get(signature.label)
                if lid is None:
                    lid = label_id[signature.label] = len(labels)
                    labels.append(signature.label)
                row_labels.append(lid)
                positions.append(position)
                counters.append(
                    bytes(signature.neighbor_counts) + bytes(signature.tree_counts)
                )
                eigenvalues.append(signature.eigenvalues)
        order = np.argsort(np.asarray(row_labels, dtype=np.int64), kind="stable")
        bounds = np.zeros(len(labels) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_labels, minlength=len(labels)), out=bounds[1:])
        return _SignatureTable(
            labels=labels,
            label_id=label_id,
            bounds=bounds,
            positions=np.asarray(positions, dtype=np.int64)[order],
            counters=np.frombuffer(b"".join(counters), dtype=np.uint8).reshape(
                -1, 2 * width
            )[order],
            eigen_ceilings=(
                np.array(eigenvalues, dtype=np.float64).reshape(
                    -1, self.top_eigenvalues
                )[order]
                + _EIGEN_EPSILON
            ),
            label_counts=np.array(
                [code.label_counts for code in codes], dtype=np.uint8
            ).reshape(-1, width),
        )

    def _filter(self, query: Graph, budget: Budget | None) -> set[int]:
        query = as_core_query(query)
        table = self._table
        start = bisect.bisect_left(self._orders, query.order)
        bucket_of = self._bucket_array(query)
        query_ids = query.label_ids_array()
        # Stage 1: graph-level label counters.
        query_counts = self._bucket_counts_from_ids(bucket_of, query_ids)
        covered = np.zeros(len(self._codes), dtype=bool)
        covered[start:] = (table.label_counts[start:] >= query_counts).all(axis=1)
        if not covered.any():
            return set()
        # Stage 2: per query vertex, the data vertices dominating it.
        counters, eigenvalues = self._signature_rows(query, bucket_of, budget)
        counters = counters.astype(np.uint8)
        # One (code position, query vertex, table row) triple per hit.
        hits: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for local, label in enumerate(query.label_table):
            rows = np.flatnonzero(query_ids == local)
            if not len(rows):
                continue
            lid = table.label_id.get(label)
            if lid is None or table.labels[lid] != label:
                return set()
            lo, hi = table.bounds[lid], table.bounds[lid + 1]
            hosts = lo + np.flatnonzero(covered[table.positions[lo:hi]])
            dominated = (
                (counters[rows, None, :] <= table.counters[hosts][None, :, :]).all(axis=2)
                & (
                    eigenvalues[rows, None, :] <= table.eigen_ceilings[hosts][None, :, :]
                ).all(axis=2)
            )
            hit_row, hit_host = np.nonzero(dominated)
            hit_position = table.positions[hosts[hit_host]]
            has_host = np.zeros((len(rows), len(covered)), dtype=bool)
            has_host[hit_row, hit_position] = True
            covered &= has_host.all(axis=0)
            if not covered.any():
                return set()
            hits.append((hit_position, rows[hit_row], hosts[hit_host]))
        # Kuhn's matching on the covered graphs only, its adjacency
        # lists grouped by graph.
        positions, query_vertices, hosts = (
            np.concatenate([hit[column] for hit in hits] or [np.empty(0, np.int64)])
            for column in range(3)
        )
        keep = covered[positions]
        by_graph = np.argsort(positions[keep], kind="stable")
        positions = positions[keep][by_graph].tolist()
        query_vertices = query_vertices[keep][by_graph].tolist()
        hosts = hosts[keep][by_graph].tolist()
        candidates = set()
        cursor = 0
        for position in np.flatnonzero(covered).tolist():
            if budget is not None:
                budget.check()
            adjacency: list[list[int]] = [[] for _ in range(query.order)]
            while cursor < len(positions) and positions[cursor] == position:
                adjacency[query_vertices[cursor]].append(hosts[cursor])
                cursor += 1
            if _saturating_matching(adjacency):
                candidates.add(self._codes[position].graph_id)
        return candidates

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
        self._adopt(codes, orders)


def _saturating_matching(adjacency: list[list[int]]) -> bool:
    """True iff every query vertex claims a *distinct* data vertex from
    its adjacency list (Kuhn's augmenting-path matching)."""
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
