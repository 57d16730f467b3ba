"""Immutable CSR graph core — the hot-path representation.

PR 2 introduced the flat-array packing (labels plus int64 adjacency
with prefix offsets) as the shared-memory *wire format*; this module
promotes it to the primary in-memory structure.  A :class:`CSRGraph`
stores vertices as contiguous numpy int64 arrays:

* ``indptr`` — per-vertex prefix offsets into ``indices`` (``n+1``
  entries);
* ``indices`` — concatenated neighbor runs, each run **sorted
  ascending** so adjacency tests binary-search a contiguous slice;
* ``label_ids`` — per-vertex indices into a deduplicated label table
  (shared across a whole :class:`CSRDataset`).

The dict-of-sets :class:`~repro.graphs.graph.Graph` remains the
*builder*: mutation (``add_edge``), validation, generators, and query
graphs all stay on it.  Data graphs flowing into the matcher and the
index builders are converted once per dataset — or attached directly
from a packed shared-memory segment via :meth:`CSRDataset.from_packed`,
skipping the per-vertex ``from_adjacency`` rebuild entirely.

Determinism: every generic accessor returns plain Python ints (numpy
scalars ``repr`` differently and would corrupt content fingerprints and
canonical structures), and neighbor order is *sorted* rather than
set-iteration order.  All canonicalized sweep quantities are
order-independent functions of graph content, so an index fed the
builder dataset directly and one fed its CSR conversion canonicalize to
the same bytes — pinned by ``tests/test_graph_core.py``.
"""

from __future__ import annotations

import pickle
import struct
from collections.abc import Hashable, Iterable, Iterator

import numpy as np

from repro.graphs.dataset import (
    _HEADER_BYTES,
    _PACK_HEADER,
    _PACK_MAGIC,
    GraphDataset,
)
from repro.graphs.graph import Graph

__all__ = [
    "CSRGraph",
    "CSRDataset",
    "as_core_dataset",
    "as_core_query",
]

Label = Hashable


def as_core_dataset(dataset):
    """*dataset* as a :class:`CSRDataset` (idempotent).

    A builder :class:`~repro.graphs.dataset.GraphDataset` is converted;
    anything already converted passes through unchanged.
    """
    if isinstance(dataset, CSRDataset):
        return dataset
    return CSRDataset.from_dataset(dataset)


def as_core_query(query):
    """*query* as a :class:`CSRGraph` (idempotent).

    Query admission for the verify path: a builder
    :class:`~repro.graphs.graph.Graph` is converted once — at the
    runner / batch-dispatch / daemon boundary — so the matchers and the
    feature enumerations see CSR on *both* sides of every (query, data)
    pair.  The query gets a private label table; every canonicalized
    quantity is a function of label objects, not ids, so sharing the
    dataset's table is unnecessary.  The array-only consumers (feature
    enumeration, Ullmann's adjacency rows, gCode's counters) call this on
    whatever they are handed, which is a no-op ``isinstance`` for every
    graph that was admitted upstream.
    """
    if isinstance(query, CSRGraph):
        return query
    return CSRGraph.from_graph(query)


def _induced_rows(
    indptr: np.ndarray, indices: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays of the subgraph induced by *keep* (sorted, unique).

    The kept rows are sliced out of *indices* in one gather, every
    neighbor is relabeled to its rank in *keep* by one ``searchsorted``,
    and neighbors outside *keep* are dropped.  The relabel is monotone,
    so each run stays sorted and vertex ``i`` of the result is
    ``keep[i]`` — iteration order over the subgraph is iteration order
    over the original.
    """
    starts = indptr[keep]
    lengths = indptr[keep + 1] - starts
    # Entry j of the gather reads indices[starts[row] + (j - first[row])].
    first = np.cumsum(lengths) - lengths
    cols = indices[
        np.arange(int(lengths.sum()), dtype=np.int64)
        + np.repeat(starts - first, lengths)
    ]
    rank = np.searchsorted(keep, cols)
    inside = keep[np.minimum(rank, keep.shape[0] - 1)] == cols
    rows = np.repeat(np.arange(keep.shape[0], dtype=np.int64), lengths)
    sub_indptr = np.zeros(keep.shape[0] + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(rows[inside], minlength=keep.shape[0]), out=sub_indptr[1:]
    )
    return sub_indptr, rank[inside].astype(np.int64, copy=False)


class CSRGraph:
    """One immutable vertex-labeled graph in CSR form.

    Implements every read accessor of
    :class:`~repro.graphs.protocol.LabeledGraph`, plus the raw array
    accessors; there is no ``add_edge``.  Neighbor runs are sorted, so
    :meth:`neighbors` returns ascending tuples and :meth:`has_edge`
    binary-searches a contiguous slice.

    Per-graph caches (neighbor tuples and frozensets, label groups,
    candidate tuples, feasible rows, neighbor-label counts, adjacency
    rows) are filled lazily and amortize across every query verified
    against the graph.
    """

    __slots__ = (
        "graph_id",
        "_label_table",
        "_label_ids",
        "_indptr",
        "_indices",
        "_order",
        "_size",
        "_degrees",
        "_neighbor_tuples",
        "_neighbor_sets",
        "_by_label",
        "_histogram",
        "_neighbor_label_counts",
        "_label_id_of",
        "_candidates",
        "_feasible_rows",
        "_feasible_parts",
        "_adjacency_bits",
        "_adjacency_rows",
        "_labels",
        "match_plan",
    )

    def __init__(
        self,
        label_table: tuple[Label, ...],
        label_ids: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        graph_id: int | None = None,
    ) -> None:
        self._label_table = label_table
        self._label_ids = label_ids
        self._indptr = indptr
        self._indices = indices
        self._order = int(label_ids.shape[0])
        self._size = int(indices.shape[0]) // 2
        self.graph_id = graph_id
        self._degrees: np.ndarray | None = None
        self._neighbor_tuples: list[tuple[int, ...] | None] | None = None
        self._neighbor_sets: list[frozenset[int] | None] | None = None
        self._by_label: dict[Label, list[int]] | None = None
        self._histogram: dict[Label, int] | None = None
        self._neighbor_label_counts: list[dict[Label, int]] | None = None
        self._label_id_of: dict[Label, int] | None = None
        self._candidates: dict[tuple[Label, int], tuple[int, ...]] | None = None
        self._feasible_rows: dict[tuple, int] | None = None
        self._feasible_parts: dict[tuple, int] | None = None
        self._adjacency_bits: np.ndarray | None = None
        self._adjacency_rows: list[int] | None = None
        self._labels: tuple[Label, ...] | None = None
        #: This graph's VF2 plan as a query, cached by
        #: :func:`repro.isomorphism.vf2.match_plan` (opaque here).
        self.match_plan = None

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        label_index: dict[Label, int] | None = None,
    ) -> "CSRGraph":
        """Convert a builder :class:`Graph`; neighbor runs are sorted.

        *label_index* lets a dataset share one label table across all
        its graphs (entries are appended for unseen labels); without it
        the graph gets a private table.
        """
        if label_index is None:
            label_index = {}
        order = graph.order
        label_ids = np.empty(order, dtype=np.int64)
        indptr = np.zeros(order + 1, dtype=np.int64)
        flat: list[int] = []
        for v in range(order):
            label_ids[v] = label_index.setdefault(
                graph.label(v), len(label_index)
            )
            row = sorted(graph.neighbors(v))
            indptr[v + 1] = indptr[v] + len(row)
            flat.extend(row)
        indices = np.asarray(flat, dtype=np.int64)
        table = tuple(label_index)
        return cls(table, label_ids, indptr, indices, graph_id=graph.graph_id)

    # ------------------------------------------------------------------
    # basic accessors (Graph read-API parity)
    # ------------------------------------------------------------------

    @property
    def order(self) -> int:
        """Number of vertices, ``|V|``."""
        return self._order

    @property
    def size(self) -> int:
        """Number of edges, ``|E|``."""
        return self._size

    def label(self, v: int) -> Label:
        """The label of vertex *v*."""
        return self._label_table[self._label_ids[v]]

    @property
    def labels(self) -> tuple[Label, ...]:
        """Tuple of labels indexed by vertex (cached)."""
        if self._labels is None:
            table = self._label_table
            self._labels = tuple(table[i] for i in self._label_ids.tolist())
        return self._labels

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Ascending tuple of vertices adjacent to *v* (cached)."""
        cache = self._neighbor_tuples
        if cache is None:
            cache = self._neighbor_tuples = [None] * self._order
        row = cache[v]
        if row is None:
            row = cache[v] = tuple(
                self._indices[self._indptr[v] : self._indptr[v + 1]].tolist()
            )
        return row

    def neighbor_set(self, v: int) -> frozenset[int]:
        """Frozenset of vertices adjacent to *v* (cached); for set
        algebra in the matchers."""
        cache = self._neighbor_sets
        if cache is None:
            cache = self._neighbor_sets = [None] * self._order
        row = cache[v]
        if row is None:
            row = cache[v] = frozenset(self.neighbors(v))
        return row

    def neighbors_slice(self, v: int) -> np.ndarray:
        """Raw sorted int64 slice of *v*'s neighbor run (do not write)."""
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The raw ``(indptr, indices)`` pair (int64; do not write) —
        what the feature enumerations iterate over."""
        return self._indptr, self._indices

    def label_ids_array(self) -> np.ndarray:
        """Per-vertex label-table indices (int64; do not write)."""
        return self._label_ids

    @property
    def label_table(self) -> tuple[Label, ...]:
        """The deduplicated label table ``label_ids_array`` indexes."""
        return self._label_table

    def degree(self, v: int) -> int:
        """Number of edges incident to *v*."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees_array(self) -> np.ndarray:
        """All vertex degrees as one int64 array (cached; do not write)."""
        if self._degrees is None:
            self._degrees = np.diff(self._indptr)
        return self._degrees

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``{u, v}`` exists; binary search in the sorted run."""
        i0 = self._indptr[u]
        i1 = self._indptr[u + 1]
        run = self._indices[i0:i1]
        k = int(np.searchsorted(run, v))
        return k < run.shape[0] and int(run[k]) == v

    def vertices(self) -> range:
        """Iterable over all vertex ids."""
        return range(self._order)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge exactly once as ``(u, v)`` with ``u < v``."""
        for u in range(self._order):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------

    def density(self) -> float:
        """Graph density per Eq. (1): ``2|E| / (|V| (|V|-1))``."""
        n = self._order
        if n < 2:
            return 0.0
        return 2.0 * self._size / (n * (n - 1))

    def average_degree(self) -> float:
        """Average vertex degree per Eq. (2): ``2|E| / |V|``."""
        if self._order == 0:
            return 0.0
        return 2.0 * self._size / self._order

    def distinct_labels(self) -> set[Label]:
        """The set of labels appearing on at least one vertex."""
        table = self._label_table
        return {table[i] for i in set(self._label_ids.tolist())}

    def vertices_by_label(self) -> dict[Label, list[int]]:
        """Map each label to the list of vertices carrying it.

        Cached and shared across callers — treat it as read-only.
        """
        if self._by_label is None:
            groups: dict[Label, list[int]] = {}
            table = self._label_table
            for v, lid in enumerate(self._label_ids.tolist()):
                groups.setdefault(table[lid], []).append(v)
            self._by_label = groups
        return self._by_label

    def label_histogram(self) -> dict[Label, int]:
        """Map each label to the number of vertices carrying it
        (cached; treat as read-only)."""
        if self._histogram is None:
            table = self._label_table
            counts = np.bincount(self._label_ids, minlength=len(table))
            self._histogram = {
                table[i]: int(c)
                for i, c in enumerate(counts.tolist())
                if c
            }
        return self._histogram

    # ------------------------------------------------------------------
    # vectorized candidate filtering (matcher hot path)
    # ------------------------------------------------------------------

    def candidate_vertices(self, label: Label, min_degree: int = 0) -> tuple[int, ...]:
        """Vertices with *label* and degree ≥ *min_degree*, ascending.

        One vectorized mask over the label-id and degree arrays —
        Ullmann's initial domains and the single-graph filter's —
        cached per ``(label, min_degree)``: every query vertex with the
        same label and degree reuses the tuple.  Vertices this drops
        would fail the matchers' per-vertex label and degree
        feasibility checks anyway, so filtering here never changes an
        answer, only skips doomed branches earlier.
        """
        cache = self._candidates
        if cache is None:
            cache = self._candidates = {}
        found = cache.get((label, min_degree))
        if found is None:
            mask = self._part_mask(("label", label))
            if min_degree > 0:
                mask &= self._part_mask(("degree", min_degree))
            found = cache[label, min_degree] = tuple(np.nonzero(mask)[0].tolist())
        return found

    def feasible_rows(self, keys: Iterable[tuple]) -> list[int]:
        """The vertices VF2 may map each query vertex onto, as bit rows.

        Each key is ``(label, min_degree, needs)``, *needs* an iterable
        of ``(label, count)`` pairs: bit ``v`` of its row is set iff
        ``v`` carries *label*, has degree ≥ *min_degree*, and has at
        least *count* neighbors carrying each needed label — the label,
        degree and neighbor-label dominance rules of VF2's feasibility
        test, in the bit space of :meth:`adjacency_rows`, cached per key
        (treat as read-only).  A new key is the AND of one cached row
        per rule, so only a rule never asked of this graph before costs
        a vectorized pass.
        """
        cache = self._feasible_rows
        if cache is None:
            cache = self._feasible_rows = {}
        rows = []
        for key in keys:
            row = cache.get(key)
            if row is None:
                label, min_degree, needs = key
                row = self._part_row(("label", label))
                if min_degree > 0:
                    row &= self._part_row(("degree", min_degree))
                for needed, count in needs:
                    row &= self._part_row(("needs", needed, count))
                cache[key] = row
            rows.append(row)
        return rows

    def _part_row(self, part: tuple) -> int:
        """One rule of :meth:`feasible_rows` as a bit row (cached)."""
        cache = self._feasible_parts
        if cache is None:
            cache = self._feasible_parts = {}
        row = cache.get(part)
        if row is None:
            row = cache[part] = int.from_bytes(
                np.packbits(self._part_mask(part), bitorder="little").tobytes(),
                "little",
            )
        return row

    def _part_mask(self, part: tuple) -> np.ndarray:
        """Boolean per-vertex mask of one rule: ``("label", label)``,
        ``("degree", minimum)`` or ``("needs", label, count)``."""
        if part[0] == "degree":
            return self.degrees_array() >= part[1]
        if self._label_id_of is None:
            self._label_id_of = {lbl: i for i, lbl in enumerate(self._label_table)}
        lid = self._label_id_of.get(part[1])
        if lid is None:
            return np.zeros(self._order, dtype=bool)
        if part[0] == "label":
            return self._label_ids == lid
        # Prefix sums of "neighbor carries the label" over the
        # concatenated runs; a row's difference is its count.
        hits = np.zeros(self._indices.shape[0] + 1, dtype=np.int64)
        np.cumsum(self._label_ids[self._indices] == lid, out=hits[1:])
        indptr = self._indptr
        return hits[indptr[1:]] - hits[indptr[:-1]] >= part[2]

    def adjacency_bitmatrix(self) -> np.ndarray:
        """The packed adjacency bit matrix (cached; do not write).

        Row ``v`` is ``ceil(order / 64)`` little-endian uint64 words
        with bit ``w`` set iff ``{v, w}`` is an edge, built in one
        vectorized scatter; :meth:`adjacency_rows` unpacks it.
        """
        cached = self._adjacency_bits
        if cached is None:
            words = (self._order + 63) // 64 if self._order else 0
            matrix = np.zeros((self._order, max(words, 1)), dtype=np.uint64)
            if self._indices.shape[0]:
                rows = np.repeat(
                    np.arange(self._order, dtype=np.int64),
                    np.diff(self._indptr),
                )
                cols = self._indices
                np.bitwise_or.at(
                    matrix,
                    (rows, cols >> 6),
                    np.uint64(1) << (cols & 63).astype(np.uint64),
                )
            cached = self._adjacency_bits = matrix
        return cached

    def adjacency_rows(self) -> list[int]:
        """The adjacency bit matrix as one Python ``int`` per vertex
        (cached; treat as read-only).

        Bit ``w`` of ``rows[v]`` is set iff ``{v, w}`` is an edge — the
        rows Ullmann's engine ANDs candidate domains against, one
        C-level operation per row whatever the graph's width.
        """
        if self._adjacency_rows is None:
            matrix = self.adjacency_bitmatrix()
            stride = matrix.shape[1] * 8
            raw = matrix.astype("<u8", copy=False).tobytes()
            self._adjacency_rows = [
                int.from_bytes(raw[start : start + stride], "little")
                for start in range(0, self._order * stride, stride)
            ]
        return self._adjacency_rows

    def neighbor_label_counts(self) -> list[dict[Label, int]]:
        """Per-vertex neighbor-label histograms, computed once.

        ``result[v][label]`` counts *v*'s neighbors carrying *label* —
        the dominance structure :class:`SubgraphMatcher` needs for its
        lookahead, amortized across the whole workload (treat as
        read-only).
        """
        if self._neighbor_label_counts is None:
            table = self._label_table
            indptr = self._indptr
            gathered = (
                self._label_ids[self._indices]
                if self._indices.shape[0]
                else self._indices
            )
            out: list[dict[Label, int]] = []
            for v in range(self._order):
                counts: dict[Label, int] = {}
                for lid in gathered[indptr[v] : indptr[v + 1]].tolist():
                    lbl = table[lid]
                    counts[lbl] = counts.get(lbl, 0) + 1
                out.append(counts)
            self._neighbor_label_counts = out
        return self._neighbor_label_counts

    # ------------------------------------------------------------------
    # connectivity and subgraphs
    # ------------------------------------------------------------------

    def connected_components(self) -> list[list[int]]:
        """Vertex lists of the connected components, each sorted."""
        seen = [False] * self._order
        components: list[list[int]] = []
        for start in range(self._order):
            if seen[start]:
                continue
            component = []
            stack = [start]
            seen[start] = True
            while stack:
                v = stack.pop()
                component.append(v)
                for w in self.neighbors(v):
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            component.sort()
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """True iff exactly one connected component (empty graph: False)."""
        if self._order == 0:
            return False
        return len(self.connected_components()) == 1

    def induced_subgraph(
        self, vertices: Iterable[int]
    ) -> tuple["CSRGraph", list[int]]:
        """The subgraph induced by *vertices* plus the vertex map.

        Returns a :class:`CSRGraph` sharing this graph's label table;
        its vertex ``i`` is ``mapping[i]`` here (ascending, so neighbor
        runs stay sorted).  Built by :func:`_induced_rows` — Ullmann's
        compact host goes through it.
        """
        mapping = sorted(set(vertices))
        keep = np.asarray(mapping, dtype=np.int64)
        indptr, indices = _induced_rows(self._indptr, self._indices, keep)
        sub = CSRGraph(self._label_table, self._label_ids[keep], indptr, indices)
        return sub, mapping

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Structural equality: same per-vertex labels and same edge
        set.  Matches :class:`Graph` semantics, so a CSR view of a graph
        compares equal to the builder graph it was packed from.
        """
        if isinstance(other, CSRGraph):
            return (
                self.labels == other.labels
                and np.array_equal(self._indptr, other._indptr)
                and np.array_equal(self._indices, other._indices)
            )
        if isinstance(other, Graph):
            if self.labels != other.labels or self._size != other.size:
                return False
            return all(
                list(self.neighbors(v)) == sorted(other.neighbor_set(v))
                for v in self.vertices()
            )
        return NotImplemented

    def __hash__(self) -> int:  # structural, matches Graph.__hash__
        return hash(
            (self.labels, frozenset(frozenset(e) for e in self.edges()))
        )

    def __repr__(self) -> str:
        gid = f", id={self.graph_id}" if self.graph_id is not None else ""
        return f"CSRGraph(|V|={self.order}, |E|={self.size}{gid})"


class CSRDataset:
    """An ordered, id-stable collection of :class:`CSRGraph` views.

    Read-API compatible with :class:`~repro.graphs.dataset.GraphDataset`
    (``len``, indexing, iteration, id and aggregate accessors) but
    immutable: graphs are materialized once at construction so their
    lazy caches persist across every query of a workload.
    """

    __slots__ = ("_graphs", "name")

    def __init__(self, graphs: Iterable[CSRGraph], name: str = "") -> None:
        self._graphs: list[CSRGraph] = list(graphs)
        self.name = name
        for graph_id, graph in enumerate(self._graphs):
            graph.graph_id = graph_id

    @classmethod
    def from_dataset(cls, dataset: GraphDataset) -> "CSRDataset":
        """Convert a builder dataset; one shared label table."""
        label_index: dict[Label, int] = {}
        graphs = [
            CSRGraph.from_graph(graph, label_index) for graph in dataset
        ]
        table = tuple(label_index)
        for graph in graphs:
            graph._label_table = table
        return cls(graphs, name=getattr(dataset, "name", ""))

    @classmethod
    def from_packed(cls, buffer) -> "CSRDataset":
        """Attach to a buffer written by
        :func:`repro.graphs.dataset.pack_dataset`.

        The int64 region is bulk-copied into one numpy array (a view
        would pin shared memory and raise ``BufferError`` on unmap) and
        sliced per graph; adjacency runs are sorted with one vectorized
        ``lexsort`` per graph.  No per-vertex ``from_adjacency``
        rebuild, no per-edge Python loop — this is the arena's CSR
        attach path.
        """
        base = memoryview(buffer)
        try:
            magic = bytes(base[: len(_PACK_MAGIC)])
            if magic != _PACK_MAGIC:
                raise ValueError(f"not a packed dataset (magic {magic!r})")
            g, v, a, label_len, name_len = struct.unpack_from(
                _PACK_HEADER, base, len(_PACK_MAGIC)
            )
            ints_count = (g + 1) + (v + 1) + v + a
            ints_end = _HEADER_BYTES + 8 * ints_count
            if len(base) < ints_end + label_len + name_len:
                raise ValueError("packed dataset buffer is truncated")
            ints = np.frombuffer(
                base, dtype=np.dtype("<i8"), count=ints_count,
                offset=_HEADER_BYTES,
            ).astype(np.int64, copy=True)
            label_table: tuple[Label, ...] = (
                pickle.loads(bytes(base[ints_end : ints_end + label_len]))
                if label_len
                else ()
            )
            name = bytes(
                base[ints_end + label_len : ints_end + label_len + name_len]
            ).decode("utf-8")
        finally:
            base.release()
        vstarts = ints[: g + 1]
        astarts = ints[g + 1 : g + v + 2]
        label_ids = ints[g + v + 2 : g + v + 2 + v]
        adj = ints[g + v + 2 + v :]
        graphs: list[CSRGraph] = []
        for i in range(g):
            v0 = int(vstarts[i])
            v1 = int(vstarts[i + 1])
            a0 = int(astarts[v0])
            indptr = astarts[v0 : v1 + 1] - a0
            indices = adj[a0 : int(astarts[v1])]
            if indices.shape[0]:
                # Packed runs preserve set-iteration order; sort each
                # vertex's run in one shot (primary key: owning row).
                rows = np.repeat(
                    np.arange(v1 - v0, dtype=np.int64), np.diff(indptr)
                )
                indices = indices[np.lexsort((indices, rows))]
            graphs.append(
                CSRGraph(label_table, label_ids[v0:v1].copy(), indptr, indices)
            )
        return cls(graphs, name=name)

    # ------------------------------------------------------------------
    # GraphDataset read-API parity
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._graphs)

    def __getitem__(self, graph_id: int) -> CSRGraph:
        return self._graphs[graph_id]

    def __iter__(self) -> Iterator[CSRGraph]:
        return iter(self._graphs)

    def ids(self) -> range:
        """All graph ids (dense)."""
        return range(len(self._graphs))

    def all_ids(self) -> set[int]:
        """All graph ids as a fresh mutable set (naive candidate set)."""
        return set(range(len(self._graphs)))

    def distinct_labels(self) -> set[Label]:
        """Union of vertex labels across all graphs."""
        labels: set[Label] = set()
        for graph in self._graphs:
            labels.update(graph.distinct_labels())
        return labels

    def total_vertices(self) -> int:
        """Sum of ``|V|`` over all graphs."""
        return sum(graph.order for graph in self._graphs)

    def total_edges(self) -> int:
        """Sum of ``|E|`` over all graphs."""
        return sum(graph.size for graph in self._graphs)

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return f"CSRDataset({len(self._graphs)} graphs{name})"
