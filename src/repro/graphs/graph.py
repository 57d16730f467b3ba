"""The vertex-labeled undirected graph (paper Definition 1).

Vertices are dense integers ``0 .. n-1``; every vertex carries exactly
one hashable label; edges are unordered pairs without duplicates or
self-loops.  This mirrors the graph model shared by all six benchmarked
systems (§2.1: "undirected graphs with labels on vertices").

The class is optimized for the access patterns of the indexing
algorithms: label lookup, neighbor iteration, adjacency tests, and
grouping vertices by label — all O(1)/O(degree).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence

__all__ = ["Graph", "GraphError"]

Label = Hashable
Edge = tuple[int, int]


class GraphError(ValueError):
    """Raised on structurally invalid graph operations."""


class Graph:
    """An undirected graph with one label per vertex.

    Parameters
    ----------
    labels:
        Sequence assigning ``labels[v]`` to vertex ``v``; its length
        fixes the vertex count.
    edges:
        Iterable of ``(u, v)`` pairs.  Order within a pair is
        irrelevant; duplicates and self-loops raise :class:`GraphError`.
    graph_id:
        Optional stable identifier (assigned by
        :class:`~repro.graphs.dataset.GraphDataset` on insertion).

    Implements every read accessor of
    :class:`~repro.graphs.protocol.LabeledGraph`.

    Examples
    --------
    >>> g = Graph(["C", "C", "O"], [(0, 1), (1, 2)])
    >>> g.order, g.size
    (3, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    >>> g.label(2)
    'O'
    """

    __slots__ = (
        "_labels",
        "_adj",
        "_size",
        "graph_id",
        "_neighbor_cache",
        "_label_groups",
    )

    def __init__(
        self,
        labels: Sequence[Label],
        edges: Iterable[Edge] = (),
        graph_id: int | None = None,
    ) -> None:
        self._labels: tuple[Label, ...] = tuple(labels)
        self._adj: list[set[int]] = [set() for _ in self._labels]
        self._size = 0
        self.graph_id = graph_id
        self._neighbor_cache: list[tuple[int, ...] | None] | None = None
        self._label_groups: dict[Label, tuple[int, ...]] | None = None
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge ``{u, v}``.

        Raises
        ------
        GraphError
            If either endpoint is out of range, ``u == v`` (self-loop),
            or the edge already exists (multi-edge).
        """
        n = len(self._labels)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise GraphError(f"self-loop on vertex {u} is not allowed")
        if v in self._adj[u]:
            raise GraphError(f"duplicate edge ({u}, {v})")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._size += 1
        cache = self._neighbor_cache
        if cache is not None:
            cache[u] = None
            cache[v] = None

    @classmethod
    def from_edge_list(
        cls,
        num_vertices: int,
        label_of: Sequence[Label] | Label,
        edges: Iterable[Edge],
        graph_id: int | None = None,
    ) -> "Graph":
        """Build a graph from a vertex count and edge list.

        *label_of* may be a sequence (one label per vertex) or a single
        label applied uniformly — convenient in tests.
        """
        if isinstance(label_of, (str, bytes)) or not isinstance(label_of, Sequence):
            labels: Sequence[Label] = [label_of] * num_vertices
        else:
            labels = label_of
            if len(labels) != num_vertices:
                raise GraphError(
                    f"expected {num_vertices} labels, got {len(labels)}"
                )
        return cls(labels, edges, graph_id=graph_id)

    @classmethod
    def from_adjacency(
        cls,
        labels: Sequence[Label],
        neighbors: Sequence[Sequence[int]],
        graph_id: int | None = None,
    ) -> "Graph":
        """Build a graph directly from per-vertex neighbor lists.

        ``neighbors[v]`` lists the vertices adjacent to ``v``; the lists
        must be symmetric (``u in neighbors[v]`` iff ``v in
        neighbors[u]``), duplicate- and self-loop-free.  Unlike feeding
        an edge list to the constructor, this rebuilds each adjacency
        set by inserting members in the order given — the same way
        unpickling restores a set — so a graph round-tripped through the
        flat-array packing (:func:`repro.graphs.dataset.pack_dataset`)
        behaves exactly like one round-tripped through pickle, down to
        set iteration order.
        """
        graph = cls(labels, graph_id=graph_id)
        n = len(graph._labels)
        if len(neighbors) != n:
            raise GraphError(
                f"expected {n} neighbor lists, got {len(neighbors)}"
            )
        adjacency: list[set[int]] = []
        total = 0
        for v, row in enumerate(neighbors):
            members = set(row)
            if len(members) != len(row):
                raise GraphError(f"duplicate neighbor in row of vertex {v}")
            if v in members:
                raise GraphError(f"self-loop on vertex {v} is not allowed")
            for w in row:
                if not (0 <= w < n):
                    raise GraphError(
                        f"neighbor {w} of vertex {v} out of range for {n} vertices"
                    )
            adjacency.append(members)
            total += len(members)
        if total % 2:
            raise GraphError("neighbor lists are not symmetric")
        for v, members in enumerate(adjacency):
            for w in members:
                if v not in adjacency[w]:
                    raise GraphError(f"asymmetric edge ({v}, {w})")
        graph._adj = adjacency
        graph._size = total // 2
        return graph

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def order(self) -> int:
        """Number of vertices, ``|V|``."""
        return len(self._labels)

    @property
    def size(self) -> int:
        """Number of edges, ``|E|``."""
        return self._size

    def label(self, v: int) -> Label:
        """The label of vertex *v*."""
        return self._labels[v]

    @property
    def labels(self) -> tuple[Label, ...]:
        """Tuple of labels indexed by vertex."""
        return self._labels

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Tuple of vertices adjacent to *v*, in adjacency-set
        iteration order (cached; invalidated by :meth:`add_edge`).

        Returning an immutable snapshot — instead of the live internal
        set — means no caller can corrupt shared adjacency by mutating
        what it was handed; the iteration order still matches the
        internal set exactly, which the flat-array packing relies on.
        """
        cache = self._neighbor_cache
        if cache is None:
            cache = self._neighbor_cache = [None] * len(self._labels)
        row = cache[v]
        if row is None:
            row = cache[v] = tuple(self._adj[v])
        return row

    def neighbor_set(self, v: int) -> set[int]:
        """The internal adjacency set of *v* for read-only set algebra
        (the matchers intersect candidate sets against it).  Callers
        must not mutate it; everyone else should use :meth:`neighbors`.
        """
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Number of edges incident to *v*."""
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the undirected edge ``{u, v}`` exists."""
        return v in self._adj[u]

    def vertices(self) -> range:
        """Iterable over all vertex ids."""
        return range(len(self._labels))

    def edges(self) -> Iterator[Edge]:
        """Yield each edge exactly once as ``(u, v)`` with ``u < v``."""
        for u, neighbors in enumerate(self._adj):
            for v in neighbors:
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # derived metrics (paper Definitions 4 and 5)
    # ------------------------------------------------------------------

    def density(self) -> float:
        """Graph density per Eq. (1): ``2|E| / (|V| (|V|-1))``."""
        n = self.order
        if n < 2:
            return 0.0
        return 2.0 * self._size / (n * (n - 1))

    def average_degree(self) -> float:
        """Average vertex degree per Eq. (2): ``2|E| / |V|``."""
        n = self.order
        if n == 0:
            return 0.0
        return 2.0 * self._size / n

    def distinct_labels(self) -> set[Label]:
        """The set of labels appearing on at least one vertex."""
        return set(self._labels)

    def vertices_by_label(self) -> dict[Label, list[int]]:
        """Map each label to the (sorted) list of vertices carrying it."""
        groups: dict[Label, list[int]] = {}
        for v, label in enumerate(self._labels):
            groups.setdefault(label, []).append(v)
        return groups

    def candidate_vertices(self, label: Label, min_degree: int = 0) -> tuple[int, ...]:
        """Vertices with *label* and degree ≥ *min_degree*, ascending.

        The by-label grouping is computed once per graph and cached —
        labels are fixed at construction, so the cache never
        invalidates.  Degrees grow under :meth:`add_edge`, so the
        degree filter runs per call; vertices it drops would fail the
        matchers' per-vertex degree feasibility checks anyway, making
        the filter answer-preserving.
        """
        groups = self._label_groups
        if groups is None:
            fresh: dict[Label, list[int]] = {}
            for v, lbl in enumerate(self._labels):
                fresh.setdefault(lbl, []).append(v)
            groups = self._label_groups = {
                lbl: tuple(members) for lbl, members in fresh.items()
            }
        members = groups.get(label)
        if members is None:
            return ()
        if min_degree <= 0:
            return members
        return tuple(v for v in members if len(self._adj[v]) >= min_degree)

    def neighbor_label_counts(self) -> list[dict[Label, int]]:
        """Per-vertex neighbor-label histograms.

        ``result[v][label]`` counts *v*'s neighbors carrying *label*.
        Recomputed per call: the graph is mutable, so nothing is cached.
        """
        labels = self._labels
        out: list[dict[Label, int]] = []
        for v in range(len(labels)):
            counts: dict[Label, int] = {}
            for w in self.neighbors(v):
                lbl = labels[w]
                counts[lbl] = counts.get(lbl, 0) + 1
            out.append(counts)
        return out

    def label_histogram(self) -> dict[Label, int]:
        """Map each label to the number of vertices carrying it."""
        histogram: dict[Label, int] = {}
        for label in self._labels:
            histogram[label] = histogram.get(label, 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # connectivity and subgraphs
    # ------------------------------------------------------------------

    def connected_components(self) -> list[list[int]]:
        """Vertex lists of the connected components, each sorted."""
        seen = [False] * self.order
        components: list[list[int]] = []
        for start in self.vertices():
            if seen[start]:
                continue
            component = []
            stack = [start]
            seen[start] = True
            while stack:
                v = stack.pop()
                component.append(v)
                for w in self._adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            component.sort()
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """True iff the graph has exactly one connected component.

        The empty graph is considered disconnected, matching the
        convention used when counting "disconnected graphs" in Table 1.
        """
        if self.order == 0:
            return False
        return len(self.connected_components()) == 1

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Return the subgraph induced by *vertices* plus the vertex map.

        The result's vertex ``i`` corresponds to ``mapping[i]`` in this
        graph.  Edges are those of this graph with both endpoints in
        *vertices*.
        """
        mapping = sorted(set(vertices))
        index_of = {v: i for i, v in enumerate(mapping)}
        labels = [self._labels[v] for v in mapping]
        sub = Graph(labels)
        for v in mapping:
            for w in self._adj[v]:
                if v < w and w in index_of:
                    sub.add_edge(index_of[v], index_of[w])
        return sub, mapping

    def relabeled(self, permutation: Sequence[int]) -> "Graph":
        """Return an isomorphic copy with vertices renumbered.

        ``permutation[v]`` gives the new id of old vertex ``v``; it must
        be a permutation of ``0..n-1``.  Used heavily by property tests
        to assert canonical-form invariance.
        """
        n = self.order
        if sorted(permutation) != list(range(n)):
            raise GraphError("relabeled() requires a permutation of 0..n-1")
        labels: list[Label] = [None] * n  # type: ignore[list-item]
        for old, new in enumerate(permutation):
            labels[new] = self._labels[old]
        edges = [(permutation[u], permutation[v]) for u, v in self.edges()]
        return Graph(labels, edges, graph_id=self.graph_id)

    def copy(self) -> "Graph":
        """An independent deep copy (labels are shared, structure is not).

        Routed through :meth:`from_adjacency` so each adjacency set is
        rebuilt by inserting members in the original's iteration order
        — the parity contract that makes a copy behave exactly like a
        pickle round trip.  (Rebuilding from ``edges()``, as this
        method once did, yields equal sets with *different* iteration
        orders, which breaks byte-identity of anything serialized from
        the copy.)
        """
        return Graph.from_adjacency(
            self._labels,
            [tuple(row) for row in self._adj],
            graph_id=self.graph_id,
        )

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------

    def __getstate__(self):
        """Pickle labels/adjacency/size/id — never the neighbor cache.

        Unpickling rebuilds each adjacency set by re-inserting members,
        which generally lands them in a *different* iteration order than
        the original (fresh table vs. incrementally grown one).  A
        cached tuple snapshotted from the original would therefore be
        stale on the round-tripped graph; the cache is process-local by
        construction.
        """
        return (self._labels, self._adj, self._size, self.graph_id)

    def __setstate__(self, state) -> None:
        self._labels, self._adj, self._size, self.graph_id = state
        self._neighbor_cache = None
        self._label_groups = None

    # ------------------------------------------------------------------
    # comparisons / hashing-friendly forms
    # ------------------------------------------------------------------

    def signature(self) -> tuple:
        """A cheap equality signature: (sorted labels, sorted label edges).

        Two graphs with different signatures are certainly not
        isomorphic; equal signatures do NOT imply isomorphism.
        """
        label_edges = sorted(
            tuple(sorted((self._labels[u], self._labels[v]), key=repr))
            for u, v in self.edges()
        )
        return (tuple(sorted(self._labels, key=repr)), tuple(label_edges))

    def __eq__(self, other: object) -> bool:
        """Structural equality: same labels and same edge set (same ids)."""
        if not isinstance(other, Graph):
            return NotImplemented
        return self._labels == other._labels and self._adj == other._adj

    def __hash__(self) -> int:  # structural, order-sensitive
        return hash((self._labels, frozenset(frozenset(e) for e in self.edges())))

    def __repr__(self) -> str:
        gid = f", id={self.graph_id}" if self.graph_id is not None else ""
        return f"Graph(|V|={self.order}, |E|={self.size}{gid})"
