"""AHU canonical encoding for labeled free trees.

Tree features (CT-Index, Tree+Δ) are identified by a canonical form.
For *rooted* labeled trees the classic Aho–Hopcroft–Ullman encoding is
``enc(v) = (label(v), sorted(enc(children)))``; two rooted trees are
isomorphic iff their encodings are equal.  A *free* (unrooted) tree is
canonicalized by rooting at its center — the 1- or 2-vertex set left by
repeatedly peeling leaves, which is an isomorphism invariant — and
taking the minimum encoding over the center vertices.

The functions here operate on a tree given as a host
:class:`~repro.graphs.graph.Graph` plus an edge subset, so feature
enumerators never have to materialize per-feature ``Graph`` objects.

An encoding costs centre finding and a sort per level, so a caller
that meets many occurrences of few shapes should not pay it per
occurrence: CT-Index calls :func:`tree_canonical` once per labelled
isomorphism class, keyed through :mod:`repro.canonical.shapes`, and
reuses the result for every other occurrence of that class.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.canonical.order import label_key
from repro.graphs.graph import Graph

__all__ = ["tree_canonical", "tree_canonical_rooted", "tree_centers"]

Edge = tuple[int, int]


def tree_canonical(host: Graph, edges: Iterable[Edge]) -> tuple:
    """Canonical label of the free tree formed by *edges* within *host*.

    Parameters
    ----------
    host:
        The graph the feature lives in (labels are read from it).
    edges:
        Edge subset forming a tree (connected, acyclic).  A single
        vertex can be encoded by passing no edges together with
        :func:`tree_canonical_rooted` instead.

    Raises
    ------
    ValueError
        If the edge set is empty or does not form a tree.
    """
    adjacency = _tree_adjacency(edges)
    centers = tree_centers(adjacency)
    encodings = [
        _encode(host, adjacency, root=center, parent=-1) for center in centers
    ]
    return min(encodings, key=_encoding_key)


def tree_canonical_rooted(host: Graph, edges: Iterable[Edge], root: int) -> tuple:
    """AHU encoding of the tree formed by *edges*, rooted at *root*.

    With an empty edge set this encodes the single-vertex tree
    ``(label(root),)`` — used for size-0 features.
    """
    adjacency = _tree_adjacency(edges, ensure_vertex=root)
    if root not in adjacency:
        raise ValueError(f"root {root} is not a vertex of the tree")
    return _encode(host, adjacency, root=root, parent=-1)


def tree_centers(adjacency: dict[int, set[int]]) -> list[int]:
    """The 1 or 2 center vertices of a tree, by iterative leaf peeling."""
    degrees = {v: len(neighbors) for v, neighbors in adjacency.items()}
    remaining = set(adjacency)
    leaves = [v for v, d in degrees.items() if d <= 1]
    while len(remaining) > 2:
        next_leaves = []
        for leaf in leaves:
            remaining.discard(leaf)
            for neighbor in adjacency[leaf]:
                if neighbor in remaining:
                    degrees[neighbor] -= 1
                    if degrees[neighbor] == 1:
                        next_leaves.append(neighbor)
        leaves = next_leaves
    return sorted(remaining)


def _tree_adjacency(edges: Iterable[Edge], ensure_vertex: int | None = None) -> dict[int, set[int]]:
    """Adjacency map of the edge set; validates tree shape."""
    adjacency: dict[int, set[int]] = {}
    num_edges = 0
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
        num_edges += 1
    if ensure_vertex is not None:
        adjacency.setdefault(ensure_vertex, set())
    if not adjacency:
        raise ValueError("tree_canonical requires at least one edge or a root")
    if len(adjacency) != num_edges + 1:
        raise ValueError(
            f"edge set is not a tree: {num_edges} edges over {len(adjacency)} vertices"
        )
    _check_connected(adjacency)
    return adjacency


def _check_connected(adjacency: dict[int, set[int]]) -> None:
    start = next(iter(adjacency))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(adjacency):
        raise ValueError("edge set is not connected")


def _encode(host: Graph, adjacency: dict[int, set[int]], root: int, parent: int) -> tuple:
    """Recursive AHU encoding: (label, sorted child encodings)."""
    children = [
        _encode(host, adjacency, root=child, parent=root)
        for child in adjacency[root]
        if child != parent
    ]
    children.sort(key=_encoding_key)
    return (host.label(root), tuple(children))


def _encoding_key(encoding: tuple):
    """Comparable view of an encoding: labels replaced by label_key."""
    label, children = encoding
    return (label_key(label), tuple(_encoding_key(child) for child in children))
