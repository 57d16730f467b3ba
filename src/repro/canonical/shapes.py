"""Isomorphisms of small feature shapes onto a class representative.

A feature enumerator meets the same few *shapes* over and over: at 3
edges every subtree is one of 4 unlabelled trees, every short cycle a
ring of known length.  Canonicalising each labelled occurrence from
scratch (:func:`~repro.canonical.trees.tree_canonical`,
:func:`~repro.canonical.cycles.cycle_canonical`) repeats the structural
work — centre finding, sorting — once per occurrence.  The functions
here do that work once per shape and leave only a label permutation
per occurrence:

* :func:`tree_shape_plan` maps a tree, given as an edge list over any
  int vertex names, to its unlabelled AHU code (the class) and *every*
  isomorphism onto the class's representative, a tree derived from the
  code alone;
* :func:`cycle_symmetries` lists the rotations and reflections of a
  ring of *k* vertices.

Reading an occurrence's per-vertex labels through each permutation and
keeping the minimum gives one tuple per labelled isomorphism class: two
labelled trees of one class are isomorphic iff some isomorphism carries
one labelling onto the other, iff their sets of representative-order
tuples coincide, iff their minima do.  The labels only need to be
hashable and mutually comparable — CT-Index passes small interned ints.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.canonical.trees import _tree_adjacency, tree_centers

__all__ = ["cycle_symmetries", "tree_shape_plan"]

Edge = tuple[int, int]


def tree_shape_plan(edges: Iterable[Edge]) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """The class of the tree *edges* and its isomorphisms onto the class
    representative.

    Returns ``(code, isomorphisms)``: *code* is the unlabelled AHU code
    of the free tree (equal codes ⇔ isomorphic trees), and each
    isomorphism is a tuple ``p`` with ``p[r]`` the vertex of *edges*
    that representative vertex ``r`` maps to.  The representative is
    built from *code* (:func:`_representative`), so it is the same for
    every tree of the class, whichever was seen first.

    Examples
    --------
    >>> code, isomorphisms = tree_shape_plan([(0, 1), (1, 2)])
    >>> sorted(isomorphisms)
    [(1, 0, 2), (1, 2, 0)]
    """
    adjacency = _tree_adjacency(edges)
    code = min(_shape_code(adjacency, center, -1) for center in tree_centers(adjacency))
    return code, tuple(_isomorphisms(adjacency, *_representative(code)))


def cycle_symmetries(length: int) -> tuple[tuple[int, ...], ...]:
    """The ``2 * length`` rotations and reflections of a ring's positions.

    >>> cycle_symmetries(3)
    ((0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0), (1, 0, 2), (0, 2, 1))
    """
    if length < 3:
        raise ValueError(f"a simple cycle has at least 3 vertices, got {length}")
    ring = tuple(range(length))
    return tuple(
        direction[start:] + direction[:start]
        for direction in (ring, ring[::-1])
        for start in range(length)
    )


def _shape_code(adjacency: dict[int, set[int]], root: int, parent: int) -> tuple:
    """Unlabelled AHU code of the subtree at *root*: its sorted child codes."""
    return tuple(
        sorted(
            _shape_code(adjacency, child, root)
            for child in adjacency[root]
            if child != parent
        )
    )


def _representative(code: tuple) -> tuple[list[list[int]], list[int]]:
    """The tree a rooted code describes: ``(adjacency, parents)``.

    Vertex 0 is the root and every other vertex is numbered after its
    parent (``parents[0]`` is ``-1``).
    """
    adjacency: list[list[int]] = [[]]
    parents = [-1]
    stack = [(0, code)]
    while stack:
        vertex, children = stack.pop()
        for child in children:
            new = len(adjacency)
            adjacency.append([vertex])
            adjacency[vertex].append(new)
            parents.append(vertex)
            stack.append((new, child))
    return adjacency, parents


def _isomorphisms(
    shape: dict[int, set[int]], adjacency: list[list[int]], parents: list[int]
) -> list[tuple[int, ...]]:
    """Every bijection representative → *shape* that preserves edges.

    Representative vertices are placed in number order, each onto an
    unused shape neighbour of its parent's image with the same degree.
    A complete placement maps the representative's ``n - 1`` edges onto
    edges of *shape*, which has ``n - 1`` edges too, so it is an
    isomorphism.
    """
    n = len(adjacency)
    found: list[tuple[int, ...]] = []
    image = [-1] * n
    used: set[int] = set()

    def place(r: int) -> None:
        if r == n:
            found.append(tuple(image))
            return
        options = shape if parents[r] < 0 else shape[image[parents[r]]]
        for s in options:
            if s not in used and len(shape[s]) == len(adjacency[r]):
                image[r] = s
                used.add(s)
                place(r + 1)
                used.discard(s)

    place(0)
    return found
