"""Shared test helpers: random graph builders and networkx bridges.

The suite cross-checks our from-scratch algorithms against networkx
(isomorphism, cycle enumeration) and brute force; these helpers keep
that plumbing in one place.  networkx is a *test-only* dependency — the
library itself never imports it.

This module lives beside the tests (not inside ``conftest.py``) so that
both ``tests/`` and ``benchmarks/`` can import it under pytest's
importlib import mode, where conftest modules are not importable by
name.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
from hypothesis import strategies as st

from repro.graphs.graph import Graph
from repro.indexes.naive import NaiveIndex
from repro.utils.budget import Budget, BudgetExceeded

LABELS = "ABCD"


def random_graph(
    rng: random.Random,
    min_vertices: int = 2,
    max_vertices: int = 7,
    labels: str = LABELS,
    edge_probability: float | None = None,
    connected: bool = False,
) -> Graph:
    """A uniformly random labeled graph for randomized tests."""
    n = rng.randint(min_vertices, max_vertices)
    vertex_labels = [rng.choice(labels) for _ in range(n)]
    possible = list(itertools.combinations(range(n), 2))
    if edge_probability is None:
        edges = rng.sample(possible, rng.randint(0, len(possible)))
    else:
        edges = [e for e in possible if rng.random() < edge_probability]
    graph = Graph(vertex_labels, edges)
    if connected and not graph.is_connected():
        return _connect(graph, rng)
    return graph


@st.composite
def labeled_graphs(draw, max_vertices=8, labels="ABC", max_edges=None):
    """Hypothesis strategy: a labeled graph of 1..*max_vertices* vertices
    (and at most *max_edges* edges, when given)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertex_labels = draw(
        st.lists(st.sampled_from(labels), min_size=n, max_size=n)
    )
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(possible), unique=True, max_size=max_edges))
        if possible
        else []
    )
    return Graph(vertex_labels, edges)


def _connect(graph: Graph, rng: random.Random) -> Graph:
    """Join the components of *graph* with random bridge edges."""
    joined = graph.copy()
    components = joined.connected_components()
    for previous, current in zip(components, components[1:]):
        joined.add_edge(rng.choice(previous), rng.choice(current))
    return joined


def to_networkx(graph: Graph) -> nx.Graph:
    """Convert to a networkx graph with labels on the ``label`` key."""
    out = nx.Graph()
    for v in graph.vertices():
        out.add_node(v, label=graph.label(v))
    out.add_edges_from(graph.edges())
    return out


def nx_label_match(a: dict, b: dict) -> bool:
    return a["label"] == b["label"]


def nx_is_monomorphic(query: Graph, data: Graph) -> bool:
    """Ground truth for Definition 3 via networkx."""
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        to_networkx(data), to_networkx(query), node_match=nx_label_match
    )
    return matcher.subgraph_is_monomorphic()


# A small zoo of named graphs used across test files.


def triangle(labels: str = "AAA") -> Graph:
    return Graph(list(labels), [(0, 1), (1, 2), (0, 2)])


def path_graph(labels: str) -> Graph:
    return Graph(list(labels), [(i, i + 1) for i in range(len(labels) - 1)])


def star_graph(center: str, leaves: str) -> Graph:
    return Graph([center] + list(leaves), [(0, i + 1) for i in range(len(leaves))])


def cycle_graph(labels: str) -> Graph:
    n = len(labels)
    return Graph(list(labels), [(i, (i + 1) % n) for i in range(n)])


# Failure-injection indexes for the parallel-engine tests.  They live
# here (an importable, top-level module) so worker processes can
# unpickle references to them.


class ExplodingIndex(NaiveIndex):
    """An index whose build always crashes — exercises STATUS_ERROR."""

    name = "exploding"

    def _build(self, dataset, budget):
        raise RuntimeError("injected build failure")


class KillerIndex(NaiveIndex):
    """An index whose build kills its process outright.

    Unlike :class:`ExplodingIndex` (a catchable method failure that
    becomes a status), this simulates a hard worker crash — segfault,
    OOM-kill — that the pool surfaces as ``BrokenProcessPool``.  The
    arena leak tests use it to prove shared-memory segments are
    unlinked even when workers die mid-task.
    """

    name = "killer"

    def _build(self, dataset, budget):
        import os

        os._exit(3)


class StallingIndex(NaiveIndex):
    """An index whose build logs the attempt, then overruns its budget.

    Each build appends one line to the *marker* file before raising
    ``BudgetExceeded``, so a test can count — across worker processes —
    how many builds a timed-out cell actually cost.
    """

    name = "stalling"

    def __init__(self, marker: str = "") -> None:
        super().__init__()
        self.marker = marker

    def _build(self, dataset, budget):
        from repro.utils.budget import BudgetExceeded

        with open(self.marker, "a", encoding="utf-8") as log:
            log.write("build\n")
        raise BudgetExceeded(0.0, "stalling build")


class CountdownBudget(Budget):
    """A budget that runs out at its *n*-th poll, whoever polls (never,
    when *left* is ``None``: then it only counts the polls)."""

    __slots__ = ("left", "polls")

    def __init__(self, left: int | None = None) -> None:
        super().__init__()
        self.left = left
        self.polls = 0

    def check(self) -> None:
        self.polls += 1
        if self.left is not None and self.polls >= self.left:
            raise BudgetExceeded(0.0, "countdown")
