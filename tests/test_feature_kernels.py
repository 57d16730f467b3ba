"""Differential parity: the array feature kernels vs the reference walks.

The enumerations in ``repro.features`` promise *byte-identity* with the
recursive walks kept in ``tests/oracles.py``, not mere set-equality:
same feature multisets, same occurrence counts, same start-vertex sets,
same dict insertion order, same generator yield order.  This suite pins
that promise with hypothesis over random labeled graphs — disconnected
and empty inputs included — plus the budget contract (kernel and walk
poll at the same per-start granularity, so exhaustion interrupts both
at the same point) and the admission of builder ``Graph`` inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.cycles import enumerate_simple_cycles
from repro.features.paths import path_features
from repro.features.trees import _edge_list, connected_edge_subsets, enumerate_trees
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.utils.budget import Budget, BudgetExceeded

from oracles import walk_edge_list, walk_path_features, walk_simple_cycles
from testkit import path_graph, random_graph, triangle


@st.composite
def labeled_graphs(draw, max_vertices=8, labels="ABC"):
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    vertex_labels = draw(
        st.lists(st.sampled_from(labels), min_size=n, max_size=n)
    )
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(possible), unique=True))
        if possible
        else []
    )
    return Graph(vertex_labels, edges)


def _assert_paths_identical(expected, actual):
    """Byte-identity: same keys in the same order, same aggregates."""
    assert list(actual) == list(expected)
    for key, entry in expected.items():
        assert actual[key].count == entry.count
        assert actual[key].starts == entry.starts


class _CountingBudget:
    """A budget double counting ``check()`` calls, optionally raising
    after a fixed number — pins poll *granularity*, not wall clock."""

    def __init__(self, limit=None):
        self.checks = 0
        self.limit = limit

    def check(self):
        self.checks += 1
        if self.limit is not None and self.checks > self.limit:
            raise BudgetExceeded(0.0, phase="poll limit reached")


class TestPathParity:
    @settings(max_examples=80, deadline=None)
    @given(graph=labeled_graphs(), max_edges=st.integers(0, 4))
    def test_counts_and_starts_identical(self, graph, max_edges):
        host = CSRGraph.from_graph(graph)
        expected = walk_path_features(host, max_edges)
        _assert_paths_identical(expected, path_features(host, max_edges))
        # A builder graph is admitted to CSR first: identical result.
        _assert_paths_identical(expected, path_features(graph, max_edges))

    @settings(max_examples=40, deadline=None)
    @given(graph=labeled_graphs(max_vertices=6))
    def test_vertex_exclusion_identical(self, graph):
        host = CSRGraph.from_graph(graph)
        expected = walk_path_features(host, 2, include_vertices=False)
        _assert_paths_identical(
            expected, path_features(host, 2, include_vertices=False)
        )

    def test_disconnected_graph(self):
        graph = Graph("ABAB", [(0, 1), (2, 3)])
        host = CSRGraph.from_graph(graph)
        _assert_paths_identical(
            walk_path_features(host, 3), path_features(host, 3)
        )

    def test_empty_graph(self):
        host = CSRGraph.from_graph(Graph([]))
        assert path_features(host, 2) == {}

    def test_isolated_vertices_only(self):
        graph = Graph("AB", [])
        host = CSRGraph.from_graph(graph)
        _assert_paths_identical(
            walk_path_features(host, 2), path_features(host, 2)
        )

    def test_negative_max_edges_rejected_on_csr_host(self):
        with pytest.raises(ValueError):
            path_features(CSRGraph.from_graph(path_graph("AB")), -1)

    def test_walk_over_builder_graph_agrees_up_to_order(self, rng):
        """On the builder graph itself the walk visits neighbors in
        set-iteration order, so only the aggregates must agree."""
        for _ in range(10):
            graph = random_graph(rng, 1, 7)
            via_walk = walk_path_features(graph, 3)
            via_kernel = path_features(graph, 3)
            assert set(via_kernel) == set(via_walk)
            for key, entry in via_walk.items():
                assert via_kernel[key].count == entry.count
                assert via_kernel[key].starts == entry.starts


class TestCycleAndTreeParity:
    @settings(max_examples=80, deadline=None)
    @given(graph=labeled_graphs(), max_edges=st.integers(3, 6))
    def test_cycle_sequences_identical(self, graph, max_edges):
        host = CSRGraph.from_graph(graph)
        expected = list(walk_simple_cycles(host, max_edges))
        assert list(enumerate_simple_cycles(host, max_edges)) == expected
        assert list(enumerate_simple_cycles(graph, max_edges)) == expected

    @settings(max_examples=60, deadline=None)
    @given(graph=labeled_graphs(max_vertices=6), max_edges=st.integers(1, 3))
    def test_edge_subset_sequences_identical(self, graph, max_edges):
        host = CSRGraph.from_graph(graph)
        assert list(connected_edge_subsets(host, max_edges)) == list(
            connected_edge_subsets(graph, max_edges)
        )

    @settings(max_examples=40, deadline=None)
    @given(graph=labeled_graphs(max_vertices=6))
    def test_tree_sequences_identical(self, graph):
        host = CSRGraph.from_graph(graph)
        assert list(enumerate_trees(host, 3)) == list(
            enumerate_trees(graph, 3)
        )

    def test_edge_list_matches_edges_order(self, rng):
        for _ in range(20):
            graph = random_graph(rng, 1, 8)
            host = CSRGraph.from_graph(graph)
            assert _edge_list(host) == walk_edge_list(host)
            assert _edge_list(graph) == walk_edge_list(host)

    def test_cycles_below_three_edges_empty(self):
        host = CSRGraph.from_graph(triangle("AAA"))
        assert list(enumerate_simple_cycles(host, 2)) == []


class TestBudgetParity:
    def test_paths_poll_once_per_start_on_both_cores(self, rng):
        graph = random_graph(rng, 4, 8)
        host = CSRGraph.from_graph(graph)
        dict_budget = _CountingBudget()
        csr_budget = _CountingBudget()
        walk_path_features(graph, 3, budget=dict_budget)
        path_features(host, 3, budget=csr_budget)
        assert csr_budget.checks == dict_budget.checks == graph.order

    def test_paths_exhaustion_interrupts_both_cores(self, rng):
        graph = random_graph(rng, 4, 8)
        host = CSRGraph.from_graph(graph)
        for enumerate_paths in (walk_path_features, path_features):
            with pytest.raises(BudgetExceeded):
                enumerate_paths(host, 3, budget=_CountingBudget(limit=2))

    def test_cycles_poll_once_per_anchor_on_both_cores(self, rng):
        graph = random_graph(rng, 4, 8, connected=True)
        host = CSRGraph.from_graph(graph)
        dict_budget = _CountingBudget()
        csr_budget = _CountingBudget()
        list(walk_simple_cycles(graph, 5, budget=dict_budget))
        list(enumerate_simple_cycles(host, 5, budget=csr_budget))
        assert csr_budget.checks == dict_budget.checks == graph.order

    def test_cycles_exhaustion_interrupts_both_cores(self, rng):
        graph = random_graph(rng, 5, 9, connected=True)
        host = CSRGraph.from_graph(graph)
        for enumerate_cycles in (walk_simple_cycles, enumerate_simple_cycles):
            with pytest.raises(BudgetExceeded):
                list(enumerate_cycles(host, 5, budget=_CountingBudget(limit=2)))

    def test_expired_real_budget_raises_on_csr_host(self):
        import time

        host = CSRGraph.from_graph(path_graph("ABCD"))
        budget = Budget(0.0)
        time.sleep(0.002)
        with pytest.raises(BudgetExceeded):
            path_features(host, 3, budget=budget)
