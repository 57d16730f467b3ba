"""Unit and randomized tests for VF2 subgraph monomorphism (Def. 3)."""

import pytest
from hypothesis import given, settings

from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.isomorphism.heuristics import connectivity_order, frequency_degree_order
from repro.isomorphism.vf2 import (
    SubgraphMatcher,
    count_embeddings,
    find_embedding,
    is_subgraph,
    match_plan,
)
from repro.utils.budget import Budget, BudgetExceeded

from oracles import ReferenceMatcher
from testkit import (
    cycle_graph,
    labeled_graphs,
    nx_is_monomorphic,
    path_graph,
    random_graph,
    star_graph,
    triangle,
)


class TestBasicMatching:
    def test_single_vertex_in_anything(self):
        assert is_subgraph(Graph(["A"]), path_graph("AB"))

    def test_label_mismatch_fails(self):
        assert not is_subgraph(Graph(["Z"]), path_graph("AB"))

    def test_edge_in_triangle(self):
        assert is_subgraph(path_graph("AA"), triangle("AAA"))

    def test_monomorphism_not_induced(self):
        """Def. 3: extra data edges are allowed — a 3-path maps into a
        triangle even though the triangle has a chord w.r.t. the path."""
        assert is_subgraph(path_graph("AAA"), triangle("AAA"))

    def test_triangle_not_in_path(self):
        assert not is_subgraph(triangle("AAA"), path_graph("AAA"))

    def test_query_larger_than_data_fails_fast(self):
        assert not is_subgraph(path_graph("AAAA"), path_graph("AA"))

    def test_identity(self):
        graph = cycle_graph("ABCA")
        assert is_subgraph(graph, graph)

    def test_empty_query_matches(self):
        assert is_subgraph(Graph([]), path_graph("AB"))

    def test_disconnected_query(self):
        query = Graph("AB")  # two isolated vertices
        assert is_subgraph(query, path_graph("AB"))
        assert not is_subgraph(query, Graph(["A"]))

    def test_injectivity_enforced(self):
        # Two A-vertices in the query need two distinct A's in the data.
        query = Graph("AA")
        assert not is_subgraph(query, Graph(["A"]))


class TestEmbeddings:
    def test_find_embedding_valid(self):
        query = path_graph("AB")
        data = Graph("BAB", [(0, 1), (1, 2)])
        embedding = find_embedding(query, data)
        assert embedding is not None
        for u, v in query.edges():
            assert data.has_edge(embedding[u], embedding[v])
        for v in query.vertices():
            assert query.label(v) == data.label(embedding[v])

    def test_find_embedding_none_when_absent(self):
        assert find_embedding(triangle(), path_graph("AAA")) is None

    def test_count_embeddings_triangle_in_triangle(self):
        # 3 rotations x 2 reflections.
        assert count_embeddings(triangle("AAA"), triangle("AAA")) == 6

    def test_count_embeddings_edge_in_star(self):
        star = star_graph("C", "HHH")
        assert count_embeddings(path_graph("CH"), star) == 3

    def test_count_with_limit(self):
        assert count_embeddings(triangle("AAA"), triangle("AAA"), limit=2) == 2

    def test_all_embeddings_distinct(self):
        query = path_graph("AA")
        data = cycle_graph("AAAA")
        seen = set()
        for embedding in SubgraphMatcher(query, data).iter_embeddings():
            key = tuple(sorted(embedding.items()))
            assert key not in seen
            seen.add(key)
        assert len(seen) == 8  # 4 edges x 2 directions


class TestAgainstNetworkx:
    def test_randomized_agreement(self, rng):
        positives = negatives = 0
        for _ in range(250):
            query = random_graph(rng, 1, 4)
            data = random_graph(rng, 1, 6)
            expected = nx_is_monomorphic(query, data)
            assert is_subgraph(query, data) == expected
            positives += expected
            negatives += not expected
        # The random mix must actually exercise both outcomes.
        assert positives > 20 and negatives > 20

    def test_randomized_agreement_with_ctindex_ordering(self, rng):
        for _ in range(120):
            query = random_graph(rng, 1, 4)
            data = random_graph(rng, 1, 6)
            got = is_subgraph(query, data, ordering=frequency_degree_order)
            assert got == nx_is_monomorphic(query, data)

    def test_queries_extracted_from_data_always_match(self, rng):
        for _ in range(60):
            data = random_graph(rng, 3, 7, connected=True)
            vertices = sorted(
                rng.sample(range(data.order), rng.randint(1, data.order))
            )
            query, _ = data.induced_subgraph(vertices)
            assert is_subgraph(query, data)


class TestOrderings:
    def test_connectivity_order_is_permutation(self, rng):
        for _ in range(30):
            graph = random_graph(rng, 1, 7)
            order = connectivity_order(graph)
            assert sorted(order) == list(graph.vertices())

    def test_connectivity_order_stays_connected(self, rng):
        for _ in range(30):
            graph = random_graph(rng, 2, 7, connected=True)
            order = connectivity_order(graph)
            for position in range(1, len(order)):
                prefix = set(order[:position])
                assert any(w in prefix for w in graph.neighbors(order[position]))

    def test_frequency_degree_order_is_permutation(self, rng):
        for _ in range(30):
            graph = random_graph(rng, 1, 7)
            order = frequency_degree_order(graph)
            assert sorted(order) == list(graph.vertices())

    def test_frequency_degree_prefers_rare_labels(self):
        data = Graph(["R"] + ["C"] * 5)
        query = Graph(["C", "R"], [(0, 1)])
        order = frequency_degree_order(query, data)
        assert order[0] == 1  # 'R' is rarer in the data graph

    def test_both_orderings_give_same_answers(self, rng):
        for _ in range(60):
            query = random_graph(rng, 1, 4)
            data = random_graph(rng, 1, 6)
            assert is_subgraph(query, data, ordering=connectivity_order) == \
                is_subgraph(query, data, ordering=frequency_degree_order)


class TestBudget:
    def test_expired_budget_aborts_search(self):
        # A pathological all-same-label instance with many branches.
        query = Graph(["X"] * 8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
        data = Graph(["X"] * 14, [(i, j) for i in range(14) for j in range(i + 1, 14)])
        budget = Budget(0.0)
        import time

        time.sleep(0.002)
        with pytest.raises(BudgetExceeded):
            count_embeddings(query, data, budget=budget)

    def test_fresh_budget_allows_search(self):
        assert is_subgraph(path_graph("AA"), triangle("AAA"), budget=Budget(30.0))


class TestReferenceDifferential:
    """The bit-row matcher against ``oracles.ReferenceMatcher`` — the
    matcher as it was before plans and rows, recomputing the query side
    per pair and intersecting neighbor sets.  In its sorted-candidate
    mode the reference tries candidates in ascending id order, as the
    bit rows do, so the two agree on the embedding sequence *and* the
    search tree (node counts, hence budget poll schedules).  Its
    original set-iteration order explores another tree, so against it
    only the embedding set and the first-match answer are pinned."""

    # Hosts reach 40 vertices: sets of ids below their table size
    # iterate in sorted order, which would hide an order change.
    @settings(max_examples=80, deadline=None)
    @given(
        data=labeled_graphs(max_vertices=40, max_edges=80),
        query=labeled_graphs(max_vertices=5),
    )
    def test_same_embeddings_in_the_same_order(self, data, query):
        admitted = CSRGraph.from_graph(query)
        for host in (data, CSRGraph.from_graph(data)):
            for ordering in (connectivity_order, frequency_degree_order):
                for pattern in (query, admitted):
                    reference = ReferenceMatcher(
                        pattern,
                        host,
                        ordering=ordering,
                        budget=Budget(60.0),
                        sorted_candidates=True,
                    )
                    matcher = SubgraphMatcher(
                        pattern, host, ordering=ordering, budget=Budget(60.0)
                    )
                    embeddings = list(matcher.iter_embeddings())
                    assert embeddings == list(reference.iter_embeddings())
                    assert matcher._nodes_visited == reference._nodes_visited
                    unsorted = ReferenceMatcher(pattern, host, ordering=ordering)
                    as_set = {tuple(sorted(e.items())) for e in embeddings}
                    assert as_set == {
                        tuple(sorted(e.items())) for e in unsorted.iter_embeddings()
                    }
                    assert len(as_set) == len(embeddings)
                    first = SubgraphMatcher(
                        pattern, host, ordering=ordering, budget=Budget(60.0)
                    )
                    assert first.exists() == unsorted.exists() == bool(embeddings)
                    # First-match mode walks a prefix of the same tree.
                    assert first._nodes_visited <= matcher._nodes_visited

    def test_data_independent_plan_is_cached_on_the_admitted_query(self):
        query = CSRGraph.from_graph(path_graph("ABA"))
        first, second = triangle("ABA"), cycle_graph("ABAB")
        plan = match_plan(query, first)
        assert query.match_plan is plan
        assert SubgraphMatcher(query, second)._plan is plan
        # CT-Index's order reads the data graph: a fresh plan per pair.
        ranked = match_plan(query, first, ordering=frequency_degree_order)
        assert ranked is not plan
        assert match_plan(query, first, ordering=frequency_degree_order) is not ranked
        # A builder query can still change: never cached.
        builder = path_graph("ABA")
        assert match_plan(builder, first) is not match_plan(builder, first)

    def test_plan_lookahead_counts_are_static(self):
        # 0-1-2 path plus 1-3: connectivity order 0, 1, 2, 3.
        query = Graph("ABCD", [(0, 1), (1, 2), (1, 3)])
        plan = match_plan(query, query)
        assert plan.order == (0, 1, 2, 3)
        assert plan.anchors == ((), (0,), (1,), (1,))
        assert plan.unmapped == (1, 2, 0, 0)
        assert plan.keys == (
            ("A", 1, frozenset({("B", 1)})),
            ("B", 3, frozenset({("A", 1), ("C", 1), ("D", 1)})),
            ("C", 1, frozenset({("B", 1)})),
            ("D", 1, frozenset({("B", 1)})),
        )
