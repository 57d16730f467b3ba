"""Tests for the Ullmann verifier (the ablation baseline)."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Graph
from repro.isomorphism.ullmann import (
    _initial_candidates,
    compile_query,
    ullmann_is_subgraph,
)
from repro.isomorphism.vf2 import is_subgraph
from repro.utils.budget import Budget, BudgetExceeded

from oracles import SetDomainState, set_ullmann_is_subgraph
from testkit import (
    cycle_graph,
    labeled_graphs,
    nx_is_monomorphic,
    path_graph,
    random_graph,
    star_graph,
    triangle,
)


class TestBasics:
    def test_single_vertex(self):
        assert ullmann_is_subgraph(Graph(["A"]), path_graph("AB"))

    def test_label_mismatch(self):
        assert not ullmann_is_subgraph(Graph(["Z"]), path_graph("AB"))

    def test_monomorphism_semantics(self):
        # A 3-path embeds into a triangle (extra edges allowed).
        assert ullmann_is_subgraph(path_graph("AAA"), triangle("AAA"))

    def test_triangle_not_in_path(self):
        assert not ullmann_is_subgraph(triangle("AAA"), path_graph("AAA"))

    def test_query_larger_than_data(self):
        assert not ullmann_is_subgraph(path_graph("AAAA"), path_graph("AA"))

    def test_empty_query(self):
        assert ullmann_is_subgraph(Graph([]), path_graph("AB"))

    def test_identity(self):
        graph = cycle_graph("ABCD")
        assert ullmann_is_subgraph(graph, graph)

    def test_injectivity(self):
        assert not ullmann_is_subgraph(Graph("AA"), Graph(["A"]))

    def test_disconnected_query(self):
        assert ullmann_is_subgraph(Graph("AB"), path_graph("AB"))
        assert not ullmann_is_subgraph(Graph("AB"), Graph(["A"]))

    def test_star_into_star(self):
        assert ullmann_is_subgraph(star_graph("C", "HH"), star_graph("C", "HHH"))
        assert not ullmann_is_subgraph(star_graph("C", "HHHH"), star_graph("C", "HHH"))


class TestAgainstOracles:
    def test_agreement_with_vf2_and_networkx(self, rng):
        positives = negatives = 0
        for _ in range(250):
            query = random_graph(rng, 1, 4)
            data = random_graph(rng, 1, 6)
            expected = nx_is_monomorphic(query, data)
            assert ullmann_is_subgraph(query, data) == expected
            assert is_subgraph(query, data) == expected
            positives += expected
            negatives += not expected
        assert positives > 20 and negatives > 20

    def test_extracted_subgraphs_always_found(self, rng):
        for _ in range(50):
            data = random_graph(rng, 3, 7, connected=True)
            vertices = sorted(rng.sample(range(data.order), 3))
            query, _ = data.induced_subgraph(vertices)
            assert ullmann_is_subgraph(query, data)


class TestBudget:
    def test_expired_budget_raises(self, monkeypatch):
        # Ullmann's refinement prunes hard, so force a poll on the very
        # first search node rather than hand-crafting a slow instance.
        import repro.isomorphism.ullmann as ullmann_module

        monkeypatch.setattr(ullmann_module, "_BUDGET_POLL_INTERVAL", 1)
        query = Graph(["X"] * 3, [(0, 1), (1, 2)])
        data = Graph(["X"] * 5, [(i, i + 1) for i in range(4)])
        budget = Budget(0.0)
        time.sleep(0.002)
        with pytest.raises(BudgetExceeded):
            ullmann_is_subgraph(query, data, budget=budget)

    def test_generous_budget_transparent(self):
        assert ullmann_is_subgraph(
            path_graph("AA"), triangle("AAA"), budget=Budget(60.0)
        )


class TestEngineDifferential:
    """Int-row engine vs the reference set engine: same answers, same
    search tree.

    The int-row engine promises more than agreement — it explores the
    *identical* search tree as ``oracles.SetDomainState`` (candidates
    ascending, refinement passes in the same order, domains emptied at
    the same step), so the node counters — and therefore budget poll
    counts — must match exactly.
    """

    def _both(self, query, data, budget=None):
        candidates = _initial_candidates(query, data)
        if candidates is None:
            return None, None
        set_state = SetDomainState(query, data, budget)
        set_answer = set_state.search(0, [set(c) for c in candidates], set())
        compiled = compile_query(query, data)
        if compiled is None:  # size exit: the engine never searches
            assert not set_answer
            return set_answer, set_state.nodes
        assert compiled.embeds(budget) == set_answer
        assert compiled.nodes == set_state.nodes
        return set_answer, set_state.nodes

    def test_engines_agree_on_answers_and_poll_counts(self, rng):
        from repro.graphs.csr import CSRGraph

        positives = nontrivial = 0
        for _ in range(150):
            query = random_graph(rng, 1, 4)
            data = random_graph(rng, 1, 7)
            expected = set_ullmann_is_subgraph(query, data)
            assert ullmann_is_subgraph(query, data) == expected
            # Same differential over a CSR host (vectorized initial
            # candidates feed both engines identically).
            csr_data = CSRGraph.from_graph(data)
            assert set_ullmann_is_subgraph(query, csr_data) == expected
            assert ullmann_is_subgraph(query, csr_data) == expected
            # Budget polls are driven by the node counter: identical
            # node counts == identical poll schedules at any interval.
            answer, nodes = self._both(query, data, budget=Budget(60.0))
            if answer is not None:
                nontrivial += 1
                positives += answer
        assert nontrivial > 40 and positives > 10

    def test_wide_data_graph_crosses_word_boundaries(self, rng):
        # > 64 data vertices: rows wider than one machine word.
        for _ in range(10):
            data = random_graph(rng, 70, 90, connected=True)
            vertices = sorted(rng.sample(range(data.order), 4))
            query, _ = data.induced_subgraph(vertices)
            assert ullmann_is_subgraph(query, data)
            self._both(query, data, budget=Budget(60.0))

    def test_empty_initial_domain_early_exits(self, monkeypatch):
        """Regression pin: a label with no feasible data vertex returns
        False before the engine allocates domains or searches."""
        from repro.isomorphism import ullmann as ullmann_module

        query = Graph(["A", "Z"], [(0, 1)])
        data = path_graph("AB")  # no 'Z' anywhere
        assert _initial_candidates(query, data) is None

        def explode(*args, **kwargs):
            raise AssertionError("search entered despite empty domain")

        monkeypatch.setattr(ullmann_module.CompiledQuery, "_search", explode)
        monkeypatch.setattr(SetDomainState, "search", explode)
        assert not ullmann_is_subgraph(query, data)
        assert not set_ullmann_is_subgraph(query, data)

    def test_early_exit_counts_no_nodes(self):
        # Degree-infeasible: 'A' hub needs degree 3, data max is 2.
        query = star_graph("A", "BBB")
        data = path_graph("BAB")
        assert _initial_candidates(query, data) is None
        assert not ullmann_is_subgraph(query, data)
        assert not set_ullmann_is_subgraph(query, data)


class TestCompactHost:
    """A query compiled over the subgraph its domains induce searches
    the tree the set engine searches over the *whole* graph with the
    same domains: same answer and same node count for every pinned
    root — the relabel is monotone, and domains never leave the host."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=labeled_graphs(max_vertices=12),
        query=labeled_graphs(max_vertices=4),
        choice=st.data(),
    )
    def test_every_pinned_root_matches_the_whole_graph_set_engine(
        self, data, query, choice
    ):
        vertex_ids = st.sampled_from(range(data.order))
        domains = [choice.draw(st.sets(vertex_ids)) for _ in query.vertices()]
        root = choice.draw(st.sampled_from(range(query.order)))
        compiled = compile_query(query, data, domains)
        feasible = _initial_candidates(query, data)
        if query.order > data.order or query.size > data.size or feasible is None:
            assert compiled is None
            return
        narrowed = [c & d for c, d in zip(feasible, domains)]
        if not all(narrowed):
            assert compiled is None
            return
        assert ullmann_is_subgraph(query, data, domains=domains) == (
            SetDomainState(query, data, None).search(0, narrowed, set())
        )
        for vertex in data.vertices():
            pinned = [set(domain) for domain in narrowed]
            pinned[root] &= {vertex}
            got = compiled.embeds(Budget(60.0), pin=(root, vertex))
            if not pinned[root]:
                assert not got and compiled.nodes == 0
                continue
            state = SetDomainState(query, data, Budget(60.0))
            assert got == state.search(0, pinned, set())
            assert compiled.nodes == state.nodes

    def test_host_is_the_union_of_the_domains(self):
        # A 5-path A-B-A-B-A; only vertices {1, 2, 3} are allowed.
        data = path_graph("ABABA")
        query = path_graph("BA")
        compiled = compile_query(query, data, [{1, 3}, {2}])
        assert compiled.index_of == {1: 0, 2: 1, 3: 2}
        assert compiled.adjacency == [0b010, 0b101, 0b010]
        assert compiled.embeds(pin=(0, 3))
        assert not compiled.embeds(pin=(0, 0))  # outside the host
        assert not compiled.embeds(pin=(1, 0))

    def test_domain_count_must_match_the_query(self):
        with pytest.raises(ValueError, match="2-vertex query"):
            compile_query(path_graph("AB"), path_graph("AB"), [{0}])
