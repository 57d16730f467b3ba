"""Method-specific behaviour tests for the six indexes.

The contract tests (test_index_contract.py) prove correctness; these
tests pin down each method's *distinguishing* mechanics — the design
decisions the paper contrasts in §3.
"""

import pytest

from repro.generators.graphgen import GraphGenConfig, generate_dataset
from repro.generators.queries import generate_queries
from repro.graphs.dataset import GraphDataset
from repro.graphs.graph import Graph
from repro.indexes import (
    CTIndex,
    GCodeIndex,
    GIndex,
    GraphGrepSXIndex,
    GrapesIndex,
    NaiveIndex,
    TreeDeltaIndex,
)
from repro.indexes.pathtrie import PathTrie

from oracles import dominates
from testkit import cycle_graph, path_graph, star_graph, triangle


@pytest.fixture(scope="module")
def dataset():
    config = GraphGenConfig(
        num_graphs=25, mean_nodes=12, mean_density=0.2, num_labels=4, nodes_stddev=2
    )
    return generate_dataset(config, seed=5)


class TestPathTrie:
    def test_insert_and_lookup(self):
        trie = PathTrie()
        trie.insert(("A", "B"), graph_id=0, count=2)
        node = trie.lookup(("A", "B"))
        assert node is not None and node.counts == {0: 2}

    def test_lookup_missing(self):
        assert PathTrie().lookup(("X",)) is None

    def test_counts_accumulate(self):
        trie = PathTrie()
        trie.insert(("A",), 0, 1)
        trie.insert(("A",), 0, 2)
        assert trie.lookup(("A",)).counts == {0: 3}

    def test_prefix_sharing(self):
        trie = PathTrie()
        trie.insert(("A", "B", "C"), 0, 1)
        trie.insert(("A", "B", "D"), 0, 1)
        # Nodes: root, A, AB, ABC, ABD = 5.
        assert trie.node_count() == 5

    def test_locations_stored_when_enabled(self):
        trie = PathTrie(keep_locations=True)
        trie.insert(("A",), 0, 1, starts={3, 4})
        assert trie.lookup(("A",)).starts == {0: {3, 4}}

    def test_merge_disjoint_graphs(self):
        left = PathTrie(keep_locations=True)
        right = PathTrie(keep_locations=True)
        left.insert(("A",), 0, 1, starts={0})
        right.insert(("A",), 1, 2, starts={5})
        right.insert(("B",), 1, 1, starts={6})
        left.merge(right)
        assert left.lookup(("A",)).counts == {0: 1, 1: 2}
        assert left.lookup(("A",)).starts == {0: {0}, 1: {5}}
        assert left.lookup(("B",)).counts == {1: 1}

    def test_feature_count(self):
        trie = PathTrie()
        trie.insert(("A", "B"), 0, 1)
        trie.insert(("A",), 0, 1)
        trie.insert(("A", "B"), 1, 1)
        assert trie.num_features == 2


class TestGGSX:
    def test_count_filtering_excludes_scarce_graphs(self):
        # Query needs the A-A edge twice; g1 has it once, g2 twice.
        g1 = path_graph("AAB")                       # one A-A edge
        g2 = Graph("AAAB", [(0, 1), (1, 2), (2, 3)])  # two A-A edges
        dataset = GraphDataset([g1, g2])
        index = GraphGrepSXIndex(max_path_edges=2)
        index.build(dataset)
        query = path_graph("AAA")  # needs two A-A edges
        assert index.filter(query) == {1}

    def test_unknown_feature_empties_candidates(self, dataset):
        index = GraphGrepSXIndex(max_path_edges=2)
        index.build(dataset)
        query = Graph(["Z1", "Z2"], [(0, 1)])
        assert index.filter(query) == set()

    def test_longer_paths_filter_no_worse(self, dataset):
        queries = generate_queries(dataset, 6, 6, seed=3)
        short_index = GraphGrepSXIndex(max_path_edges=1)
        long_index = GraphGrepSXIndex(max_path_edges=3)
        short_index.build(dataset)
        long_index.build(dataset)
        for query in queries:
            assert long_index.filter(query) <= short_index.filter(query)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GraphGrepSXIndex(max_path_edges=0)


class TestGrapes:
    def test_parallel_build_matches_serial(self, dataset):
        serial = GrapesIndex(max_path_edges=3, workers=1)
        parallel = GrapesIndex(max_path_edges=3, workers=4)
        serial.build(dataset)
        parallel.build(dataset)
        queries = generate_queries(dataset, 6, 4, seed=1)
        for query in queries:
            assert serial.filter(query) == parallel.filter(query)

    def test_location_refinement_at_least_as_strong_as_ggsx(self, dataset):
        """Grapes = GGSX filtering + location refinement, so its
        candidate sets can only be subsets of GGSX's."""
        ggsx = GraphGrepSXIndex(max_path_edges=3)
        grapes = GrapesIndex(max_path_edges=3, workers=2)
        ggsx.build(dataset)
        grapes.build(dataset)
        for size in (4, 8):
            for query in generate_queries(dataset, 5, size, seed=size):
                assert grapes.filter(query) <= ggsx.filter(query)

    def test_component_refinement_prunes(self):
        """A graph with the query's features scattered across far-apart
        regions is pruned by the marked-component check."""
        # Data graph: A-B at one end, disconnected B-C elsewhere.
        scattered = Graph("ABBC", [(0, 1), (2, 3)])
        containing = Graph("ABC", [(0, 1), (1, 2)])
        dataset = GraphDataset([scattered, containing])
        index = GrapesIndex(max_path_edges=1, workers=1)
        index.build(dataset)
        query = path_graph("ABC")
        # Path-count filtering alone keeps both (both have A-B and B-C
        # edges); the component projection rejects the scattered one.
        assert index.filter(query) == {1}

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            GrapesIndex(workers=0)


class TestCTIndex:
    def test_fingerprint_containment_for_subgraphs(self, dataset):
        index = CTIndex(fingerprint_bits=512, feature_edges=3)
        index.build(dataset)
        queries = generate_queries(dataset, 6, 6, seed=2)
        for query in queries:
            query_fp = index.fingerprint(query)
            for graph_id in NaiveIndex_answers(dataset, query):
                assert index.fingerprint(dataset[graph_id]).contains(query_fp)

    def test_narrow_fingerprints_weaker_filtering(self, dataset):
        wide = CTIndex(fingerprint_bits=4096, feature_edges=3)
        narrow = CTIndex(fingerprint_bits=32, feature_edges=3)
        wide.build(dataset)
        narrow.build(dataset)
        queries = generate_queries(dataset, 8, 6, seed=4)
        wide_total = sum(len(wide.filter(q)) for q in queries)
        narrow_total = sum(len(narrow.filter(q)) for q in queries)
        assert wide_total <= narrow_total

    def test_index_size_independent_of_graph_size(self):
        small = GraphDataset([path_graph("AB") for _ in range(10)])
        big_graphs = GraphDataset(
            [cycle_graph("ABCDEFGH") for _ in range(10)]
        )
        small_index = CTIndex(fingerprint_bits=256, feature_edges=2)
        big_index = CTIndex(fingerprint_bits=256, feature_edges=2)
        small_index.build(small)
        big_index.build(big_graphs)
        # Fixed-width fingerprints: same payload size per graph.
        assert small_index.size_bytes() == pytest.approx(
            big_index.size_bytes(), rel=0.25
        )

    def test_cycle_features_distinguish_cycles_from_paths(self):
        # A 4-cycle AAAA vs a 4-path AAAA: tree features alone collide,
        # cycle features separate them.
        data = GraphDataset([path_graph("AAAAA")])
        index = CTIndex(fingerprint_bits=1024, feature_edges=4)
        index.build(data)
        assert index.filter(cycle_graph("AAAA")) == set()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CTIndex(fingerprint_bits=4)
        with pytest.raises(ValueError):
            CTIndex(feature_edges=0)


def NaiveIndex_answers(dataset, query):
    oracle = NaiveIndex()
    oracle.build(dataset)
    return oracle.query(query).answers


class TestGCode:
    def test_signature_dominance_reflexive(self, dataset):
        index = GCodeIndex()
        graph = dataset[0]
        for v in range(min(4, graph.order)):
            signature = index.vertex_signature(graph, v)
            assert dominates(signature, signature)

    def test_signature_dominance_on_sub_structure(self):
        index = GCodeIndex()
        sub = star_graph("C", "HH")
        sup = star_graph("C", "HHH")
        assert dominates(
            index.vertex_signature(sup, 0), index.vertex_signature(sub, 0)
        )
        assert not dominates(
            index.vertex_signature(sub, 0), index.vertex_signature(sup, 0)
        )

    def test_label_mismatch_never_dominates(self):
        index = GCodeIndex()
        a = index.vertex_signature(Graph(["A"]), 0)
        b = index.vertex_signature(Graph(["B"]), 0)
        assert not dominates(a, b) and not dominates(b, a)

    def test_eigenvalues_descending(self, dataset):
        index = GCodeIndex()
        signature = index.vertex_signature(dataset[0], 0)
        values = [v for v in signature.eigenvalues if v != -float("inf")]
        assert values == sorted(values, reverse=True)

    def test_order_prefilter_skips_smaller_graphs(self):
        dataset = GraphDataset([path_graph("AB"), path_graph("ABCD")])
        index = GCodeIndex()
        index.build(dataset)
        query = path_graph("ABC")
        assert 0 not in index.filter(query)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GCodeIndex(path_depth=0)
        with pytest.raises(ValueError):
            GCodeIndex(top_eigenvalues=0)
        with pytest.raises(ValueError):
            GCodeIndex(counter_buckets=0)


class TestGIndex:
    def test_frequent_set_superset_of_indexed(self, dataset):
        index = GIndex(max_fragment_edges=3, support_ratio=0.2)
        index.build(dataset)
        assert set(index._id_lists) <= index._frequent

    def test_support_lists_correct(self, dataset):
        from repro.canonical.dfscode import dfs_code_graph
        from repro.isomorphism.vf2 import is_subgraph

        index = GIndex(max_fragment_edges=3, support_ratio=0.2)
        index.build(dataset)
        for code, ids in list(index._id_lists.items())[:10]:
            pattern = dfs_code_graph(code)
            expected = {
                g.graph_id for g in dataset if is_subgraph(pattern, g)
            }
            assert set(ids) == expected

    def test_higher_gamma_selects_fewer(self, dataset):
        lenient = GIndex(max_fragment_edges=3, support_ratio=0.2, discriminative_ratio=1.0)
        strict = GIndex(max_fragment_edges=3, support_ratio=0.2, discriminative_ratio=4.0)
        lenient.build(dataset)
        strict.build(dataset)
        assert len(strict._id_lists) <= len(lenient._id_lists)

    def test_build_details_reported(self, dataset):
        index = GIndex(max_fragment_edges=3, support_ratio=0.2)
        report = index.build(dataset)
        assert report.details["frequent_fragments"] >= report.details["indexed_fragments"]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GIndex(support_ratio=0.0)
        with pytest.raises(ValueError):
            GIndex(max_fragment_edges=0)


class TestTreeDelta:
    def test_index_contains_only_trees(self, dataset):
        from repro.canonical.dfscode import dfs_code_graph

        index = TreeDeltaIndex(max_feature_edges=4, support_ratio=0.2)
        index.build(dataset)
        for code in index._tree_ids:
            pattern = dfs_code_graph(code)
            assert pattern.size == pattern.order - 1

    def test_delta_cache_grows_on_cyclic_queries(self, dataset):
        index = TreeDeltaIndex(
            max_feature_edges=4,
            support_ratio=0.2,
            delta_min_discriminative=0.0,
            delta_add_threshold=1.0,
        )
        index.build(dataset)
        assert index._delta_ids == {}
        # A cyclic query forces δ evaluation; with add threshold at its
        # most permissive, any discriminative δ is adopted.
        label = dataset[0].label(0)
        triangle_query = Graph([label] * 3, [(0, 1), (1, 2), (0, 2)])
        index.query(triangle_query)
        queries = generate_queries(dataset, 6, 6, seed=9)
        for query in queries:
            index.query(query)
        # At least the bookkeeping ran; adoption depends on the data,
        # so only assert consistency of what was adopted.
        for code, ids in index._delta_ids.items():
            assert isinstance(ids, frozenset)

    def test_delta_filtering_still_sound(self, dataset):
        """With maximally aggressive δ settings, answers stay exact."""
        aggressive = TreeDeltaIndex(
            max_feature_edges=4,
            support_ratio=0.2,
            delta_min_discriminative=0.0,
            delta_add_threshold=1.0,
        )
        aggressive.build(dataset)
        oracle = NaiveIndex()
        oracle.build(dataset)
        for size in (4, 8):
            for query in generate_queries(dataset, 5, size, seed=size):
                assert aggressive.query(query).answers == oracle.query(query).answers

    def test_acyclic_query_uses_no_deltas(self, dataset):
        index = TreeDeltaIndex(max_feature_edges=4, support_ratio=0.2)
        index.build(dataset)
        labels = [dataset[0].label(v) for v in range(3)]
        query = Graph(labels, [(0, 1), (1, 2)])
        index.query(query)
        assert index._delta_ids == {}

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TreeDeltaIndex(support_ratio=1.5)
        with pytest.raises(ValueError):
            TreeDeltaIndex(max_feature_edges=0)


class TestGrapesCacheSafety:
    def test_verify_with_mismatched_query_stays_correct(self, dataset):
        """verify() after filter() for a *different* query must not use
        the stale component projections (that would drop answers)."""
        index = GrapesIndex(max_path_edges=3, workers=1)
        index.build(dataset)
        queries = generate_queries(dataset, 4, 6, seed=31)
        oracle = NaiveIndex()
        oracle.build(dataset)
        q_first, q_second = queries[0], queries[1]
        index.filter(q_first)  # populates the cache for q_first
        # Now verify q_second against the full dataset directly.
        answers = index.verify(q_second, dataset.all_ids())
        assert answers == oracle.query(q_second).answers
