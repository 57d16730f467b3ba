"""CT-Index's per-class feature keys against per-occurrence canonical forms.

``CTIndex`` canonicalises one occurrence per labelled isomorphism class
(:mod:`repro.canonical.shapes`) and reuses a memoized position mask for
every other occurrence of the class.  The fingerprints must stay those
of :func:`oracles.reference_fingerprint`, which canonicalises and hashes
every occurrence on its own: for any label type, any feature size, both
graph representations, and however small the memo is allowed to grow.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.canonical.shapes import cycle_symmetries, tree_shape_plan
from repro.canonical.trees import tree_canonical
from repro.graphs.csr import CSRGraph
from repro.graphs.dataset import DatasetDelta, GraphDataset
from repro.graphs.graph import Graph
from repro.indexes import CTIndex
from repro.indexes import ctindex as ctindex_module

from oracles import reference_features, reference_fingerprint
from testkit import random_graph

#: Label alphabets: ints, strings, and a mix whose members Python
#: cannot order against each other.
ALPHABETS = {
    "int": (0, 1, 2),
    "str": ("A", "B", "C"),
    "mixed": (0, 1, "A", "B"),
}


@st.composite
def labelled_graphs(draw, max_vertices=8):
    alphabet = ALPHABETS[draw(st.sampled_from(sorted(ALPHABETS)))]
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    labels = draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return Graph(labels, edges)


@st.composite
def tree_pairs(draw, max_vertices=6):
    """Two random labelled trees; half the time the second is the first
    with its vertices renumbered and its edges listed in another order."""
    alphabet = ALPHABETS[draw(st.sampled_from(sorted(ALPHABETS)))]

    def tree(n):
        labels = draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
        edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
        return Graph(labels, edges)

    n = draw(st.integers(min_value=2, max_value=max_vertices))
    first = tree(n)
    if draw(st.booleans()):
        permutation = draw(st.permutations(range(n)))
        return first, first.relabeled(list(permutation))
    return first, tree(n)


def whole_tree_key(index: CTIndex, tree: Graph) -> tuple:
    """The feature key CT-Index gives the whole of *tree*."""
    features = index._features(tree, None)
    (key,) = [k for k, occurrence in features.items()
              if k[0] == "T" and len(occurrence) == tree.size]
    return key


class TestShapePlans:
    @settings(max_examples=80, deadline=None)
    @given(pair=tree_pairs(max_vertices=7))
    def test_every_isomorphism_onto_the_class_representative(self, pair):
        first, second = pair
        code, isomorphisms = tree_shape_plan(first.edges())
        other_code, _ = tree_shape_plan(second.edges())
        unlabelled = nx.Graph(list(first.edges()))
        assert (code == other_code) == nx.is_isomorphic(
            unlabelled, nx.Graph(list(second.edges()))
        )
        automorphisms = sum(
            1 for _ in nx.algorithms.isomorphism.GraphMatcher(
                unlabelled, unlabelled
            ).isomorphisms_iter()
        )
        assert len(set(isomorphisms)) == len(isomorphisms) == automorphisms

    def test_cycle_symmetries_are_the_dihedral_group(self):
        for length in range(3, 8):
            symmetries = cycle_symmetries(length)
            assert len(set(symmetries)) == 2 * length
            assert all(sorted(p) == list(range(length)) for p in symmetries)
        with pytest.raises(ValueError):
            cycle_symmetries(2)


class TestKeys:
    @settings(max_examples=150, deadline=None)
    @given(pair=tree_pairs())
    def test_key_equality_is_canonical_form_equality(self, pair):
        first, second = pair
        index = CTIndex(fingerprint_bits=64, feature_edges=first.size)
        same_key = whole_tree_key(index, first) == whole_tree_key(index, second)
        same_form = tree_canonical(first, first.edges()) == tree_canonical(
            second, second.edges()
        )
        assert same_key == same_form


class TestFingerprintParity:
    @settings(max_examples=120, deadline=None)
    @given(graph=labelled_graphs(), edges=st.integers(1, 4), csr=st.booleans())
    def test_equals_per_occurrence_reference(self, graph, edges, csr):
        host = CSRGraph.from_graph(graph) if csr else graph
        index = CTIndex(fingerprint_bits=256, feature_edges=edges)
        expected = reference_fingerprint(graph, 256, edges)
        assert index.fingerprint(host).value == expected
        # A second pass answers from the memo and must agree.
        assert index.fingerprint(host).value == expected
        # One key per canonical form: a fresh build counts exactly the
        # distinct forms of its occurrences.
        details = CTIndex(fingerprint_bits=256, feature_edges=edges).build(
            GraphDataset([graph])
        ).details
        assert details["distinct_features"] == len(set(reference_features(graph, edges)))

    def test_labels_equal_across_types_stay_apart(self):
        # 1, 1.0 and True compare equal but hash to different positions
        # (their reprs differ): a memo hit must not hand one the other's mask.
        index = CTIndex(fingerprint_bits=4096, feature_edges=3, bits_per_feature=2)
        for label in (1, True, 1.0):
            graph = Graph([label, label, label, "A"], [(0, 1), (1, 2), (2, 0), (2, 3)])
            assert index.fingerprint(graph).value == reference_fingerprint(graph, 4096, 3, 2)

    def test_bits_per_feature(self):
        graph = random_graph(random.Random(3), 8, 10)
        index = CTIndex(fingerprint_bits=128, feature_edges=3, bits_per_feature=3)
        assert index.fingerprint(graph).value == reference_fingerprint(graph, 128, 3, 3)

    def test_memo_bound_leaves_fingerprints_unchanged(self, monkeypatch):
        rng = random.Random(11)
        graphs = [random_graph(rng, 6, 10, labels=("A", 1, "B", 2)) for _ in range(12)]
        monkeypatch.setattr(ctindex_module, "_MEMO_LIMIT", 2)
        index = CTIndex(fingerprint_bits=256, feature_edges=4)
        index.build(GraphDataset(graphs))
        assert len(index._masks) <= 2
        assert len(index._tree_plans) <= 2
        assert [fp.value for fp in index._fingerprints] == [
            reference_fingerprint(graph, 256, 4) for graph in graphs
        ]
        for graph in graphs[:4]:
            assert index.fingerprint(graph).value == reference_fingerprint(graph, 256, 4)


class TestBuildDetails:
    def test_distinct_features_ignore_query_history(self):
        rng = random.Random(5)
        graphs = [random_graph(rng, 6, 10, labels="ABCDE") for _ in range(10)]
        queries = [random_graph(rng, 3, 6, labels="ABCDEF") for _ in range(30)]
        index = CTIndex(fingerprint_bits=256, feature_edges=3)
        index.build(GraphDataset(graphs[:8]))
        for query in queries:
            index.filter(query)
        report = index.update(
            DatasetDelta(added=tuple(graphs[8:]), removed=(0,))
        )
        assert report.details.pop("maintenance") == "rebuild"
        cold = CTIndex(fingerprint_bits=256, feature_edges=3)
        assert report.details == cold.build(index.dataset).details
        assert [fp.value for fp in index._fingerprints] == [
            fp.value for fp in cold._fingerprints
        ]
