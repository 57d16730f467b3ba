"""gCode's frozen signature table against the per-signature reference.

``GCodeIndex`` builds every vertex's signature for a whole graph at once
(bucket ids through one ``bincount``, same-size path trees through one
``eigvalsh``) and filters over a table frozen from its graph codes: one
broadcast dominance compare per query label, Kuhn's matching only on
graphs where every query vertex has a dominating vertex.  The records
must equal :func:`oracles.reference_vertex_signature` field for field
(eigenvalues bit for bit) and the candidates must equal
:func:`oracles.reference_gcode_candidates`, which tests one signature
pair at a time — for any parameters, label types, dataset and query
shapes, and after an update or a store round trip.
"""

import math
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import as_core_dataset
from repro.graphs.dataset import DatasetDelta, GraphDataset
from repro.graphs.graph import Graph
from repro.indexes import GCodeIndex
from repro.indexes.store import artifact_from_index, materialize_artifact
from repro.utils.sizeof import deep_sizeof

from oracles import reference_gcode_candidates, reference_vertex_signature

#: Label alphabets: ints, strings, and labels equal across types.
ALPHABETS = {
    "int": (0, 1, 2, 3),
    "str": ("A", "B", "C"),
    "equal-across-types": (1, 1.0, True, "x"),
}

#: A label no dataset draws.
ABSENT = "absent"


def _graph(draw, alphabet, n: int) -> Graph:
    labels = draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return Graph(labels, edges)


@st.composite
def cases(draw):
    """An index configuration, a dataset and queries over its labels:
    induced pieces of data graphs (candidates exist), random graphs
    (single-vertex, disconnected, larger than every graph) and one
    query carrying a label the dataset never draws."""
    alphabet = ALPHABETS[draw(st.sampled_from(sorted(ALPHABETS)))]
    params = {
        "path_depth": draw(st.integers(1, 3)),
        "top_eigenvalues": draw(st.integers(1, 3)),
        "counter_buckets": draw(st.sampled_from((1, 8, 32))),
    }
    graphs = [
        _graph(draw, alphabet, draw(st.integers(1, 9)))
        for _ in range(draw(st.integers(0, 6)))
    ]
    queries = []
    for graph in graphs[:3]:
        keep = draw(
            st.lists(st.sampled_from(range(graph.order)), min_size=1, unique=True)
        )
        queries.append(graph.induced_subgraph(keep)[0])
    queries += [
        _graph(draw, alphabet, draw(st.integers(1, 10)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    queries.append(_graph(draw, alphabet + (ABSENT,), draw(st.integers(1, 4))))
    return params, graphs, queries


def _bits(signature) -> tuple:
    """A signature record with its eigenvalues as raw float64 bits."""
    return (
        signature.label,
        signature.neighbor_counts,
        signature.tree_counts,
        np.asarray(signature.eigenvalues, dtype=np.float64).tobytes(),
    )


def _assert_matches_reference(index: GCodeIndex, queries) -> None:
    for query in queries:
        assert index.filter(query) == reference_gcode_candidates(index, query)


def _assert_records_match_reference(index: GCodeIndex, graph) -> None:
    code = index.graph_code(graph)
    expected = [reference_vertex_signature(index, graph, v) for v in graph.vertices()]
    assert code.signatures == tuple(expected)
    assert [_bits(s) for s in code.signatures] == [_bits(s) for s in expected]
    # index_bytes counts objects once: the records share what the
    # reference's records share.
    assert deep_sizeof(code.signatures) == deep_sizeof(tuple(expected))


class TestSignatureRecords:
    @settings(max_examples=120, deadline=None)
    @given(case=cases())
    def test_records_equal_reference_bit_for_bit(self, case):
        params, graphs, queries = case
        index = GCodeIndex(**params)
        for graph in graphs + queries:
            _assert_records_match_reference(index, graph)
            v = graph.order - 1
            assert _bits(index.vertex_signature(graph, v)) == _bits(
                reference_vertex_signature(index, graph, v)
            )

    def test_batched_eigenvalues_over_many_tree_sizes(self):
        # A caterpillar: path trees of many different sizes in one graph.
        rng = np.random.default_rng(5)
        edges = [(v, v + 1) for v in range(11)]
        edges += [(v % 12, 12 + v) for v in range(20)]
        labels = [int(x) for x in rng.integers(0, 3, size=32)]
        graph = Graph(labels, edges)
        for depth in (1, 2, 3):
            _assert_records_match_reference(
                GCodeIndex(path_depth=depth, top_eigenvalues=3), graph
            )


class TestFilterEqualsReference:
    @settings(max_examples=120, deadline=None)
    @given(case=cases(), admitted=st.booleans())
    def test_candidates_equal_reference(self, case, admitted):
        params, graphs, queries = case
        dataset = GraphDataset(graphs)
        index = GCodeIndex(**params)
        # A builder dataset gives every graph its own label table, so
        # labels equal across types reach the table from different graphs.
        index.build(as_core_dataset(dataset) if admitted else dataset)
        _assert_matches_reference(index, queries)

    @settings(max_examples=40, deadline=None)
    @given(case=cases(), data=st.data())
    def test_after_update_and_store_round_trip(self, case, data):
        params, graphs, queries = case
        dataset = GraphDataset(graphs)
        index = GCodeIndex(**params)
        index.build(dataset)
        removed = (
            data.draw(st.lists(st.sampled_from(range(len(graphs))), unique=True))
            if graphs
            else []
        )
        delta = DatasetDelta(added=tuple(queries[:2]), removed=tuple(removed))
        report = index.update(delta)
        assert report.details["maintenance"] == "rebuild"
        _assert_matches_reference(index, queries)
        artifact = pickle.loads(pickle.dumps(artifact_from_index(index, 0)))
        restored = materialize_artifact(artifact, index.dataset)
        assert restored._codes == index._codes
        _assert_matches_reference(restored, queries)
        assert [restored.filter(q) for q in queries] == [index.filter(q) for q in queries]

    def test_empty_dataset(self):
        index = GCodeIndex()
        index.build(GraphDataset([]))
        for query in (Graph(["A"]), Graph([]), Graph(["A", "B"], [(0, 1)])):
            assert index.filter(query) == set()
            assert reference_gcode_candidates(index, query) == set()

    def test_empty_query_matches_every_graph(self):
        dataset = GraphDataset([Graph(["A"]), Graph(["B", "C"], [(0, 1)])])
        index = GCodeIndex()
        index.build(dataset)
        query = Graph([])
        assert index.filter(query) == reference_gcode_candidates(index, query) == {0, 1}

    def test_saturated_hub(self):
        # 300 same-label leaves: the hub's neighbor and tree counters
        # saturate at 255 in the leaves' bucket.
        for buckets in (1, 8):
            index = GCodeIndex(path_depth=1, top_eigenvalues=2, counter_buckets=buckets)
            hub = Graph(["H"] + ["L"] * 300, [(0, v) for v in range(1, 301)])
            small = Graph(["H"] + ["L"] * 20, [(0, v) for v in range(1, 21)])
            index.build(GraphDataset([hub, small]))
            assert index._codes[-1].signatures[0].neighbor_counts.count(255) == 1
            _assert_records_match_reference(index, hub)
            queries = [
                Graph(["H"] + ["L"] * k, [(0, v) for v in range(1, k + 1)])
                for k in (3, 20, 21, 260, 300)
            ]
            _assert_matches_reference(index, queries)
            assert index.filter(queries[2]) == {0}

    def test_matching_rejects_a_covered_graph(self):
        # Both query vertices are dominated by the data graph's one "A"
        # vertex, but they need two distinct ones.
        index = GCodeIndex()
        index.build(GraphDataset([Graph(["A", "B", "B"], [(0, 1), (1, 2)])]))
        query = Graph(["A", "A"])
        assert index.filter(query) == reference_gcode_candidates(index, query) == set()

    def test_labels_equal_across_types_share_a_block(self):
        dataset = GraphDataset(
            [Graph([1, "x"], [(0, 1)]), Graph([True, "x"], [(0, 1)]), Graph([1.0])]
        )
        index = GCodeIndex(counter_buckets=1)
        index.build(dataset)
        assert len(index._table.labels) == 2
        for label in (1, True, 1.0):
            query = Graph([label])
            assert index.filter(query) == {0, 1, 2}
            assert reference_gcode_candidates(index, query) == {0, 1, 2}

    def test_label_unequal_to_itself_dominates_nothing(self):
        # The table finds NaN's block by identity; the signature test
        # compares labels with ``!=``, under which NaN fits nowhere.
        dataset = GraphDataset([Graph([math.nan]), Graph(["A"])])
        index = GCodeIndex()
        index.build(dataset)
        query = Graph([math.nan])
        assert index.filter(query) == reference_gcode_candidates(index, query) == set()
