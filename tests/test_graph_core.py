"""The one graph core: CSR in production, one protocol for both classes.

Four properties are pinned here:

1. **Protocol conformance** — :class:`Graph` and :class:`CSRGraph` both
   implement every accessor of
   :class:`repro.graphs.protocol.LabeledGraph`, and every accessor
   agrees with brute force over the labels and edge list the graph was
   built from.
2. **Transport parity** — ``CSRDataset.from_packed`` over the arena
   wire format reconstructs the same graphs as ``from_dataset`` over
   the builder graphs.
3. **Byte identity** — for every roster method, a builder
   ``GraphDataset`` fed to the index directly canonicalizes to exactly
   the same cell JSON as the ``as_core_dataset`` conversion the
   production paths run on: same statuses, candidate and answer counts,
   false-positive ratios, index sizes, and build details.
4. **Matcher parity** — a hypothesis property: VF2 enumerates the same
   embedding set and Ullmann the same boolean on CSR and builder hosts
   over random labeled graphs, including disconnected queries and
   label-disjoint early exits.
"""

import json
import pickle
from dataclasses import asdict

import pytest
from hypothesis import given, settings

from repro.core.arena import DatasetArena, attach_csr_dataset
from repro.core.metrics import summarize_results
from repro.core.runner import (
    STATUS_OK,
    MethodCell,
    SizeStats,
    evaluate_method,
    make_method,
)
from repro.core.serialization import canonical_cell
from repro.generators.graphgen import GraphGenConfig, generate_dataset
from repro.generators.queries import generate_queries
from repro.graphs.csr import CSRDataset, CSRGraph, as_core_dataset, as_core_query
from repro.graphs.dataset import pack_dataset, unpack_dataset
from repro.graphs.graph import Graph
from repro.graphs.protocol import LabeledGraph
from repro.indexes import ALL_INDEX_CLASSES
from repro.isomorphism import SubgraphMatcher, ullmann_is_subgraph

from testkit import labeled_graphs

#: All benchmarked methods, with settings small enough that each
#: build stays well under a second on the module dataset.
METHOD_CONFIGS = {
    "naive": {},
    "ggsx": {"max_path_edges": 3},
    "grapes": {"max_path_edges": 3, "workers": 2},
    "ctindex": {"fingerprint_bits": 256, "feature_edges": 3},
    "gcode": {"path_depth": 2, "top_eigenvalues": 2, "counter_buckets": 16},
    "gindex": {"max_fragment_edges": 3, "support_ratio": 0.25},
    "tree+delta": {"max_feature_edges": 3, "support_ratio": 0.25},
    "cni": {"mask_bits": 64, "radius": 1},
}

assert set(METHOD_CONFIGS) == set(ALL_INDEX_CLASSES)

BUDGETS = {"build_budget_seconds": 60.0, "query_budget_seconds": 60.0}


@pytest.fixture(scope="module")
def dataset():
    config = GraphGenConfig(
        num_graphs=8, mean_nodes=14, mean_density=0.08, num_labels=5
    )
    return generate_dataset(config, seed=23)


@pytest.fixture(scope="module")
def queries(dataset):
    return generate_queries(dataset, 3, 4, seed=7)


@pytest.fixture(scope="module")
def csr(dataset):
    return CSRDataset.from_dataset(dataset)


# ----------------------------------------------------------------------
# protocol conformance
# ----------------------------------------------------------------------

#: The read-only accessor set, as declared (once) by the protocol.
PROTOCOL = sorted(name for name in vars(LabeledGraph) if not name.startswith("_"))


@pytest.fixture(scope="module")
def implementations(dataset):
    """``(graph under test, labels, edge set)`` per module graph, once
    per implementation — the single {Graph, CSRGraph} table every
    conformance test below iterates.  Each graph is rebuilt from its
    plain ``(labels, edges)`` spec, which is the brute-force truth."""
    out = []
    for source in dataset:
        labels, edges = source.labels, set(source.edges())
        for convert in (lambda g: g, as_core_query):
            out.append((convert(Graph(labels, sorted(edges))), labels, edges))
    assert {type(graph) for graph, _, _ in out} == {Graph, CSRGraph}
    return out


def _adjacent(edges, n):
    rows = [set() for _ in range(n)]
    for u, v in edges:
        rows[u].add(v)
        rows[v].add(u)
    return rows


class TestAccessorParity:
    def test_protocol_names_the_whole_accessor_set(self):
        assert PROTOCOL == sorted(
            "order size label labels neighbors neighbor_set degree has_edge "
            "vertices edges vertices_by_label candidate_vertices "
            "neighbor_label_counts label_histogram distinct_labels "
            "connected_components is_connected induced_subgraph".split()
        )

    def test_every_accessor_exists(self, implementations):
        for graph, _, _ in implementations:
            missing = [name for name in PROTOCOL if not hasattr(graph, name)]
            assert not missing

    def test_read_api_matches_dict_graph(self, implementations):
        """Every structural accessor against brute force."""
        for graph, labels, edges in implementations:
            n = len(labels)
            rows = _adjacent(edges, n)
            assert graph.order == n and graph.size == len(edges)
            assert graph.labels == tuple(labels)
            assert graph.vertices() == range(n)
            for v in range(n):
                assert graph.label(v) == labels[v]
                assert graph.degree(v) == len(rows[v])
                assert sorted(graph.neighbors(v)) == sorted(rows[v])
                assert isinstance(graph.neighbors(v), tuple)
                assert graph.neighbor_set(v) == rows[v]
                for w in range(n):
                    assert graph.has_edge(v, w) == (w in rows[v])
            assert sorted(graph.edges()) == sorted(edges)
            groups: dict = {}
            for v, label in enumerate(labels):
                groups.setdefault(label, []).append(v)
            assert graph.vertices_by_label() == groups
            assert graph.label_histogram() == {
                label: len(members) for label, members in groups.items()
            }
            assert graph.distinct_labels() == set(labels)

    def test_connectivity_matches_brute_force(self, implementations):
        for graph, labels, edges in implementations:
            n = len(labels)
            component_of = list(range(n))
            for _ in range(n):  # label propagation to a fixpoint
                for u, v in edges:
                    low = min(component_of[u], component_of[v])
                    component_of[u] = component_of[v] = low
            expected: dict = {}
            for v in range(n):
                expected.setdefault(component_of[v], []).append(v)
            assert sorted(graph.connected_components()) == sorted(expected.values())
            assert graph.is_connected() == (len(expected) == 1)

    def test_neighbors_are_sorted_tuples(self, csr):
        for c in csr:
            for v in c.vertices():
                row = c.neighbors(v)
                assert isinstance(row, tuple)
                assert list(row) == sorted(row)

    def test_candidate_vertices_matches_brute_force(self, implementations):
        for graph, labels, edges in implementations:
            rows = _adjacent(edges, len(labels))
            for label in sorted(set(labels)):
                for min_degree in (0, 1, 2, 4):
                    expected = tuple(
                        v
                        for v in range(len(labels))
                        if labels[v] == label and len(rows[v]) >= min_degree
                    )
                    assert graph.candidate_vertices(label, min_degree) == expected
            assert graph.candidate_vertices("no-such-label") == ()

    def test_neighbor_label_counts_matches_brute_force(self, implementations):
        for graph, labels, edges in implementations:
            rows = _adjacent(edges, len(labels))
            counts = graph.neighbor_label_counts()
            assert len(counts) == len(labels)
            for v, row in enumerate(rows):
                expected: dict = {}
                for w in row:
                    expected[labels[w]] = expected.get(labels[w], 0) + 1
                assert counts[v] == expected

    def test_induced_subgraph_matches(self, implementations):
        for graph, labels, edges in implementations:
            keep = list(range(len(labels)))[::2]
            sub, mapping = graph.induced_subgraph(keep)
            assert mapping == keep
            # A projection stays in its source's representation; a CSR
            # one shares the source's label table.
            assert type(sub) is type(graph)
            if isinstance(graph, CSRGraph):
                assert sub.label_table is graph.label_table
                for v in sub.vertices():
                    assert list(sub.neighbors(v)) == sorted(sub.neighbors(v))
            assert sub.labels == tuple(labels[v] for v in keep)
            assert sorted(sub.edges()) == sorted(
                (keep.index(u), keep.index(v))
                for u, v in edges
                if u in keep and v in keep
            )

    def test_both_implementations_compare_equal(self, dataset, csr):
        for g, c in zip(dataset, csr):
            assert c.graph_id == g.graph_id
            assert c == g and g == c
            assert c.density() == pytest.approx(g.density())
            assert c.average_degree() == pytest.approx(g.average_degree())

    def test_csr_graph_is_immutable(self, csr):
        first = next(iter(csr))
        with pytest.raises(AttributeError):
            first.add_edge  # noqa: B018 — no mutation API exists


# ----------------------------------------------------------------------
# transport parity: packed bytes and the arena
# ----------------------------------------------------------------------


class TestTransportParity:
    def test_from_packed_equals_from_dataset(self, dataset, csr):
        attached = CSRDataset.from_packed(pack_dataset(dataset))
        assert attached.name == csr.name
        assert len(attached) == len(csr)
        for a, b in zip(attached, csr):
            assert a.graph_id == b.graph_id
            assert a == b

    def test_attach_csr_matches_dict_attach(self, dataset):
        arena = DatasetArena.create(dataset)
        try:
            csr_view = attach_csr_dataset(arena.handle)
            dict_view = unpack_dataset(arena._shm.buf)
            for a, g in zip(csr_view, dict_view):
                assert a == g
        finally:
            arena.close()


# ----------------------------------------------------------------------
# byte identity: builder dataset fed directly vs its CSR conversion
# ----------------------------------------------------------------------


def _cell_json(cell) -> str:
    """A cell's canonical form as sorted-key JSON bytes-for-bytes."""
    return json.dumps(asdict(canonical_cell(cell)), sort_keys=True)


def _direct_cell(name, config, dataset, workloads) -> MethodCell:
    """The cell ``evaluate_method`` would report, with no conversion:
    the index is built over — and verifies against — *dataset* as given,
    and answers the builder queries as given."""
    index = make_method(name, config)
    report = index.build(dataset)
    cell = MethodCell(
        method=name,
        build_status=STATUS_OK,
        build_seconds=report.seconds,
        index_bytes=report.size_bytes,
        build_details=dict(report.details),
    )
    for size, queries in workloads.items():
        results = [index.query(query) for query in queries]
        cell.per_size[size] = SizeStats(
            status=STATUS_OK, stats=summarize_results(results)
        )
    return cell


class TestByteIdentityAcrossCores:
    @pytest.mark.parametrize("name", sorted(ALL_INDEX_CLASSES))
    def test_canonical_cell_identical(self, name, dataset, queries):
        workloads = {4: queries}
        config = METHOD_CONFIGS[name]
        converted = as_core_dataset(dataset)
        assert isinstance(converted, CSRDataset)
        assert as_core_dataset(converted) is converted
        production = evaluate_method(
            name, converted, workloads, method_config=config, **BUDGETS
        )
        assert production.build_status == STATUS_OK
        assert _cell_json(production) == _cell_json(
            _direct_cell(name, config, dataset, workloads)
        )


class TestNoCallerMutatesAdjacency:
    def test_pipeline_leaves_adjacency_untouched(self, dataset, queries):
        """Building and querying every method must not change any data
        graph — the packed bytes are an exact adjacency snapshot (the
        ``neighbors()`` live-set leak this PR fixed made this possible
        to violate from any index builder)."""
        before = pack_dataset(dataset)
        for name, config in METHOD_CONFIGS.items():
            index = make_method(name, config)
            index.build(dataset)
            for query in queries:
                index.query(query)
        assert pack_dataset(dataset) == before


# ----------------------------------------------------------------------
# matcher parity (hypothesis property)
# ----------------------------------------------------------------------


def _embedding_set(query, data):
    return sorted(
        tuple(sorted(mapping.items()))
        for mapping in SubgraphMatcher(query, data).iter_embeddings()
    )


class TestMatcherParity:
    @settings(max_examples=60, deadline=None)
    @given(data=labeled_graphs(), query=labeled_graphs(max_vertices=4))
    def test_vf2_and_ullmann_agree_across_cores(self, data, query):
        csr_host = CSRGraph.from_graph(data)
        dict_embeddings = _embedding_set(query, data)
        assert _embedding_set(query, csr_host) == dict_embeddings
        expected = ullmann_is_subgraph(query, data)
        assert ullmann_is_subgraph(query, csr_host) == expected
        assert expected == bool(dict_embeddings)

    def test_disconnected_query(self):
        data = Graph("ABAB", [(0, 1), (2, 3)])
        query = Graph("AB", [])  # two isolated query vertices
        assert _embedding_set(query, CSRGraph.from_graph(data)) == _embedding_set(
            query, data
        )

    def test_label_disjoint_query_early_exits_empty(self):
        data = Graph("AAA", [(0, 1), (1, 2)])
        query = Graph(["Z"])
        csr_host = CSRGraph.from_graph(data)
        assert not SubgraphMatcher(query, csr_host).exists()
        assert not ullmann_is_subgraph(query, csr_host)
        assert csr_host.candidate_vertices("Z") == ()

    def test_pickle_round_trip_preserves_csr_graph(self, csr):
        for graph in csr:
            clone = pickle.loads(pickle.dumps(graph))
            assert clone == graph
