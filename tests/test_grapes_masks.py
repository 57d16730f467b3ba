"""Grapes' bit-row location stage against its component-set original.

The filter keeps, per candidate graph, one mask — the union of the
marked components that dominate the query's labels — and verification
is one VF2 search confined to that mask.  ``tests/oracles.py`` keeps
the path it replaced: components as vertex sets, and VF2 on each
component's induced subgraph.  Because a connected query's embedding
cannot straddle two components (no edge joins them), both must agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import CSRGraph
from repro.graphs.dataset import GraphDataset
from repro.graphs.graph import Graph
from repro.indexes.grapes import GrapesIndex, _marked_components
from repro.isomorphism.vf2 import SubgraphMatcher, match_plan

from oracles import projection_components, projection_contains, projection_filter
from testkit import labeled_graphs


def _bits(row: int) -> set[int]:
    return {v for v in range(row.bit_length()) if row >> v & 1}


@st.composite
def connected_graphs(draw, max_vertices=5, labels="ABC"):
    """A connected labeled graph: a random spanning tree plus chords."""
    n = draw(st.integers(1, max_vertices))
    graph = Graph([draw(st.sampled_from(labels)) for _ in range(n)])
    for v in range(1, n):
        graph.add_edge(v, draw(st.integers(0, v - 1)))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chords = draw(st.lists(st.sampled_from(possible), max_size=3)) if possible else []
    for u, v in chords:
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


@st.composite
def marked_hosts(draw):
    """A CSR host graph and a marked vertex subset of it."""
    data = CSRGraph.from_graph(draw(labeled_graphs(max_vertices=40, max_edges=80)))
    marked = draw(st.sets(st.integers(0, data.order - 1)))
    return data, marked


@settings(max_examples=120, deadline=None)
@given(host=marked_hosts())
def test_bitwise_components_equal_projection_components(host):
    data, marked = host
    packed = sum(1 << v for v in marked)
    bitwise = [_bits(row) for row in _marked_components(data.adjacency_rows(), packed)]
    assert sorted(map(sorted, bitwise)) == sorted(
        map(sorted, projection_components(data, marked))
    )
    # Lowest vertex first: each component starts below the next one.
    assert [min(c) for c in bitwise] == sorted(min(c) for c in bitwise)


@settings(max_examples=120, deadline=None)
@given(host=marked_hosts(), query=connected_graphs())
def test_masked_search_equals_any_component(host, query):
    data, marked = host
    components = projection_components(data, marked)
    expected = any(
        SubgraphMatcher(query, data.induced_subgraph(c)[0]).exists()
        for c in components
    )
    mask = sum(1 << v for v in marked)
    masked = SubgraphMatcher.with_plan(match_plan(query, data), query, data, mask=mask)
    assert masked.exists() == expected
    # Every embedding the masked search yields stays inside the mask.
    for embedding in masked.iter_embeddings():
        assert set(embedding.values()) <= marked


@st.composite
def scattered_graphs(draw):
    """A disjoint union of small connected pieces over two labels: path
    counts often match a query whose image no single piece holds, so
    the location stage has something to prune."""
    pieces = draw(
        st.lists(connected_graphs(max_vertices=4, labels="AB"), min_size=1, max_size=4)
    )
    graph = Graph([piece.label(v) for piece in pieces for v in piece.vertices()])
    base = 0
    for piece in pieces:
        for u, v in piece.edges():
            graph.add_edge(base + u, base + v)
        base += piece.order
    return graph


@settings(max_examples=60, deadline=None)
@given(
    graphs=st.lists(scattered_graphs(), min_size=1, max_size=6),
    queries=st.lists(
        connected_graphs(max_vertices=4, labels="AB")
        | labeled_graphs(max_vertices=4, labels="AB"),
        min_size=1,
        max_size=4,
    ),
)
def test_filter_survivors_and_answers_unchanged(graphs, queries):
    dataset = GraphDataset(graphs)
    index = GrapesIndex(max_path_edges=1, workers=1)
    index.build(dataset)
    for query in queries:
        survivors = projection_filter(index, query)
        candidates = index.filter(query)
        assert candidates == set(survivors)
        answers = index.verify(query, candidates)
        assert answers == {
            graph_id
            for graph_id, components in survivors.items()
            if projection_contains(query, dataset[graph_id], components)
        }
