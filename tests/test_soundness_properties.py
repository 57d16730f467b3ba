"""Soundness properties of the per-method filtering primitives.

Each index's filter rests on a mathematical dominance claim; these
property tests attack each claim directly with query/data pairs where
containment holds *by construction*:

* CT-Index: fingerprint(g) ⊇ fingerprint(q) whenever q ⊆ g;
* gCode: sig(φ(u)) dominates sig(u) for every vertex u under any
  monomorphism φ (label counters + eigenvalue interlacing);
* GGSX/Grapes: path-occurrence counts of g dominate q's;
* gIndex/Tree+Δ: every frequent fragment of q is a fragment of g.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.paths import path_features
from repro.indexes.ctindex import CTIndex
from repro.indexes.gcode import GCodeIndex
from repro.isomorphism.vf2 import find_embedding
from repro.graphs.graph import Graph

from oracles import dominates


@st.composite
def containment_pair(draw):
    """A (query, data) pair with a known embedding: the query is a
    random connected partial subgraph of the data graph."""
    n = draw(st.integers(4, 9))
    labels = [draw(st.sampled_from("ABC")) for _ in range(n)]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    data = Graph(labels)
    order = list(range(1, n))
    rng.shuffle(order)
    for position, v in enumerate(order):
        anchor = rng.choice(([0] + order[:position]))
        data.add_edge(v, anchor)
    extra = draw(st.integers(0, n))
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        if not data.has_edge(u, v):
            data.add_edge(u, v)
    # Query: connected sub-walk of the data graph (vertex-induced on a
    # connected seed region, with a random subset of internal edges
    # kept — still a monomorphic subgraph).
    start = rng.randrange(n)
    region = [start]
    seen = {start}
    while len(region) < draw(st.integers(2, min(5, n))):
        frontier = [
            w for v in region for w in data.neighbors(v) if w not in seen
        ]
        if not frontier:
            break
        nxt = rng.choice(frontier)
        seen.add(nxt)
        region.append(nxt)
    index_of = {v: i for i, v in enumerate(region)}
    query = Graph([data.label(v) for v in region])
    internal = [
        (u, v)
        for u in region
        for v in data.neighbors(u)
        if v in index_of and u < v
    ]
    kept_any = False
    for u, v in internal:
        if rng.random() < 0.8:
            query.add_edge(index_of[u], index_of[v])
            kept_any = True
    if not kept_any and internal:
        u, v = internal[0]
        query.add_edge(index_of[u], index_of[v])
    return query, data


@given(containment_pair())
@settings(max_examples=60, deadline=None)
def test_ctindex_fingerprint_containment(pair):
    query, data = pair
    if find_embedding(query, data) is None:
        return  # construction guarantees containment, but double-check
    index = CTIndex(fingerprint_bits=256, feature_edges=3)
    assert index.fingerprint(data).contains(index.fingerprint(query))


@given(containment_pair())
@settings(max_examples=40, deadline=None)
def test_gcode_signature_dominance_along_embedding(pair):
    query, data = pair
    embedding = find_embedding(query, data)
    if embedding is None:
        return
    index = GCodeIndex(path_depth=2, counter_buckets=16)
    for q_vertex, d_vertex in embedding.items():
        q_sig = index.vertex_signature(query, q_vertex)
        d_sig = index.vertex_signature(data, d_vertex)
        assert dominates(d_sig, q_sig), (
            f"signature dominance violated at {q_vertex}->{d_vertex}"
        )


@given(containment_pair())
@settings(max_examples=60, deadline=None)
def test_path_count_dominance(pair):
    query, data = pair
    if find_embedding(query, data) is None:
        return
    query_features = path_features(query, 3)
    data_features = path_features(data, 3)
    for label, occurrences in query_features.items():
        assert label in data_features
        assert data_features[label].count >= occurrences.count


@given(containment_pair())
@settings(max_examples=25, deadline=None)
def test_query_fragments_are_data_fragments(pair):
    from repro.mining.gspan import mine_frequent_patterns

    query, data = pair
    if find_embedding(query, data) is None:
        return
    if query.size == 0:
        return
    query_fragments = set(mine_frequent_patterns([query], 1, 3))
    data_fragments = set(mine_frequent_patterns([data], 1, 3))
    assert query_fragments <= data_fragments


# ---------------------------------------------------------------------------
# Dynamic datasets: candidate-set supersets must survive every delta
# ---------------------------------------------------------------------------


@st.composite
def delta_plan(draw):
    """A containment pair plus a small delta over a 4-graph dataset
    holding the data graph: filtering must still yield a candidate
    superset of the true answers after the delta is applied."""
    query, data = draw(containment_pair())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    from tests.testkit import random_graph

    fillers = [random_graph(rng, 3, 7, "ABC") for _ in range(3)]
    removed = tuple(sorted(draw(st.sets(st.integers(1, 3), max_size=2))))
    num_added = draw(st.integers(0, 2))
    added = tuple(random_graph(rng, 3, 7, "ABC") for _ in range(num_added))
    return query, data, fillers, removed, added


@given(delta_plan())
@settings(max_examples=20, deadline=None)
def test_candidate_supersets_hold_after_delta(plan):
    """After update(delta), filter() ⊇ true answers for every method.

    The data graph (id 0) is never removed, so the known embedding
    pins at least one guaranteed answer post-delta.
    """
    from repro.core.runner import make_method
    from repro.graphs.dataset import DatasetDelta, GraphDataset, apply_delta
    from repro.isomorphism.vf2 import SubgraphMatcher

    query, data, fillers, removed, added = plan
    if find_embedding(query, data) is None:
        return
    base = GraphDataset([data] + fillers, name="delta-soundness")
    delta = DatasetDelta(added=added, removed=removed)
    after = apply_delta(base, delta)
    truth = {
        graph_id
        for graph_id in after.all_ids()
        if SubgraphMatcher(query, after[graph_id]).exists()
    }
    assert 0 in truth  # data graph survived and contains the query
    options = {
        "ggsx": {"max_path_edges": 2},
        "grapes": {"max_path_edges": 2, "workers": 1},
        "ctindex": {"fingerprint_bits": 128, "feature_edges": 2},
        "gindex": {"max_fragment_edges": 2, "support_ratio": 0.5},
        "tree+delta": {"max_feature_edges": 2, "support_ratio": 0.5},
        "gcode": {},
        "naive": {},
    }
    for method, config in options.items():
        index = make_method(method, config)
        index.build(base)
        index.update(delta)
        result = index.query(query)
        assert truth <= result.candidates, (
            f"{method}: filtering dropped true answers after the delta"
        )
        assert result.answers == truth, f"{method}: wrong answers after delta"
