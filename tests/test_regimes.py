"""Regime-polymorphic query contract: wire stability and answer laws.

Two families of guarantees:

1. **Wire stability** — a transactional ``QueryResult`` pickles to the
   exact bytes it produced before the regime fields existed (pinned hex
   per protocol), legacy 4-field payloads load with the default
   ``regime="transactional"``, and 6-field single-graph payloads of the
   releases that kept per-vertex domains load with those domains
   dropped.  Sealed benchmark records from earlier runs must keep
   deserializing unchanged.
2. **Answer laws over both regimes × every index class** — candidates
   are a superset of true answers (no false negatives), and verified
   answers equal the naive oracle's, whether answers are graph ids
   (transactional) or embedding roots (single-graph).  In the
   single-graph regime the naive oracle runs the same verifier as every
   index, so answers are also held to ``oracles.reference_embedding_roots``
   (whole graph, no index, no compact host), and a budget that runs out
   mid-search must raise, never return part of the root set.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.generators.graphgen import GraphGenConfig, generate_dataset
from repro.generators.queries import generate_queries
from repro.generators.rmat import RMATConfig, generate_massive_dataset
from repro.indexes import (
    SINGLE_GRAPH,
    TRANSACTIONAL,
    CNIIndex,
    CTIndex,
    GCodeIndex,
    GIndex,
    GraphGrepSXIndex,
    GrapesIndex,
    NaiveIndex,
    TreeDeltaIndex,
)
from repro.graphs.csr import as_core_dataset
from repro.indexes.base import QueryResult
from repro.isomorphism import ullmann
from repro.isomorphism.decompose import embedding_root
from repro.utils.budget import Budget, BudgetExceeded

from oracles import SetDomainState, reference_embedding_roots
from testkit import CountdownBudget

INDEX_FACTORIES = {
    "naive": lambda: NaiveIndex(),
    "ggsx": lambda: GraphGrepSXIndex(max_path_edges=3),
    "grapes": lambda: GrapesIndex(max_path_edges=3, workers=2),
    "ctindex": lambda: CTIndex(fingerprint_bits=512, feature_edges=3),
    "gcode": lambda: GCodeIndex(),
    "gindex": lambda: GIndex(max_fragment_edges=4, support_ratio=0.2),
    "tree+delta": lambda: TreeDeltaIndex(max_feature_edges=4, support_ratio=0.2),
    "cni": lambda: CNIIndex(mask_bits=64, radius=1),
}

# Fragment mining on a single dense R-MAT graph is exponential in the
# feature-edge cap; trim the miners so the fixture builds in seconds.
_SINGLE_GRAPH_OVERRIDES = {
    "ctindex": lambda: CTIndex(fingerprint_bits=256, feature_edges=2),
    "gindex": lambda: GIndex(max_fragment_edges=3, support_ratio=0.2),
    "tree+delta": lambda: TreeDeltaIndex(max_feature_edges=3, support_ratio=0.2),
}

# pickle.dumps(QueryResult(frozenset({3, 1, 2}), frozenset({1, 2}), 0.5, 0.25))
# captured at PR 9, before the regime/domains fields existed.  These pins
# are the compatibility contract for sealed benchmark records.
_PICKLE_PINS = {
    2: (
        "800263726570726f2e696e64657865732e626173650a5175657279526573756c"
        "740a7100298171015d710228635f5f6275696c74696e5f5f0a66726f7a656e73"
        "65740a71035d7104284b014b024b036585710552710668035d7107284b014b02"
        "65857108527109473fe0000000000000473fd000000000000065622e"
    ),
    3: (
        "800363726570726f2e696e64657865732e626173650a5175657279526573756c"
        "740a7100298171015d710228636275696c74696e730a66726f7a656e7365740a"
        "71035d7104284b014b024b036585710552710668035d7107284b014b02658571"
        "08527109473fe0000000000000473fd000000000000065622e"
    ),
    4: (
        "80049550000000000000008c12726570726f2e696e64657865732e6261736594"
        "8c0b5175657279526573756c749493942981945d9428284b014b024b03919428"
        "4b014b029194473fe0000000000000473fd000000000000065622e"
    ),
    5: (
        "80059550000000000000008c12726570726f2e696e64657865732e6261736594"
        "8c0b5175657279526573756c749493942981945d9428284b014b024b03919428"
        "4b014b029194473fe0000000000000473fd000000000000065622e"
    ),
}

# Protocol-4 pickles of QueryResult(frozenset({0, 4}), frozenset({4}),
# 0.5, 0.25, regime="single-graph") as the releases that carried
# per-vertex ``domains`` wrote them: with domains
# (frozenset({0, 4}), frozenset({1})), and with domains=None — the
# latter is also the exact layout single-graph results pickle to now.
_SINGLE_GRAPH_WITH_DOMAINS = (
    "80049569000000000000008c12726570726f2e696e64657865732e62617365948c0b"
    "5175657279526573756c749493942981945d9428284b004b049194284b049194473f"
    "e0000000000000473fd00000000000008c0c73696e676c652d677261706894284b00"
    "4b049194284b019194869465622e"
)
_SINGLE_GRAPH_NO_DOMAINS = (
    "8004955c000000000000008c12726570726f2e696e64657865732e62617365948c0b"
    "5175657279526573756c749493942981945d9428284b004b049194284b049194473f"
    "e0000000000000473fd00000000000008c0c73696e676c652d6772617068944e6562"
    "2e"
)


class TestWireStability:
    @pytest.mark.parametrize("protocol", sorted(_PICKLE_PINS))
    def test_transactional_bytes_pinned(self, protocol):
        result = QueryResult(frozenset({3, 1, 2}), frozenset({1, 2}), 0.5, 0.25)
        assert pickle.dumps(result, protocol=protocol).hex() == _PICKLE_PINS[protocol]

    @pytest.mark.parametrize("protocol", sorted(_PICKLE_PINS))
    def test_legacy_payload_loads_with_defaults(self, protocol):
        loaded = pickle.loads(bytes.fromhex(_PICKLE_PINS[protocol]))
        assert loaded.candidates == frozenset({1, 2, 3})
        assert loaded.answers == frozenset({1, 2})
        assert loaded.regime == TRANSACTIONAL
        assert not hasattr(loaded, "domains")

    def test_single_graph_result_round_trips(self):
        result = QueryResult(
            frozenset({0, 4}), frozenset({4}), 0.5, 0.25, regime=SINGLE_GRAPH
        )
        assert pickle.dumps(result, protocol=4).hex() == _SINGLE_GRAPH_NO_DOMAINS
        loaded = pickle.loads(pickle.dumps(result))
        assert loaded == result
        assert loaded.embedding_roots == frozenset({4})

    def test_payload_with_domains_loads_without_them(self):
        loaded = pickle.loads(bytes.fromhex(_SINGLE_GRAPH_WITH_DOMAINS))
        assert loaded == QueryResult(
            frozenset({0, 4}), frozenset({4}), 0.5, 0.25, regime=SINGLE_GRAPH
        )
        assert not hasattr(loaded, "domains")

    def test_malformed_state_is_rejected(self):
        result = QueryResult.__new__(QueryResult)
        with pytest.raises(ValueError, match="4 or 6"):
            result.__setstate__([frozenset(), frozenset(), 0.0, 0.0, SINGLE_GRAPH])

    def test_embedding_roots_guards_regime(self):
        result = QueryResult(frozenset({1}), frozenset({1}), 0.0, 0.0)
        with pytest.raises(ValueError, match="single-graph"):
            result.embedding_roots


@pytest.fixture(scope="module")
def transactional_dataset():
    config = GraphGenConfig(
        num_graphs=25, mean_nodes=11, mean_density=0.22, num_labels=4, nodes_stddev=3
    )
    return generate_dataset(config, seed=19)


@pytest.fixture(scope="module")
def massive_dataset():
    config = RMATConfig(scale=7, edge_factor=4, num_labels=6)
    return generate_massive_dataset(config, seed=19)


@pytest.fixture(scope="module")
def built(transactional_dataset, massive_dataset):
    out = {}
    for name, factory in INDEX_FACTORIES.items():
        for regime, dataset in (
            (TRANSACTIONAL, transactional_dataset),
            (SINGLE_GRAPH, massive_dataset),
        ):
            if regime == SINGLE_GRAPH:
                factory = _SINGLE_GRAPH_OVERRIDES.get(name, factory)
            index = factory()
            index.build(dataset)
            out[name, regime] = index
    return out


@pytest.fixture(scope="module")
def oracle_answers(built, transactional_dataset, massive_dataset):
    answers = {}
    for regime, dataset in (
        (TRANSACTIONAL, transactional_dataset),
        (SINGLE_GRAPH, massive_dataset),
    ):
        oracle = built["naive", regime]
        for size in (3, 4, 5):
            for seed in range(3):
                for i, query in enumerate(generate_queries(dataset, 2, size, seed=seed)):
                    key = (regime, size, seed, i)
                    answers[key] = (query, oracle.query(query, regime=regime).answers)
    return answers


@pytest.mark.parametrize("name", sorted(INDEX_FACTORIES))
@pytest.mark.parametrize("regime", [TRANSACTIONAL, SINGLE_GRAPH])
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    size=st.sampled_from([3, 4, 5]),
    seed=st.integers(min_value=0, max_value=2),
    pick=st.integers(min_value=0, max_value=1),
)
def test_candidate_superset_and_answer_equivalence(
    name, regime, built, oracle_answers, size, seed, pick
):
    query, truth = oracle_answers[regime, size, seed, pick]
    result = built[name, regime].query(query, regime=regime)
    assert result.regime == regime
    assert truth <= result.candidates, (
        f"{name}/{regime}: false negatives {truth - result.candidates}"
    )
    assert result.answers == truth
    assert result.answers <= result.candidates


@pytest.mark.parametrize("name", sorted(INDEX_FACTORIES))
def test_single_graph_domains_cover_answers(name, built, massive_dataset):
    index = built[name, SINGLE_GRAPH]
    for query in generate_queries(massive_dataset, 3, 4, seed=5):
        result = index.query(query, regime=SINGLE_GRAPH)
        domains = index.filter_vertices(query)
        assert len(domains) == query.order
        root = embedding_root(query, massive_dataset[0])
        assert result.candidates == domains[root]
        assert result.embedding_roots <= domains[root]


def test_cni_domains_subset_of_naive(built, massive_dataset):
    cni = built["cni", SINGLE_GRAPH]
    naive = built["naive", SINGLE_GRAPH]
    for query in generate_queries(massive_dataset, 3, 5, seed=9):
        cni_domains = cni.filter_vertices(query)
        naive_domains = naive.filter_vertices(query)
        for cni_dom, naive_dom in zip(cni_domains, naive_domains):
            assert cni_dom <= naive_dom
        assert (
            cni.query(query, regime=SINGLE_GRAPH).answers
            == naive.query(query, regime=SINGLE_GRAPH).answers
        )


# Every method's single-graph path, at scales where even the miners build
# in well under a second: only CNI narrows domains with its structure,
# the rest inherit the generic label/degree + STwig domains.
_ORACLE_FACTORIES = {
    **INDEX_FACTORIES,
    "ctindex": lambda: CTIndex(fingerprint_bits=256, feature_edges=2),
    "gcode": lambda: GCodeIndex(path_depth=1, top_eigenvalues=1),
    "gindex": lambda: GIndex(max_fragment_edges=2, support_ratio=0.2),
    "tree+delta": lambda: TreeDeltaIndex(max_feature_edges=2, support_ratio=0.2),
}


@pytest.fixture(scope="module")
def rmat_indexes():
    """``(scale, method) -> index`` over R-MAT scales 6-8, built on demand."""
    datasets = {
        scale: as_core_dataset(
            generate_massive_dataset(
                RMATConfig(scale=scale, edge_factor=4, num_labels=6), seed=23
            )
        )
        for scale in (6, 7, 8)
    }
    built_indexes: dict = {}

    def index_for(scale, name):
        if (scale, name) not in built_indexes:
            index = _ORACLE_FACTORIES[name]()
            index.build(datasets[scale])
            built_indexes[scale, name] = index
        return built_indexes[scale, name]

    return datasets, index_for


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(sorted(_ORACLE_FACTORIES)),
    scale=st.sampled_from([6, 7, 8]),
    size=st.sampled_from([3, 4, 6]),
    seed=st.integers(min_value=0, max_value=50),
)
def test_single_graph_answers_match_the_whole_graph_oracle(
    rmat_indexes, name, scale, size, seed
):
    datasets, index_for = rmat_indexes
    index, data = index_for(scale, name), datasets[scale][0]
    for query in generate_queries(datasets[scale], 2, size, seed=seed):
        result = index.query(query, regime=SINGLE_GRAPH)
        assert result.answers == reference_embedding_roots(query, data)
        # Root by root, the compact-host search tree is the set engine's
        # over the whole graph with the same pinned domains.
        domains = index.filter_vertices(query)
        root = embedding_root(query, data)
        compiled = ullmann.compile_query(query, data, domains)
        feasible = ullmann._initial_candidates(query, data)
        for vertex in sorted(domains[root]):
            if compiled is None:
                break
            pinned = [c & set(d) for c, d in zip(feasible, domains)]
            pinned[root] &= {vertex}
            got = compiled.embeds(Budget(60.0), pin=(root, vertex))
            assert got == (vertex in result.answers)
            if not pinned[root]:
                assert compiled.nodes == 0
                continue
            state = SetDomainState(query, data, Budget(60.0))
            assert state.search(0, pinned, set()) == got
            assert compiled.nodes == state.nodes


@pytest.mark.parametrize("name", ["naive", "cni"])
def test_budget_expiring_mid_verify_raises(name, built, massive_dataset, monkeypatch):
    """Every poll of a single-graph query — per root, and per node inside
    the compact-host search — is a point where the budget can run out,
    and each must raise rather than return the roots verified so far."""
    monkeypatch.setattr(ullmann, "_BUDGET_POLL_INTERVAL", 1)
    index = built[name, SINGLE_GRAPH]
    query = next(
        query
        for query in generate_queries(massive_dataset, 8, 4, seed=3)
        if len(index.query(query, regime=SINGLE_GRAPH).candidates) >= 2
    )
    domains = index.filter_vertices(query)
    calls = {
        "query": lambda budget: index.query(
            query, budget=budget, regime=SINGLE_GRAPH
        ),
        "verify_embeddings": lambda budget: index.verify_embeddings(
            query, domains, budget
        ),
    }
    for label, call in calls.items():
        counter = CountdownBudget()
        roots = call(counter)
        if label == "query":
            roots = roots.answers
        assert roots, f"{label}: the chosen query must have embedding roots"
        # More polls than roots: some happen inside the search itself.
        assert counter.polls > len(domains[embedding_root(query, massive_dataset[0])])
        for left in range(1, counter.polls + 1):
            with pytest.raises(BudgetExceeded):
                call(CountdownBudget(left))


def test_unknown_regime_rejected(built):
    from repro.graphs.graph import Graph

    index = built["naive", TRANSACTIONAL]
    q = Graph(["A", "A"], [(0, 1)])
    with pytest.raises(ValueError, match="regime"):
        index.query(q, regime="nonsense")


class TestRegimeEnvironment:
    """``REPRO_REGIME`` at the CLI: the two regimes print different
    things, so a mistyped value is an error, never a silent default."""

    @pytest.fixture
    def files(self, tmp_path):
        from repro.cli.main import main

        data, queries = tmp_path / "d.gfd", tmp_path / "q.gfd"
        assert main(["generate", str(data), "--graphs", "4", "--nodes", "8"]) == 0
        assert main(["queries", str(data), str(queries), "--count", "2",
                     "--edges", "2"]) == 0
        return str(data), str(queries)

    def test_mistyped_value_is_rejected_with_the_choices(
        self, files, monkeypatch, capsys
    ):
        from repro.cli.main import main

        monkeypatch.setenv("REPRO_REGIME", "single_graph")  # underscore
        capsys.readouterr()
        for argv in (
            ["query", *files, "--method", "naive"],
            ["build", files[0], "--method", "naive"],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "single_graph" in err
            assert "transactional" in err and "single-graph" in err

    def test_unset_means_transactional_and_the_flag_overrides(
        self, files, monkeypatch, capsys
    ):
        from repro.cli.main import main

        monkeypatch.delenv("REPRO_REGIME", raising=False)
        assert main(["query", *files, "--method", "naive"]) == 0
        # An explicit flag wins over a mistyped environment value; the
        # regime it selects then rejects this multi-graph dataset.
        monkeypatch.setenv("REPRO_REGIME", "single_graph")
        capsys.readouterr()
        assert main(
            ["query", *files, "--method", "naive", "--regime", "single-graph"]
        ) == 2
        assert "one-graph dataset" in capsys.readouterr().err
