"""Failure injection: budgets expiring inside every pipeline stage.

The paper's methodology depends on experiments failing *cleanly* at
the 8-hour mark.  These tests drive expired and near-expired budgets
through every index's build, filter and verify paths and assert the
failure is a catchable BudgetExceeded — never a wrong answer.
"""

import time

import pytest

from repro.generators.graphgen import GraphGenConfig, generate_dataset
from repro.generators.queries import generate_queries
from repro.indexes import (
    CTIndex,
    GCodeIndex,
    GIndex,
    GraphGrepSXIndex,
    GrapesIndex,
    TreeDeltaIndex,
)
from repro.graphs.csr import as_core_dataset, as_core_query
from repro.isomorphism import vf2
from repro.utils.budget import Budget, BudgetExceeded

from testkit import CountdownBudget

FACTORIES = {
    "ggsx": lambda: GraphGrepSXIndex(max_path_edges=3),
    "grapes": lambda: GrapesIndex(max_path_edges=3, workers=2),
    "ctindex": lambda: CTIndex(fingerprint_bits=256, feature_edges=3),
    "gcode": lambda: GCodeIndex(),
    "gindex": lambda: GIndex(max_fragment_edges=3, support_ratio=0.2),
    "tree+delta": lambda: TreeDeltaIndex(max_feature_edges=3, support_ratio=0.2),
}


@pytest.fixture(scope="module")
def dataset():
    config = GraphGenConfig(
        num_graphs=20, mean_nodes=14, mean_density=0.15, num_labels=4
    )
    return generate_dataset(config, seed=99)


@pytest.fixture(scope="module")
def queries(dataset):
    return generate_queries(dataset, 3, 5, seed=0)


def _expired() -> Budget:
    budget = Budget(0.0)
    time.sleep(0.002)
    return budget


@pytest.mark.parametrize("name", list(FACTORIES))
class TestExpiredBudgets:
    def test_build_raises(self, name, dataset):
        with pytest.raises(BudgetExceeded):
            FACTORIES[name]().build(dataset, budget=_expired())

    def test_filter_raises_or_completes(self, name, dataset, queries):
        """Filtering with an expired budget either raises BudgetExceeded
        or returns a *correct* candidate set — never garbage."""
        index = FACTORIES[name]()
        index.build(dataset)
        reference = index.filter(queries[0])
        try:
            candidates = index.filter(queries[0], budget=_expired())
        except BudgetExceeded:
            return
        assert candidates == reference

    def test_generous_budget_is_transparent(self, name, dataset, queries):
        index = FACTORIES[name]()
        index.build(dataset, budget=Budget(3600.0))
        relaxed = FACTORIES[name]()
        relaxed.build(dataset)
        for query in queries:
            assert index.query(query, budget=Budget(3600.0)).answers == \
                relaxed.query(query).answers


class TestMidBuildExpiry:
    """A budget that expires *during* the build must abort the build."""

    @pytest.mark.parametrize("name", ["gindex", "tree+delta"])
    def test_mining_interrupted(self, name, dataset):
        # Mining at a permissive support on a denser dataset takes well
        # over 5 ms; a 5 ms budget must trip mid-mine.
        config = GraphGenConfig(
            num_graphs=20, mean_nodes=20, mean_density=0.25, num_labels=2
        )
        dense = generate_dataset(config, seed=3)
        factory = {
            "gindex": lambda: GIndex(max_fragment_edges=6, support_ratio=0.1),
            "tree+delta": lambda: TreeDeltaIndex(
                max_feature_edges=6, support_ratio=0.1
            ),
        }[name]
        with pytest.raises(BudgetExceeded):
            factory().build(dense, budget=Budget(0.005))


@pytest.mark.parametrize("name", ["ggsx", "grapes", "ctindex"])
def test_budget_expiring_mid_vf2_raises(name, dataset, monkeypatch):
    """Every poll of a transactional query — per filter step, per
    candidate graph, and per node inside each VF2 search — is a point
    where the budget can run out, and each must raise out of query()
    rather than return the answers verified so far."""
    core = as_core_dataset(dataset)
    index = FACTORIES[name]()
    index.build(core)
    queries = [
        as_core_query(query) for query in generate_queries(dataset, 6, 5, seed=4)
    ]
    query = next(q for q in queries if len(index.query(q).answers) >= 2)
    coarse = CountdownBudget()
    assert index.query(query, budget=coarse).answers
    monkeypatch.setattr(vf2, "_BUDGET_POLL_INTERVAL", 1)
    counter = CountdownBudget()
    answers = index.query(query, budget=counter).answers
    assert answers == index.query(query).answers
    # Polling every node adds polls: some happen inside the searches.
    assert counter.polls > coarse.polls
    for left in range(1, counter.polls + 1):
        with pytest.raises(BudgetExceeded):
            index.query(query, budget=CountdownBudget(left))
