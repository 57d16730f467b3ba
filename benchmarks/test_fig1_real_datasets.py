"""Figure 1: indexing and query processing over the real datasets.

Panels: (a) indexing time, (b) index size, (c) query processing time,
(d) false positive ratio — six methods over the AIDS/PDBS/PCM/PPI
stand-ins.  Shape claims checked (from §5.1):

* Grapes and GGSX complete indexing on every dataset within the budget;
* Grapes/GGSX query at least as fast as the frequent-mining methods
  wherever both produce data;
* path-based exhaustive methods index faster than frequent-mining
  methods on every dataset where the latter complete.
"""

from repro.core.experiments import real_dataset_experiment
from repro.core.report import ordering_fraction, render_sweep, series_values

from benchkit import save_and_print


def test_fig1(benchmark, profile, engine, results_dir):
    result = benchmark.pedantic(
        real_dataset_experiment,
        kwargs={"profile": profile, **engine},
        rounds=1,
        iterations=1,
    )
    save_and_print(results_dir, "fig1_real_datasets.txt", render_sweep(result, "1"))

    indexing = result.indexing_time()
    # Grapes and GGSX index every dataset within the budget (§5.1).
    assert len(series_values(indexing, "grapes")) == len(result.x_values)
    assert len(series_values(indexing, "ggsx")) == len(result.x_values)

    # Path methods vs frequent mining on indexing time, where comparable.
    assert (
        ordering_fraction(indexing, ["grapes", "ggsx"], ["gindex", "tree+delta"])
        >= 0.5
    )

    # Query time: the paper's recurring ordering — exhaustive path
    # methods lead the mining methods.  Under load gindex/Tree+Δ time
    # out on most stand-ins and a single comparable dataset would
    # decide a wall-clock ordering, so the fraction is always printed
    # but asserted only over at least two comparable datasets
    # (ROADMAP 1c replaces this with deterministic series).
    query = result.query_time()
    faster, slower = ["ggsx", "grapes"], ["gindex", "tree+delta"]
    comparable = sum(
        any(query[m][i][1] is not None for m in faster)
        and any(query[m][i][1] is not None for m in slower)
        for i in range(len(result.x_values))
    )
    fraction = ordering_fraction(query, faster, slower)
    print(
        f"fig1 query-time ordering {faster} <= {slower}: {fraction:.2f} "
        f"over {comparable} comparable dataset(s)"
    )
    if comparable >= 2:
        assert fraction >= 0.5
