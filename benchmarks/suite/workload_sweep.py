"""The batch user's workload: the paper's graph-count sweep, cold then warm.

One ``graph_count_sweep`` call over the exhaustive-enumeration roster
with the whole engine switched on (two pool workers, shared-memory
arenas, per-query batches, an on-disk index store), first against an
empty store — feature enumeration and index builds do most of that
work — and then again and again against the now-warm store, where
arena, pool, scheduling, store reads and serialization are all that is
left.  The cold sweep is this workload's index build: part of set-up,
timed on its own as ``build_s``; the warm reruns are the timed phase.

The frequent-mining roster (gIndex, Tree+Delta) is probed per layer
only: one of its builds costs 6-9 s here and varies by half from seed to
seed, which the run-time cap of the benchmark cannot hold.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import pickle
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import adapters
from adapters import ProbeMissing, probe
from harness import Check, Round, Workload

__all__ = ["SweepWorkload"]

ROSTER = ("grapes", "ggsx", "ctindex", "gcode")
#: Graph counts of the full run and of ``--quick``.
VALUES = (40, 80)
QUICK_VALUES = (8, 16)
JOBS = 2
#: Experiment seeds derived from ``--seed``; the most typical one runs.
CANDIDATES = 25


def ci_graphs(count: int):
    """The dataset shape the sweep generates for *count* graphs."""
    profile = adapters.CI_PROFILE
    return adapters.GraphGenConfig(
        num_graphs=count,
        mean_nodes=profile.default_nodes,
        mean_density=profile.default_density,
        num_labels=profile.default_labels,
    )


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments Python created."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


@dataclass
class SweepWorkload(Workload):
    cold: object = None
    warm: list = field(default_factory=list)

    def profile(self):
        return dataclasses.replace(
            adapters.CI_PROFILE,
            queries_per_size=4 if self.quick else 20,
            build_budget_seconds=60.0,
            query_budget_seconds=60.0,
        )

    def values(self) -> tuple[int, ...]:
        return QUICK_VALUES if self.quick else VALUES

    def min_rounds(self) -> int:
        # A warm rerun is short; five of them make a steady median.
        return 1 if self.quick else 5

    def typical_seed(self) -> int:
        """The experiment seed, of ``CANDIDATES`` derived from ``--seed``,
        whose datasets cost the median amount to index.

        GraphGen's default deviations (5 nodes, 0.01 density) are heavy
        tails on 24-node graphs, and the sweep offers no way to narrow
        them: from one seed to the next the cold sweep's time and index
        size differ by 15-20 %, far beyond any bound.  The sum of squared
        degrees predicts both (r = 0.98 and 0.94 over 30 seeds), so
        running the median candidate keeps the inputs seed-derived and
        the cost typical.
        """
        values = self.values()
        config = ci_graphs(max(values))

        def cost(seed: int) -> int:
            # The x-graph dataset is a prefix of the largest, so graph i
            # is indexed once per sweep value above i.
            return sum(
                sum(graph_id < x for x in values)
                * sum(graph.degree(v) ** 2 for v in graph.vertices())
                for graph_id, graph in enumerate(
                    adapters.generate_dataset(config, seed=seed)
                )
            )

        candidates = range(self.seed * CANDIDATES, (self.seed + 1) * CANDIDATES)
        return sorted(candidates, key=cost)[CANDIDATES // 2]

    def sweep(self, store: Path, jobs: int = JOBS, methods=ROSTER, values=None):
        engine = jobs > 1
        return adapters.graph_count_sweep(
            self.profile(),
            methods=list(methods),
            values=self.values() if values is None else values,
            seed=self.experiment_seed,
            jobs=jobs,
            shared_mem=engine,
            batch_queries=engine,
            index_store_dir=str(store),
        )

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        self.segments_before = shm_segments()
        self.experiment_seed = self.tracer.call(
            "core.sweep.typical_seed", self.typical_seed
        )
        self.store = self.make_tmp_dir() / "store"
        # The oracle: the same public entry point, index-free method,
        # in-process, over the smallest dataset of the sweep.
        smallest = min(self.values())
        reference = self.tracer.call(
            "core.sweep.naive_reference",
            self.sweep, self.tmp_dir / "naive-store", 1, ("naive",), (smallest,),
        )
        self.truth = {
            size: stats.stats.avg_answers
            for size, stats in reference.cells[(smallest, "naive")].per_size.items()
        }
        # The cold sweep fills the store the timed phase reads; like the
        # other workloads' index builds it is set-up, timed on its own.
        started = time.perf_counter()
        self.cold = self.tracer.call("core.sweep.cold", self.sweep, self.store)
        self.build_seconds.append(time.perf_counter() - started)
        self.index_bytes = sum(
            cell.index_bytes or 0 for cell in self.cold.cells.values()
        )

    # -- the timed phase -------------------------------------------------

    def measure(self, seconds: float) -> None:
        gc.collect()
        deadline = time.perf_counter() + seconds
        # One warm rerun is one round: its latencies are the mean query
        # times the rerun's cells report per query size.
        while len(self.warm) < self.min_rounds() or time.perf_counter() < deadline:
            sent = time.perf_counter()
            result = self.tracer.call("core.sweep.warm", self.sweep, self.store)
            seconds_taken = time.perf_counter() - sent
            self.warm.append(result)
            stats = [
                size.stats
                for cell in result.cells.values()
                for size in cell.per_size.values()
                if size.status == "ok"
            ]
            self.rounds.append(
                Round(
                    [s.avg_query_seconds * 1e3 for s in stats],
                    sum(s.num_queries for s in stats),
                    seconds_taken,
                )
            )

    # -- correctness -----------------------------------------------------

    def check(self) -> list[Check]:
        results = [self.cold, *self.warm]
        cells = [cell for result in results for cell in result.cells.values()]
        failed_cells = sum(
            cell.build_status != "ok"
            or any(stats.status != "ok" for stats in cell.per_size.values())
            for cell in cells
        )
        digest = adapters.sweep_digest(self.cold)
        checks = [
            Check("cells-ok", len(cells), failed_cells),
            Check(
                "warm-digest-equals-cold",
                len(self.warm),
                sum(adapters.sweep_digest(result) != digest for result in self.warm),
            ),
            Check(
                "warm-reruns-build-nothing",
                len(self.warm),
                sum(result.fresh_builds() != 0 for result in self.warm),
            ),
        ]
        disagree = beyond = wrong = compared = 0
        smallest = min(self.values())
        for x in self.cold.x_values:
            for size in self.cold.query_sizes:
                stats = [
                    self.cold.cells[(x, method)].per_size[size].stats
                    for method in ROSTER
                    if self.cold.cells[(x, method)].per_size[size].status == "ok"
                ]
                disagree += len({s.avg_answers for s in stats}) > 1
                beyond += sum(s.avg_candidates < s.avg_answers for s in stats)
                if x == smallest:
                    compared += len(stats)
                    wrong += sum(s.avg_answers != self.truth[size] for s in stats)
        groups = len(self.cold.x_values) * len(self.cold.query_sizes)
        checks += [
            Check("methods-agree", groups, disagree),
            Check("candidates-superset-of-answers", groups * len(ROSTER), beyond),
            Check("answers-equal-naive", compared, wrong),
        ]
        try:
            live = probe("repro.core.arena:live_arenas")()
        except ProbeMissing:
            live = ()
        leaked = shm_segments() - self.segments_before
        checks.append(
            Check("no-arena-survives", 1, int(bool(live or leaked)), f"{live} {leaked}")
        )
        return checks

    # -- the traced pass -------------------------------------------------

    def per_layer(self, seconds: float) -> dict[str, float]:
        trace = self.tracer
        self.measure(seconds / 2)
        cold_wall = self.build_seconds[-1]
        values = {
            "core.sweep.warm_s": statistics.median(
                round_.seconds for round_ in self.rounds
            ),
            "core.sweep.build_sum_s": sum(
                cell.build_seconds or 0.0 for cell in self.cold.cells.values()
            ),
        }
        # The traced pass proper: the same sweep in this process, one
        # job, against its own empty store.
        trace.call("core.sweep.sequential", self.sweep, self.tmp_dir / "store-jobs1", 1)
        values["core.parallel.speedup"] = (
            trace.total("core.sweep.sequential") / cold_wall
        )
        # Spans cost nothing inside a sweep call (they wrap it), so the
        # overhead is what an enabled tracer adds to one warm rerun.
        trace.enabled = False
        started = time.perf_counter()
        self.sweep(self.store)
        untraced = time.perf_counter() - started
        trace.enabled = True
        trace.call("core.sweep.warm-traced", self.sweep, self.store)
        values["trace_overhead_ratio"] = (
            trace.total("core.sweep.warm-traced") / untraced - 1.0
        )
        for method in ROSTER:
            cells = [self.cold.cells[(x, method)] for x in self.cold.x_values]
            stats = [s.stats for cell in cells for s in cell.per_size.values()]
            values.update(
                {
                    f"indexes.{method}.build_s": sum(c.build_seconds for c in cells),
                    f"indexes.{method}.index_mb": sum(c.index_bytes for c in cells) / 1e6,
                    f"indexes.{method}.filter_ms": statistics.fmean(
                        s.avg_filter_seconds for s in stats
                    )
                    * 1e3,
                    f"indexes.{method}.verify_ms": statistics.fmean(
                        s.avg_verify_seconds for s in stats
                    )
                    * 1e3,
                    f"indexes.{method}.candidates": statistics.fmean(
                        s.avg_candidates for s in stats
                    ),
                    f"indexes.{method}.fp_ratio": statistics.fmean(
                        s.false_positive_ratio for s in stats
                    ),
                }
            )
        self.probe_layers(values)
        return values

    def probe_layers(self, values: dict) -> None:
        trace = self.tracer
        seed = self.experiment_seed
        dataset = trace.call(
            "generators.dataset",
            adapters.generate_dataset, ci_graphs(max(self.values())), seed=seed,
        )
        queries = trace.call(
            "generators.queries",
            adapters.generate_queries, dataset, 20, 8, seed=seed + 8,
        )
        core = trace.call("graphs.csr_convert", adapters.as_core_dataset, dataset)
        with trace.span("graphs.query_admit", queries=len(queries)):
            for query in queries:
                adapters.as_core_query(query)
        values["generators.dataset_s"] = trace.total("generators.dataset")
        values["generators.queries_s"] = trace.total("generators.queries")
        values["graphs.csr_convert_s"] = trace.total("graphs.csr_convert")
        values["graphs.query_admit_us"] = (
            trace.total("graphs.query_admit") / len(queries) * 1e6
        )

        def graphs_layer():
            pack = probe("repro.graphs.dataset:pack_dataset")
            unpack = probe("repro.graphs.csr:CSRDataset.from_packed")
            fingerprint = probe("repro.graphs.dataset:dataset_fingerprint")
            blob = trace.call("graphs.pack", pack, dataset)
            trace.call("graphs.unpack", unpack, blob)
            trace.call("graphs.fingerprint", fingerprint, core)
            return {
                "graphs.pack_s": trace.total("graphs.pack"),
                "graphs.unpack_s": trace.total("graphs.unpack"),
                "graphs.fingerprint_s": trace.total("graphs.fingerprint"),
            }

        def features_layer():
            found = {}
            for name, path, edges in (
                ("paths", "repro.features.paths:path_features", 4),
                ("trees", "repro.features.trees:enumerate_trees", 3),
                ("cycles", "repro.features.cycles:enumerate_simple_cycles", 3),
            ):
                enumerate_features = probe(path)
                with trace.span(f"features.{name}") as counts:
                    counts["features"] = sum(
                        sum(1 for _ in enumerate_features(graph, edges))
                        for graph in core
                    )
                found[f"features.{name}_s"] = trace.total(f"features.{name}")
                found[f"features.{name}_count"] = counts["features"]
            return found

        def mining_layer():
            mine = probe("repro.mining.gspan:mine_frequent_patterns")
            graphs = list(core)[:40]
            support = max(2, len(graphs) // 10)
            patterns = trace.call("mining.gspan", mine, graphs, support, 3)
            trace.call("mining.gspan_trees", mine, graphs, support, 3, trees_only=True)
            return {
                "mining.gspan_s": trace.total("mining.gspan"),
                "mining.gspan_trees_s": trace.total("mining.gspan_trees"),
                "mining.patterns": len(patterns),
            }

        def store_layer():
            artifact_from_index = probe("repro.indexes.store:artifact_from_index")
            materialize = probe("repro.indexes.store:materialize_artifact")
            store_class = probe("repro.indexes.store:IndexStore")
            digest = probe("repro.graphs.dataset:dataset_fingerprint")(core)
            index = adapters.make_method(
                "grapes", adapters.CI_PROFILE.method_configs["grapes"]
            )
            index.build(core)
            artifact = artifact_from_index(index, digest)
            with trace.span("store.pickle"):
                pickle.dumps(artifact.payload, protocol=pickle.HIGHEST_PROTOCOL)
            root = self.tmp_dir / "probe-store"
            writer = store_class(str(root))
            trace.call("store.put", writer.put, artifact)
            # A second store over the same directory has a cold memory
            # tier: one miss (unknown digest), then one disk hit.
            reader = store_class(str(root))
            reader.get("grapes", index.index_params(), digest ^ 1)
            fetched = trace.call(
                "store.get", reader.get, "grapes", index.index_params(), digest
            )
            trace.call("store.materialize", materialize, fetched, core)
            return {
                "store.put_s": trace.total("store.put"),
                "store.get_s": trace.total("store.get")
                + trace.total("store.materialize"),
                "store.pickle_s": trace.total("store.pickle"),
                "store.bytes": sum(f.stat().st_size for f in root.iterdir()),
                "store.disk_hits": reader.stats.disk_hits,
                "store.misses": reader.stats.misses,
            }

        def engine_layer():
            runner_class = probe("repro.core.parallel:ParallelRunner")
            arena_class = probe("repro.core.arena:DatasetArena")
            attach = probe("repro.core.arena:attach_csr_dataset")
            with trace.span("core.pool.spawn"):
                with runner_class(jobs=JOBS) as runner:
                    runner.map(abs, [-1, -2])
            with trace.span("core.arena.create"):
                arena = arena_class.create(dataset)
            try:
                trace.call("core.arena.attach", attach, arena.handle)
            finally:
                arena.close()
            return {
                "core.pool.spawn_s": trace.total("core.pool.spawn"),
                "core.arena.create_s": trace.total("core.arena.create"),
                "core.arena.attach_s": trace.total("core.arena.attach"),
            }

        def serialization_layer():
            to_json = probe("repro.core.serialization:sweep_to_json")
            trace.call("core.serialization.json", to_json, self.cold)
            trace.call("core.serialization.digest", adapters.sweep_digest, self.cold)
            return {
                "core.serialization.json_s": trace.total("core.serialization.json"),
                "core.serialization.digest_s": trace.total("core.serialization.digest"),
            }

        for names, probe_layer in (
            (("graphs.pack_s", "graphs.unpack_s", "graphs.fingerprint_s"), graphs_layer),
            (
                tuple(
                    f"features.{name}_{kind}"
                    for name in ("paths", "trees", "cycles")
                    for kind in ("s", "count")
                ),
                features_layer,
            ),
            (("mining.gspan_s", "mining.gspan_trees_s", "mining.patterns"), mining_layer),
            (
                tuple(
                    f"store.{name}"
                    for name in (
                        "put_s", "get_s", "pickle_s", "bytes", "disk_hits", "misses",
                    )
                ),
                store_layer,
            ),
            (
                ("core.pool.spawn_s", "core.arena.create_s", "core.arena.attach_s"),
                engine_layer,
            ),
            (
                ("core.serialization.json_s", "core.serialization.digest_s"),
                serialization_layer,
            ),
        ):
            self.guarded(names, probe_layer, values)
