"""Library-caller workloads: built indexes answering one query at a time.

``txn_selective``, ``txn_dense`` and ``massive_rmat12`` share this
driver and differ only in :class:`QueryShape`: which dataset family,
which roster of methods, which regime.  The timed phase is a closed
loop — one caller, the next query is issued when the previous answer
has arrived — over a seeded stream of random-walk queries.  Query *i*
goes to roster method ``i mod len(roster)``, so every method sees an
even share of an independent sample and the pooled latency
distribution has as many independent draws as there are operations
(asking every method the same query would triple the work without
adding information about the query mix).
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field

import adapters
from adapters import ProbeMissing, probe
from harness import Check, Round, Workload, mean

__all__ = ["QueryShape", "QueryWorkload"]

#: Equal slices of the timed phase; the median slice is reported.
ROUNDS = 5
TRANSACTIONAL = "transactional"
SINGLE_GRAPH = "single-graph"


@dataclass(frozen=True, slots=True)
class QueryShape:
    """The fixed inputs of one query workload (seed aside)."""

    #: ``GraphGenConfig`` or ``RMATConfig`` of the full run / of ``--quick``.
    config: object
    quick_config: object
    roster: tuple[str, ...]
    sizes: tuple[int, ...]
    #: Distinct queries generated per size; the stream wraps when spent.
    queries_per_size: int
    regime: str = TRANSACTIONAL
    #: Per-query time allowance (the massive regime's guard), or None.
    budget_seconds: float | None = None
    #: Queries compared against ``NaiveIndex`` after the timed phase.
    naive_sample: int = 20
    #: Queries every roster method answers, to compare answer sets.
    cross_sample: int = 30
    #: Seed of the dataset when it is the fixed database of the workload
    #: and ``--seed`` draws only the queries; None derives both from it.
    dataset_seed: int | None = None


@dataclass
class QueryWorkload(Workload):
    shape: QueryShape | None = None
    #: ``(query index, method, QueryResult | None)`` per timed operation.
    records: list[tuple] = field(default_factory=list)

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        shape, trace = self.shape, self.tracer
        config = shape.quick_config if self.quick else shape.config
        dataset_seed = self.seed if shape.dataset_seed is None else shape.dataset_seed
        if shape.regime == SINGLE_GRAPH:
            self.dataset = trace.call(
                "generators.rmat",
                adapters.generate_massive_dataset, config, seed=dataset_seed,
            )
        else:
            self.dataset = trace.call(
                "generators.dataset",
                adapters.generate_dataset, config, seed=dataset_seed,
            )
        self.core = trace.call(
            "graphs.csr_convert", adapters.as_core_dataset, self.dataset
        )
        per_size = [
            trace.call(
                "generators.queries",
                adapters.generate_queries,
                self.dataset, self.count_per_size(), size, seed=self.seed + size,
            )
            for size in shape.sizes
        ]
        # Interleave the sizes so every prefix of the stream has the
        # same size mix, however far the timed phase gets.
        raw = [query for group in zip(*per_size) for query in group]
        with trace.span("graphs.query_admit", queries=len(raw)):
            self.queries = [adapters.as_core_query(query) for query in raw]
        self.indexes = {}
        self.index_bytes = 0
        started = time.perf_counter()
        for method in shape.roster:
            index = adapters.make_method(
                method, adapters.CI_PROFILE.method_configs.get(method)
            )
            report = trace.call(f"indexes.{method}.build", index.build, self.core)
            self.indexes[method] = index
            self.index_bytes += report.size_bytes
        self.build_seconds.append(time.perf_counter() - started)

    def count_per_size(self) -> int:
        return max(12, self.shape.queries_per_size // 20) if self.quick else (
            self.shape.queries_per_size
        )

    # -- the timed phase -------------------------------------------------

    def operation(self, position: int) -> tuple[int, str]:
        """Query index and method of the *position*-th operation."""
        count, roster = len(self.queries), self.shape.roster
        # Rotate the method on every wrap so a second pass over the
        # stream pairs each query with another method.
        return position % count, roster[(position + position // count) % len(roster)]

    def budget(self):
        seconds = self.shape.budget_seconds
        return None if seconds is None else adapters.Budget(seconds)

    def measure(self, seconds: float) -> None:
        regime = self.shape.regime
        gc.collect()
        position = 0
        round_seconds = seconds / ROUNDS
        for _ in range(ROUNDS):
            latencies = []
            started = time.perf_counter()
            deadline = started + round_seconds
            while True:
                query_index, method = self.operation(position)
                index, query = self.indexes[method], self.queries[query_index]
                sent = time.perf_counter()
                try:
                    result = index.query(query, budget=self.budget(), regime=regime)
                except adapters.BudgetExceeded:
                    result = None
                now = time.perf_counter()
                if result is None:
                    self.failed_operations += 1
                else:
                    latencies.append((now - sent) * 1e3)
                self.records.append((query_index, method, result))
                position += 1
                if now >= deadline:
                    break
            self.rounds.append(Round(latencies, len(latencies), now - started))

    # -- correctness -----------------------------------------------------

    def check(self) -> list[Check]:
        regime = self.shape.regime
        answered = [record for record in self.records if record[2] is not None]
        checks = [
            Check("budget-expiries", len(self.records), self.failed_operations),
            Check(
                "candidates-superset-of-answers",
                len(answered),
                sum(
                    not result.answers <= result.candidates
                    for _, _, result in answered
                ),
            ),
        ]
        asked = sorted({query_index for query_index, _, _ in answered})

        disagreements = 0
        cross = asked[: self.shape.cross_sample]
        for query_index in cross:
            answers = {
                index.query(
                    self.queries[query_index], budget=self.budget(), regime=regime
                ).answers
                for index in self.indexes.values()
            }
            disagreements += len(answers) != 1
        checks.append(Check("methods-agree", len(cross), disagreements))

        sample = set(
            random.Random(self.seed).sample(
                asked, min(self.shape.naive_sample, len(asked))
            )
        )
        naive = adapters.make_method("naive")
        naive.build(self.core)
        truth = {
            query_index: naive.query(
                self.queries[query_index], regime=regime
            ).answers
            for query_index in sample
        }
        compared = [
            (query_index, result)
            for query_index, _, result in answered
            if query_index in sample
        ]
        checks.append(
            Check(
                "answers-equal-naive",
                len(compared),
                sum(
                    result.answers != truth[query_index]
                    for query_index, result in compared
                ),
            )
        )
        return checks

    # -- the traced pass -------------------------------------------------

    def per_layer(self, seconds: float) -> dict[str, float]:
        trace, shape = self.tracer, self.shape
        single = shape.regime == SINGLE_GRAPH
        # Untraced reference over the first k operations of the stream...
        trace.enabled = False
        self.measure(seconds / 2)
        untraced_wall = sum(round_.seconds for round_ in self.rounds)
        operations = len(self.records)
        trace.enabled = True
        # ...then the same k operations with the two stages called
        # separately, each in its own span.
        gc.collect()
        started = time.perf_counter()
        for position in range(operations):
            query_index, method = self.operation(position)
            index, query = self.indexes[method], self.queries[query_index]
            with trace.span("query", method=method, query=query_index):
                if single:
                    domains = trace.call(
                        f"indexes.{method}.filter", index.filter_vertices, query
                    )
                    trace.call(
                        f"indexes.{method}.verify",
                        index.verify_embeddings, query, domains, self.budget(),
                    )
                else:
                    candidates = trace.call(
                        f"indexes.{method}.filter", index.filter, query
                    )
                    trace.call(
                        f"indexes.{method}.verify", index.verify, query, candidates
                    )
        traced_wall = time.perf_counter() - started

        values = {
            "trace_overhead_ratio": traced_wall / untraced_wall - 1.0,
            "graphs.csr_convert_s": trace.total("graphs.csr_convert"),
            "generators.queries_s": trace.total("generators.queries"),
            "generators.rmat_s" if single else "generators.dataset_s": trace.total(
                "generators.rmat" if single else "generators.dataset"
            ),
            "graphs.query_admit_us": trace.total("graphs.query_admit")
            / trace.count("graphs.query_admit", "queries")
            * 1e6,
        }
        answered = [record for record in self.records if record[2] is not None]
        for method in shape.roster:
            mine = [result for _, m, result in answered if m == method]
            values.update(
                {
                    f"indexes.{method}.build_s": trace.total(f"indexes.{method}.build"),
                    f"indexes.{method}.index_mb": self.indexes[method]
                    .build_report.size_bytes
                    / 1e6,
                    f"indexes.{method}.filter_ms": mean(
                        trace.durations(f"indexes.{method}.filter")
                    )
                    * 1e3,
                    f"indexes.{method}.verify_ms": mean(
                        trace.durations(f"indexes.{method}.verify")
                    )
                    * 1e3,
                    f"indexes.{method}.candidates": mean(
                        len(result.candidates) for result in mine
                    ),
                    f"indexes.{method}.fp_ratio": mean(
                        result.false_positive_ratio for result in mine
                    ),
                }
            )
        if single:
            self.probe_single_graph(values, answered)
        else:
            self.guarded(
                tuple(
                    f"isomorphism.vf2.{name}"
                    for name in ("calls", "us_per_call", "match_ratio")
                ),
                lambda: self.probe_vf2(answered),
                values,
            )
        return values

    def probe_vf2(self, answered: list) -> dict:
        """Stock VF2 over each sampled query's candidate graphs."""
        matcher = probe("repro.isomorphism.vf2:SubgraphMatcher")
        matches = 0
        for query_index, _, result in answered[:40]:
            query = self.queries[query_index]
            for graph_id in sorted(result.candidates):
                with self.tracer.span("isomorphism.vf2.exists"):
                    matches += matcher(query, self.core[graph_id]).exists()
        calls = self.tracer.durations("isomorphism.vf2.exists")
        return {
            "isomorphism.vf2.calls": len(calls),
            "isomorphism.vf2.us_per_call": mean(calls) * 1e6,
            "isomorphism.vf2.match_ratio": matches / max(len(calls), 1),
        }

    def probe_single_graph(self, values: dict, answered: list) -> None:
        """Where the massive regime's query time goes, stage by stage."""
        trace, method = self.tracer, self.shape.roster[0]
        # verify_embeddings pins each candidate of the anchor vertex in
        # turn; QueryResult.candidates is exactly that root domain.
        roots = sum(len(result.candidates) for _, _, result in answered)
        values["isomorphism.ullmann.roots"] = roots
        values["isomorphism.ullmann.ms_per_root"] = (
            trace.total(f"indexes.{method}.verify") / max(roots, 1) * 1e3
        )
        data = self.core[0]
        sample = [self.queries[query_index] for query_index, _, _ in answered[:40]]

        def decompose_layer():
            initial_domains = probe("repro.isomorphism.decompose:initial_domains")
            prune_domains = probe("repro.isomorphism.decompose:prune_domains")
            before = after = 0
            for query in sample:
                domains = initial_domains(query, data)
                pruned = trace.call(
                    "isomorphism.decompose.prune", prune_domains, query, data, domains
                )
                before += sum(map(len, domains))
                after += sum(map(len, pruned))
            return {
                "isomorphism.decompose.prune_ms": mean(
                    trace.durations("isomorphism.decompose.prune")
                )
                * 1e3,
                "isomorphism.decompose.domain_ratio": after / max(before, 1),
            }

        def bitmatrix_layer():
            # The bit matrix is cached per graph; a fresh conversion pays it.
            fresh = adapters.as_core_dataset(self.dataset)[0]
            if not hasattr(fresh, "adjacency_bitmatrix"):
                raise ProbeMissing("the core graph has no adjacency_bitmatrix()")
            trace.call("isomorphism.bitmatrix", fresh.adjacency_bitmatrix)
            return {"isomorphism.bitmatrix_s": trace.total("isomorphism.bitmatrix")}

        self.guarded(
            ("isomorphism.decompose.prune_ms", "isomorphism.decompose.domain_ratio"),
            decompose_layer, values,
        )
        self.guarded(("isomorphism.bitmatrix_s",), bitmatrix_layer, values)
        naive = adapters.make_method("naive")
        naive.build(self.core)
        index = self.indexes[method]
        narrowed = sum(
            len(domain) for query in sample for domain in index.filter_vertices(query)
        )
        generic = sum(
            len(domain) for query in sample for domain in naive.filter_vertices(query)
        )
        values[f"indexes.{method}.domain_ratio"] = narrowed / max(generic, 1)
