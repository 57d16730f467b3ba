"""The online query service and its load generator.

PR 7's contracts end to end, without subprocesses (the CLI-level
daemon lifecycle lives in ``test_cli_serve.py``):

* serve-vs-batch identity — a warm :class:`QueryService` answers every
  query with exactly the payload a fresh batch build produces, and
  keeps doing so under concurrent HTTP clients (the per-method lock
  protects the Tree+Delta-style query-time mutation);
* the thread-safe memory-LRU of :class:`IndexStore` survives a
  mixed get/put/evict stampede with the bound intact;
* the scenario format and KPI evaluation of :mod:`repro.core.loadgen`;
* graceful drain: :func:`run_server` returns 0 after its shutdown
  event fires, having answered everything in flight.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.loadgen import (
    KpiSpec,
    LoadResult,
    ScenarioError,
    bench_record,
    evaluate_kpis,
    metrics_of,
    parse_scenario,
    post_query,
    run_load,
)
from repro.core.runner import make_method
from repro.core.serve import (
    QueryService,
    RequestMetrics,
    ServeError,
    answers_of,
    make_server,
    quantile,
    run_server,
)
from repro.generators.graphgen import GraphGenConfig, generate_dataset
from repro.generators.queries import generate_queries
from repro.graphs.csr import as_core_dataset
from repro.graphs.dataset import GraphDataset
from repro.graphs.io import dumps_dataset
from repro.indexes.store import (
    ArtifactHeader,
    ArtifactProvenance,
    IndexArtifact,
    IndexStore,
    clear_stores,
)

METHOD = "ggsx"
OPTIONS = {"max_path_edges": 2}


@pytest.fixture(autouse=True)
def _fresh_stores():
    clear_stores()
    yield
    clear_stores()


@pytest.fixture(scope="module")
def dataset():
    config = GraphGenConfig(
        num_graphs=12, mean_nodes=10, mean_density=0.25, num_labels=3
    )
    return generate_dataset(config, seed=77)


@pytest.fixture(scope="module")
def queries(dataset):
    return generate_queries(dataset, 4, 3, seed=3)


@pytest.fixture(scope="module")
def query_texts(queries):
    return [dumps_dataset(GraphDataset([query])) for query in queries]


@pytest.fixture(scope="module")
def service(dataset):
    svc = QueryService(dataset, methods=[METHOD], method_options=OPTIONS)
    svc.warm()
    return svc


@pytest.fixture(scope="module")
def batch_answers(dataset, queries):
    """What the batch engine answers: the identity reference."""
    index = make_method(METHOD, OPTIONS)
    index.build(as_core_dataset(dataset))
    return [answers_of([index.query(query)]) for query in queries]


# ----------------------------------------------------------------------
# metrics primitives
# ----------------------------------------------------------------------


class TestQuantile:
    def test_empty_is_zero(self):
        assert quantile([], 0.5) == 0.0

    def test_single_value(self):
        assert quantile([3.5], 0.5) == 3.5
        assert quantile([3.5], 0.99) == 3.5

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert quantile(values, 0.50) == 5.0
        assert quantile(values, 0.90) == 9.0
        assert quantile(values, 1.00) == 10.0
        assert quantile(values, 0.0) == 1.0


class TestRequestMetrics:
    def test_counts_and_latencies(self):
        metrics = RequestMetrics()
        for ms in (1.0, 2.0, 3.0):
            metrics.record(ms / 1e3)
        metrics.record(0.004, error=True)
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == 4
        assert snapshot["errors"] == 1
        assert snapshot["latency_ms"]["q50"] == pytest.approx(2.0)
        # Error latencies are counted but not sampled: KPIs describe
        # the requests that answered.
        assert snapshot["latency_ms"]["max"] == pytest.approx(3.0)
        assert snapshot["qps"] > 0

    def test_window_keeps_the_newest_samples(self, monkeypatch):
        monkeypatch.setattr(RequestMetrics, "max_samples", 3)
        metrics = RequestMetrics()
        for ms in (50.0, 40.0, 1.0, 2.0, 3.0):
            metrics.record(ms / 1e3)
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == 5
        assert snapshot["latency_ms"]["q50"] == pytest.approx(2.0)
        assert snapshot["latency_ms"]["max"] == pytest.approx(3.0)
        assert snapshot["latency_ms"]["mean"] == pytest.approx(2.0)

    def test_concurrent_recording_loses_nothing(self):
        metrics = RequestMetrics()
        threads = [
            threading.Thread(
                target=lambda: [metrics.record(0.001) for _ in range(200)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.snapshot()["requests"] == 8 * 200


# ----------------------------------------------------------------------
# the service: warm-up and identity
# ----------------------------------------------------------------------


class TestQueryService:
    def test_unknown_method_fails_at_construction(self, dataset):
        with pytest.raises(ServeError, match="unknown method"):
            QueryService(dataset, methods=["vf9"])

    def test_cold_method_is_a_serve_error(self, service):
        with pytest.raises(ServeError, match="not warm"):
            service.answer("naive", [])

    def test_answers_match_the_batch_engine(
        self, service, queries, batch_answers
    ):
        for query, expected in zip(queries, batch_answers):
            results = service.answer(METHOD, [query])
            assert answers_of(results) == expected

    def test_answer_text_round_trips_the_gfd_body(
        self, service, query_texts, batch_answers
    ):
        document = service.answer_text(METHOD, query_texts[0])
        assert document["method"] == METHOD
        assert document["count"] == 1
        assert document["answers"] == batch_answers[0]
        assert len(document["candidates"]) == 1

    def test_malformed_and_empty_workloads_fail(self, service):
        with pytest.raises(ServeError, match="malformed"):
            service.answer_text(METHOD, "not a gfd file")
        with pytest.raises(ServeError, match="empty"):
            service.answer_text(METHOD, "")

    def test_warm_is_idempotent(self, service):
        states = service.warm()
        assert set(states) == {METHOD}
        assert states[METHOD].index is service.warm()[METHOD].index

    def test_parallel_warm_matches_sequential(self, dataset, queries):
        sequential = QueryService(
            dataset, methods=["naive", METHOD], method_options=OPTIONS
        )
        sequential.warm(jobs=1)
        parallel = QueryService(
            dataset, methods=["naive", METHOD], method_options=OPTIONS
        )
        parallel.warm(jobs=2)
        for method in ("naive", METHOD):
            for query in queries:
                assert answers_of(
                    parallel.answer(method, [query])
                ) == answers_of(sequential.answer(method, [query]))

    def test_store_round_trip_serves_identical_answers(
        self, dataset, queries, batch_answers, tmp_path
    ):
        warmer = QueryService(
            dataset,
            methods=[METHOD],
            method_options=OPTIONS,
            index_store_dir=str(tmp_path / "store"),
        )
        assert not warmer.warm()[METHOD].reused
        clear_stores()  # a "restarted" daemon: fresh process-level cache
        served = QueryService(
            dataset,
            methods=[METHOD],
            method_options=OPTIONS,
            index_store_dir=str(tmp_path / "store"),
        )
        assert served.warm()[METHOD].reused
        for query, expected in zip(queries, batch_answers):
            assert answers_of(served.answer(METHOD, [query])) == expected


# ----------------------------------------------------------------------
# the HTTP face under concurrency
# ----------------------------------------------------------------------


@pytest.fixture()
def live_server(service):
    server = make_server(service, port=0)
    acceptor = threading.Thread(target=server.serve_forever)
    acceptor.start()
    host, port = server.server_address[:2]
    try:
        yield server, f"http://{host}:{port}"
    finally:
        server.shutdown()
        acceptor.join()
        server.server_close()


class TestHttpEndpoints:
    def test_healthz_reports_the_inventory(self, live_server, dataset):
        _, url = live_server
        with urllib.request.urlopen(f"{url}/healthz") as response:
            document = json.loads(response.read())
        assert document["status"] == "ok"
        assert document["graphs"] == len(dataset)
        assert METHOD in document["methods"]
        assert document["methods"][METHOD]["index_bytes"] > 0

    def test_unknown_path_is_404(self, live_server):
        _, url = live_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{url}/nope")
        assert excinfo.value.code == 404

    def test_bad_requests_are_400_not_500(self, live_server, query_texts):
        _, url = live_server
        status, document = post_query(url, "vf9", query_texts[0])
        assert status == 400
        assert "not warm" in document["error"]
        request = urllib.request.Request(
            f"{url}/query", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("path", ["/query", "/update"])
    @pytest.mark.parametrize("declared", ["abc", "-1"])
    def test_malformed_content_length_is_400(self, live_server, path, declared):
        """A non-integer length used to kill the handler (empty reply),
        a negative one to block it in ``read(-1)`` until the client gave
        up; both are the client's error, answered at once and counted."""
        server, _ = live_server
        metrics = server.metrics if path == "/query" else server.update_metrics
        errors_before = metrics.snapshot()["errors"]
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            connection.putrequest("POST", path)
            connection.putheader("Content-Length", declared)
            connection.endheaders()
            response = connection.getresponse()  # times out on a hang
            document = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "Content-Length" in document["error"]
        assert metrics.snapshot()["errors"] == errors_before + 1

    @pytest.mark.parametrize("path", ["/query", "/update"])
    def test_oversized_content_length_is_413(self, live_server, path):
        """A declared body above the cap is refused before any of it is
        read — the request sends no body at all, so a handler that tried
        to buffer the declared length would hang until the timeout."""
        from repro.core.serve import _MAX_BODY_BYTES

        server, _ = live_server
        metrics = server.metrics if path == "/query" else server.update_metrics
        errors_before = metrics.snapshot()["errors"]
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            connection.putrequest("POST", path)
            connection.putheader("Content-Length", str(_MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()  # times out on a hang
            document = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 413
        assert str(_MAX_BODY_BYTES) in document["error"]
        assert metrics.snapshot()["errors"] == errors_before + 1

    def test_concurrent_clients_get_identical_answers(
        self, live_server, query_texts, batch_answers
    ):
        _, url = live_server
        failures: list = []

        def client() -> None:
            for index, text in enumerate(query_texts):
                status, document = post_query(url, METHOD, text)
                if status != 200:
                    failures.append((index, status, document))
                elif document["answers"] != batch_answers[index]:
                    failures.append((index, "diverged", document["answers"]))

        threads = [threading.Thread(target=client) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

    def test_metrics_endpoint_counts_the_traffic(
        self, live_server, query_texts
    ):
        _, url = live_server
        before = json.loads(
            urllib.request.urlopen(f"{url}/metrics").read()
        )["requests"]
        post_query(url, METHOD, query_texts[0])
        after = json.loads(
            urllib.request.urlopen(f"{url}/metrics").read()
        )["requests"]
        assert after == before + 1


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------


SCENARIO_TEXT = """\
# a comment line
name: stress          # trailing comments too
description: mixed clients
method: ggsx
clients: 3
requests: 18
rps: 0
timeout_seconds: 10
kpi: q50_ms <= 5000
kpi: qps >= 0.5
kpi: errors <= 0
"""


class TestScenarioFormat:
    def test_parse_round_trip(self):
        scenario = parse_scenario(SCENARIO_TEXT)
        assert scenario.name == "stress"
        assert scenario.method == "ggsx"
        assert (scenario.clients, scenario.requests) == (3, 18)
        assert scenario.rps == 0.0
        assert [spec.spec() for spec in scenario.kpis] == [
            "q50_ms <= 5000",
            "qps >= 0.5",
            "errors <= 0",
        ]

    def test_defaults_apply(self):
        scenario = parse_scenario("name: minimal\n")
        assert (scenario.clients, scenario.requests) == (1, 1)
        assert scenario.timeout_seconds == 30.0
        assert scenario.kpis == ()

    def test_errors_are_loud(self):
        for bad, match in [
            ("unknown_key: 3", "unknown scenario key"),
            ("clients: many", "clients expects int"),
            ("clients: 0", "clients must be >= 1"),
            ("kpi: q50_ms < 5", "METRIC"),
            ("kpi: made_up <= 5", "unknown KPI metric"),
            ("kpi: q50_ms <= fast", "must be a number"),
            ("just words", "expected 'key: value'"),
        ]:
            with pytest.raises(ScenarioError, match=match):
                parse_scenario(bad)

    def test_kpi_evaluation(self):
        metrics = {"q50_ms": 12.0, "qps": 80.0}
        outcomes = evaluate_kpis(
            (
                KpiSpec("q50_ms", "<=", 50.0),
                KpiSpec("qps", ">=", 100.0),
            ),
            metrics,
        )
        assert [outcome.passed for outcome in outcomes] == [True, False]
        assert "PASS" in outcomes[0].render()
        assert "FAIL" in outcomes[1].render()

    def test_bench_record_shape(self):
        scenario = parse_scenario(SCENARIO_TEXT)
        result = LoadResult(
            latencies=[0.001, 0.002], errors=0, requests=2, seconds=0.5
        )
        metrics = metrics_of(result)
        record = bench_record(
            scenario, metrics, evaluate_kpis(scenario.kpis, metrics)
        )
        assert record["schema"] == "repro-serve-bench-v2"
        assert record["passed"] is True
        assert len(record["kpis"]) == 3
        json.dumps(record)  # must be JSON-able as-is


class TestLoadGenerator:
    def test_run_load_covers_the_workload(
        self, live_server, query_texts, batch_answers
    ):
        _, url = live_server
        scenario = parse_scenario(SCENARIO_TEXT)
        result = run_load(url, scenario, query_texts)
        assert result.requests == scenario.requests
        assert result.errors == 0
        assert result.divergent_queries() == []
        # 18 requests over 4 queries: every query asked, none diverged.
        assert set(result.answers_by_query) == set(range(len(query_texts)))
        for index, seen in result.answers_by_query.items():
            assert seen == [batch_answers[index]]
        metrics = metrics_of(result)
        assert metrics["requests"] == scenario.requests
        assert metrics["qps"] > 0
        assert metrics["q50_ms"] > 0
        assert metrics["q50_ms"] <= metrics["max_ms"]

    def test_rps_pacing_slows_the_run(self, live_server, query_texts):
        _, url = live_server
        scenario = parse_scenario(
            "name: paced\nmethod: ggsx\nclients: 2\nrequests: 6\nrps: 50\n"
        )
        result = run_load(url, scenario, query_texts)
        # 6 requests at 50 req/s: the last is scheduled at t=100ms.
        assert result.seconds >= 0.1
        assert result.errors == 0

    def test_divergence_detection(self):
        result = LoadResult()
        result.record_answers(0, [[1, 2]])
        result.record_answers(0, [[1, 2]])
        result.record_answers(1, [[1, 2]])
        result.record_answers(1, [[1, 3]])
        assert result.divergent_queries() == [1]

    def test_unreachable_daemon_counts_errors(self, query_texts):
        scenario = parse_scenario(
            "name: down\nmethod: ggsx\nrequests: 2\ntimeout_seconds: 1\n"
        )
        # A port from the ephemeral range nothing listens on.
        result = run_load("http://127.0.0.1:9", scenario, query_texts)
        assert result.errors == result.requests == 2
        assert result.latencies == []


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------


class TestGracefulShutdown:
    def test_run_server_drains_and_returns_zero(self, service, query_texts):
        server = make_server(service, port=0)
        host, port = server.server_address[:2]
        stop = threading.Event()
        announced: list[str] = []
        codes: list[int] = []
        runner = threading.Thread(
            target=lambda: codes.append(
                run_server(
                    server,
                    announce=announced.append,
                    install_signals=False,
                    shutdown_event=stop,
                )
            )
        )
        runner.start()
        url = f"http://{host}:{port}"
        status, _ = post_query(url, METHOD, query_texts[0])
        assert status == 200
        stop.set()
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert codes == [0]
        assert any("serving on" in line for line in announced)
        assert any("served 1 request" in line for line in announced)
        # The socket is released: nothing answers any more.
        status, _ = post_query(url, METHOD, query_texts[0], timeout=2)
        assert status == 0


# ----------------------------------------------------------------------
# the thread-safe store LRU (the concurrency bug this PR fixes)
# ----------------------------------------------------------------------


def _toy_artifact(tag: int) -> IndexArtifact:
    header = ArtifactHeader(
        method="naive",
        index_params=(("tag", tag),),
        dataset_digest=tag,
        num_graphs=1,
        provenance=ArtifactProvenance(build_seconds=0.0, size_bytes=8),
    )
    return IndexArtifact(header=header, payload=tag)


class TestConcurrentStore:
    def test_stampede_keeps_the_lru_bounded(self):
        slots = 8
        store = IndexStore(root=None, memory_items=slots)
        artifacts = [_toy_artifact(tag) for tag in range(32)]
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def worker(seed: int) -> None:
            try:
                barrier.wait()
                for step in range(300):
                    artifact = artifacts[(seed * 7 + step) % len(artifacts)]
                    if step % 3 == 0:
                        store.put(artifact)
                    else:
                        found = store.get(
                            "naive",
                            dict(artifact.header.index_params),
                            artifact.header.dataset_digest,
                        )
                        if found is not None:
                            assert found.payload == artifact.payload
                    assert len(store) <= slots
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(store) <= slots
        assert store.stats.puts > 0
        assert store.stats.memory_hits + store.stats.misses > 0

    def test_concurrent_disk_writers_race_harmlessly(self, tmp_path):
        store = IndexStore(root=tmp_path / "store", memory_items=4)
        artifact = _toy_artifact(1)
        threads = [
            threading.Thread(target=lambda: store.put(artifact))
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.get("naive", {"tag": 1}, 1).payload == 1
        assert len(list((tmp_path / "store").glob("*.idx"))) == 1


# ----------------------------------------------------------------------
# dynamic datasets: POST /update (PR 8)
# ----------------------------------------------------------------------


@pytest.fixture()
def mutable_server(dataset):
    """A private service + live server: update tests mutate state, so
    they must not share the module-scoped fixtures."""
    svc = QueryService(dataset, methods=[METHOD], method_options=OPTIONS)
    svc.warm()
    server = make_server(svc, port=0)
    acceptor = threading.Thread(target=server.serve_forever)
    acceptor.start()
    host, port = server.server_address[:2]
    try:
        yield svc, server, f"http://{host}:{port}"
    finally:
        server.shutdown()
        acceptor.join()
        server.server_close()


def post_raw_update(url, body):
    request = urllib.request.Request(
        f"{url}/update",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestUpdateEndpoint:
    def added_text(self, seed=123):
        extra = generate_dataset(
            GraphGenConfig(
                num_graphs=2, mean_nodes=8, mean_density=0.3, num_labels=3
            ),
            seed=seed,
            name="delta",
        )
        return dumps_dataset(extra), list(extra)

    def test_update_changes_the_inventory(self, mutable_server, dataset):
        svc, _, url = mutable_server
        text, graphs = self.added_text()
        status, document = post_raw_update(
            url, {"add": text, "remove": [0, 3]}
        )
        assert status == 200
        assert document["graphs"] == len(dataset) - 2 + len(graphs)
        assert document["added"] == len(graphs)
        assert document["removed"] == 2
        assert document["methods"][METHOD]["maintenance"] in (
            "incremental",
            "rebuild",
        )
        with urllib.request.urlopen(f"{url}/healthz") as response:
            health = json.loads(response.read())
        assert health["graphs"] == document["graphs"]
        assert svc.updates_applied == 1

    def test_post_update_answers_match_cold_batch_build(
        self, mutable_server, dataset, queries
    ):
        from repro.graphs.dataset import DatasetDelta, apply_delta

        _, _, url = mutable_server
        text, graphs = self.added_text(seed=321)
        status, _ = post_raw_update(url, {"add": text, "remove": [1]})
        assert status == 200
        after = apply_delta(
            dataset, DatasetDelta(added=tuple(graphs), removed=(1,))
        )
        cold = make_method(METHOD, OPTIONS)
        cold.build(as_core_dataset(after))
        for query, text in zip(
            queries, [dumps_dataset(GraphDataset([q])) for q in queries]
        ):
            status, document = post_query(url, METHOD, text)
            assert status == 200
            assert document["answers"] == answers_of([cold.query(query)])

    def test_metrics_gain_update_counters(self, mutable_server):
        _, _, url = mutable_server
        with urllib.request.urlopen(f"{url}/metrics") as response:
            before = json.loads(response.read())
        assert before["staleness"] == 0
        assert before["updates_applied"] == 0
        assert before["updates"]["requests"] == 0
        text, _ = self.added_text()
        status, _ = post_raw_update(url, {"add": text})
        assert status == 200
        with urllib.request.urlopen(f"{url}/metrics") as response:
            after = json.loads(response.read())
        assert after["staleness"] == 0  # nothing in flight
        assert after["updates_applied"] == 1
        assert after["updates"]["requests"] == 1
        assert after["updates"]["errors"] == 0
        # Maintenance latency must not pollute the query quantiles.
        assert after["requests"] == before["requests"]

    def test_bad_updates_are_400(self, mutable_server, dataset):
        _, _, url = mutable_server
        status, document = post_raw_update(url, {})
        assert status == 400
        assert "error" in document
        status, document = post_raw_update(
            url, {"remove": [len(dataset) + 5]}
        )
        assert status == 400
        assert "error" in document
        status, document = post_raw_update(url, {"remove": "nope"})
        assert status == 400
        status, document = post_raw_update(url, {"add": "not a gfd {"})
        assert status == 400

    def test_concurrent_queries_during_updates_stay_coherent(
        self, mutable_server, query_texts
    ):
        """Queries racing an update see either the old or the new
        dataset's answers — never an error, never a torn state."""
        _, _, url = mutable_server
        failures: list = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                status, document = post_query(url, METHOD, query_texts[0])
                if status != 200:
                    failures.append((status, document))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for seed in range(3):
                text, _ = self.added_text(seed=seed)
                status, document = post_raw_update(url, {"add": text})
                assert status == 200
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert failures == []


class TestMixedLoad:
    def test_run_load_interleaves_updates(self, mutable_server, query_texts):
        from repro.core.loadgen import Scenario

        svc, _, url = mutable_server
        extra = generate_dataset(
            GraphGenConfig(
                num_graphs=4, mean_nodes=6, mean_density=0.3, num_labels=3
            ),
            seed=9,
            name="pool",
        )
        update_texts = [dumps_dataset(GraphDataset([g])) for g in extra]
        scenario = Scenario(
            name="mixed",
            method=METHOD,
            clients=3,
            requests=24,
            update_every=6,
        )
        result = run_load(url, scenario, query_texts, update_texts)
        assert result.update_errors == 0
        assert result.updates >= 1
        assert result.updates == svc.updates_applied
        assert len(result.update_latencies) == result.updates
        metrics = metrics_of(result)
        assert metrics["updates"] == result.updates
        assert metrics["update_q50_ms"] > 0

    def test_update_every_requires_update_texts(self, query_texts):
        from repro.core.loadgen import Scenario, ScenarioError

        scenario = Scenario(
            name="mixed", method=METHOD, clients=1, requests=4, update_every=2
        )
        with pytest.raises(ScenarioError):
            run_load("http://127.0.0.1:1", scenario, query_texts, None)
