"""The online user's workloads: a ``repro serve`` daemon under closed-loop load.

The daemon is a separate ``python -m repro serve`` process with default
method options; the load comes from this process through
``repro.core.loadgen.run_load`` with two client threads and ``rps: 0``
— each client sends its next request when the previous reply arrives.
``serve_read`` only queries; ``serve_mixed`` posts a dataset update in
every hundredth request slot, so queries stall behind index
maintenance on the same lock, store and layers.
"""

from __future__ import annotations

import gc
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field

import adapters
from adapters import probe
from harness import Check, Round, Workload, nearest_rank

__all__ = ["ServeWorkload"]

METHOD = "grapes"
CLIENTS = 2
SIZES = (4, 8, 16)
#: Updates per round of ``serve_mixed``; one round is that many times
#: ``update_every`` request slots.
UPDATES_PER_ROUND = 2


def peak_kb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``) in kB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def daemon_environment() -> dict[str, str]:
    """The child's environment: no ``REPRO_*`` knob, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(adapters.SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


@dataclass
class ServeWorkload(Workload):
    mixed: bool = False
    daemon: subprocess.Popen | None = None
    url: str = ""
    exit_codes: list[int] = field(default_factory=list)
    results: list = field(default_factory=list)
    updates_sent: int = 0
    updates_applied: int = 0
    server_metrics: dict = field(default_factory=dict)

    # -- shapes ----------------------------------------------------------

    def config(self, graphs: int):
        return adapters.uniform_graphs(graphs, nodes=24, density=0.12, labels=6)

    def num_graphs(self) -> int:
        return 20 if self.quick else 100

    def queries_per_size(self) -> int:
        return 10 if self.quick else 200

    def update_every(self) -> int:
        """Request slots from one update to the next (loadgen's knob)."""
        return 20 if self.quick else 100

    def round_requests(self) -> int:
        if self.mixed:
            return UPDATES_PER_ROUND * self.update_every()
        return 100 if self.quick else 500

    # -- daemon lifecycle ------------------------------------------------

    def spawn(self, store) -> tuple[subprocess.Popen, str]:
        """Start ``python -m repro serve`` and wait for its address line."""
        daemon = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                str(self.tmp_dir / "data.gfd"),
                "--method", METHOD,
                "--index-store", str(store),
                "--port", "0",
            ],
            env=daemon_environment(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        lines = []
        try:
            for line in daemon.stdout:
                lines.append(line)
                found = re.search(r"serving on (http://\S+)", line)
                if found:
                    return daemon, found.group(1)
            raise RuntimeError("daemon exited before serving:\n" + "".join(lines))
        except BaseException:
            daemon.kill()
            daemon.wait()
            raise

    def stop(self, daemon: subprocess.Popen) -> int:
        """SIGTERM, wait for the drain, kill after 10 s; the exit code."""
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
            try:
                daemon.wait(timeout=10)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
        daemon.stdout.close()
        return daemon.returncode

    def get_json(self, path: str) -> dict:
        with urllib.request.urlopen(f"{self.url}{path}", timeout=30) as response:
            return json.loads(response.read().decode("utf-8"))

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        trace = self.tracer
        tmp = self.make_tmp_dir()
        self.dataset = trace.call(
            "generators.dataset",
            adapters.generate_dataset, self.config(self.num_graphs()), seed=self.seed,
        )
        adapters.write_dataset(self.dataset, tmp / "data.gfd")
        per_size = [
            trace.call(
                "generators.queries",
                adapters.generate_queries,
                self.dataset, self.queries_per_size(), size, seed=self.seed + size,
            )
            for size in SIZES
        ]
        self.raw_queries = [query for group in zip(*per_size) for query in group]
        # One request = one single-query workload, so every answer maps
        # back to exactly one query.
        self.texts = [
            adapters.dumps_dataset(adapters.GraphDataset([query]))
            for query in self.raw_queries
        ]
        self.update_graphs = list(
            adapters.generate_dataset(self.config(24), seed=self.seed + 1000)
        )
        self.update_texts = [
            adapters.dumps_dataset(adapters.GraphDataset([graph]))
            for graph in self.update_graphs
        ]
        started = time.perf_counter()
        with trace.span("serve.warm_cold"):
            self.daemon, self.url = self.spawn(tmp / "store")
        self.build_seconds.append(time.perf_counter() - started)
        self.index_bytes = self.get_json("/healthz")["methods"][METHOD]["index_bytes"]
        # Warm-up, discarded: every distinct body once, so the daemon's
        # admission cache (1024 entries) holds the whole working set.
        self.load(len(self.texts))

    def load(self, requests: int, update_texts=None):
        scenario = adapters.Scenario(
            name=self.name,
            method=METHOD,
            clients=CLIENTS,
            requests=requests,
            rps=0.0,
            update_every=self.update_every() if update_texts else 0,
        )
        return adapters.run_load(self.url, scenario, self.texts, update_texts)

    def teardown(self) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is not None:
            try:
                self.server_metrics = self.get_json("/metrics")
                self.daemon_rss_kb = max(self.daemon_rss_kb, peak_kb(daemon.pid))
            except OSError:
                pass  # a dead daemon shows up as a non-zero exit code
            finally:
                self.exit_codes.append(self.stop(daemon))
        super().teardown()

    # -- the timed phase -------------------------------------------------

    def measure(self, seconds: float) -> None:
        gc.collect()
        deadline = time.perf_counter() + seconds
        while True:
            pool = None
            if self.mixed:
                pool = self.update_texts[
                    self.updates_sent : self.updates_sent + UPDATES_PER_ROUND
                ]
                if len(pool) < UPDATES_PER_ROUND:
                    break  # every seeded update is applied
                self.updates_sent += UPDATES_PER_ROUND
            result = self.tracer.call(
                "loadgen.run_load", self.load, self.round_requests(), pool
            )
            self.results.append(result)
            self.rounds.append(
                Round(
                    [latency * 1e3 for latency in result.latencies],
                    len(result.latencies),
                    result.seconds,
                )
            )
            self.failed_operations += result.errors + result.update_errors
            self.updates_applied += result.updates
            if time.perf_counter() >= deadline and len(self.rounds) >= self.min_rounds():
                break

    # -- correctness -----------------------------------------------------

    def batch_answers(self, dataset) -> list[list[int]]:
        """What the batch engine answers in this process over *dataset*."""
        index = adapters.make_method(METHOD)
        index.build(adapters.as_core_dataset(dataset))
        return [
            sorted(index.query(adapters.as_core_query(query)).answers)
            for query in self.raw_queries
        ]

    def check(self) -> list[Check]:
        requests = sum(result.requests for result in self.results)
        checks = [
            Check(
                "responses-200",
                requests + self.updates_sent,
                self.failed_operations,
            )
        ]
        if self.mixed:
            checks.append(
                Check(
                    "updates-applied",
                    self.updates_sent,
                    self.updates_sent - self.updates_applied,
                )
            )
            final = adapters.GraphDataset(
                [*self.dataset, *self.update_graphs[: self.updates_sent]]
            )
            truth = self.batch_answers(final)
            # Re-ask every query now that the dataset has stopped moving.
            wrong = 0
            for text, expected in zip(self.texts, truth):
                status, document = adapters.post_query(self.url, METHOD, text)
                wrong += status != 200 or document.get("answers") != [expected]
            checks.append(Check("final-answers-equal-cold-build", len(truth), wrong))
        else:
            truth = self.batch_answers(self.dataset)
            seen: dict[int, list] = {}
            for result in self.results:
                for query_index, answers in result.answers_by_query.items():
                    seen.setdefault(query_index, []).extend(answers)
            checks.append(
                Check(
                    "responses-equal-batch-engine",
                    len(seen),
                    sum(
                        any(answers != [truth[query_index]] for answers in observed)
                        for query_index, observed in seen.items()
                    ),
                )
            )
        self.teardown()  # stops the daemon; its exit code is a check
        applied = self.server_metrics.get("updates_applied", -1)
        checks.append(
            Check("server-update-count", 1, int(applied != self.updates_sent))
        )
        checks.append(
            Check(
                "daemon-drains-and-exits-0",
                len(self.exit_codes),
                sum(code != 0 for code in self.exit_codes),
            )
        )
        return checks

    # -- the traced pass -------------------------------------------------

    def per_layer(self, seconds: float) -> dict[str, float]:
        trace = self.tracer
        # One read-only round with the tracer off, one with it on.
        trace.enabled = False
        untraced = self.load(self.round_requests())
        trace.enabled = True
        traced = trace.call("loadgen.read_round", self.load, self.round_requests())
        cpu_started, wall_started = time.process_time(), time.perf_counter()
        self.measure(seconds / 2)
        cpu = time.process_time() - cpu_started
        wall = time.perf_counter() - wall_started
        latencies = sorted(self.latencies_ms())
        median = nearest_rank(latencies, 0.50)
        values = {
            "trace_overhead_ratio": (traced.seconds / traced.requests)
            / (untraced.seconds / untraced.requests)
            - 1.0,
            "generators.dataset_s": trace.total("generators.dataset"),
            "generators.queries_s": trace.total("generators.queries"),
            "serve.warm_cold_s": trace.total("serve.warm_cold"),
            "loadgen.cpu_share": cpu / wall,
            "serve.client_p99_ms": nearest_rank(latencies, 0.99),
            "serve.stalled_queries": sum(ms > 10 * median for ms in latencies),
            "serve.stall_ms_max": latencies[-1],
        }

        # One client, one request at a time: what the engine reports it
        # spent, against what a loaded client waits for.
        engine = []
        for text in self.probe_sample():
            status, document = trace.call(
                "serve.request", adapters.post_query, self.url, METHOD, text
            )
            if status == 200:
                engine.append(document["seconds"] * 1e3)
        values["serve.engine_ms_p50"] = statistics.median(engine)
        # HTTP, JSON, admission, and queueing behind the other client.
        values["serve.http_overhead_ms_p50"] = median - statistics.median(engine)

        if self.mixed:
            self.guarded(
                tuple(
                    f"serve.update.{name}"
                    for name in (
                        "client_ms_p50", "engine_ms_p50", "overhead_ms_p50",
                        "incremental_ratio",
                    )
                ),
                self.probe_updates, values,
            )
            self.guarded(("graphs.apply_delta_ms",), self.probe_apply_delta, values)
        metrics = self.get_json("/metrics")
        cache = metrics["query_cache"]
        values["serve.server_q50_ms"] = metrics["latency_ms"]["q50"]
        values["serve.cache_hit_ratio"] = cache["hits"] / max(
            1, cache["hits"] + cache["misses"]
        )
        values["serve.rss_mb"] = peak_kb(self.daemon.pid) * 1024 / 1e6
        self.guarded(("graphs.gfd_parse_us",), self.probe_parse, values)
        self.guarded(("serve.inproc_answer_ms_p50",), self.probe_in_process, values)

        # A second daemon over the now-warm store: start-up without builds.
        with trace.span("serve.warm_reuse"):
            second, _ = self.spawn(self.tmp_dir / "store")
        self.exit_codes.append(self.stop(second))
        values["serve.warm_reuse_s"] = trace.total("serve.warm_reuse")
        with trace.span("cli.startup"):
            subprocess.run(
                [sys.executable, "-m", "repro", "--help"],
                env=daemon_environment(), stdout=subprocess.DEVNULL, check=True,
            )
        values["cli.startup_s"] = trace.total("cli.startup")
        return values

    def probe_sample(self) -> list[str]:
        """The request bodies the one-at-a-time probes go through."""
        return self.texts[: 60 if self.quick else 300]

    def probe_updates(self) -> dict:
        """Post the next seeded updates one by one and split their cost."""
        post_update = probe("repro.core.loadgen:post_update")
        engine, incremental = [], 0
        for text in self.update_texts[self.updates_sent : self.updates_sent + 4]:
            status, document = self.tracer.call(
                "serve.update", post_update, self.url, text
            )
            self.updates_sent += 1
            if status == 200:
                self.updates_applied += 1
                outcome = document["methods"][METHOD]
                engine.append(outcome["seconds"] * 1e3)
                incremental += outcome["maintenance"] == "incremental"
        client = statistics.median(self.tracer.durations("serve.update")) * 1e3
        return {
            "serve.update.client_ms_p50": client,
            "serve.update.engine_ms_p50": statistics.median(engine),
            "serve.update.overhead_ms_p50": client - statistics.median(engine),
            "serve.update.incremental_ratio": incremental / len(engine),
        }

    def probe_apply_delta(self) -> dict:
        apply_delta = probe("repro.graphs.dataset:apply_delta")
        delta = probe("repro.graphs.dataset:DatasetDelta")
        core = adapters.as_core_dataset(self.dataset)
        for graph in self.update_graphs[:8]:
            self.tracer.call(
                "graphs.apply_delta", apply_delta, core, delta(added=(graph,))
            )
        return {
            "graphs.apply_delta_ms": statistics.median(
                self.tracer.durations("graphs.apply_delta")
            )
            * 1e3
        }

    def probe_parse(self) -> dict:
        loads = probe("repro.graphs.io:loads_dataset")
        sample = self.probe_sample()
        with self.tracer.span("graphs.gfd_parse"):
            for text in sample:
                loads(text)
        return {
            "graphs.gfd_parse_us": self.tracer.total("graphs.gfd_parse")
            / len(sample)
            * 1e6
        }

    def probe_in_process(self) -> dict:
        """The service under HTTP, called directly: admit and answer."""
        service = probe("repro.core.serve:QueryService")(self.dataset, methods=[METHOD])
        service.warm()
        for text in self.probe_sample():
            self.tracer.call("serve.inproc_answer", service.answer_text, METHOD, text)
        return {
            "serve.inproc_answer_ms_p50": statistics.median(
                self.tracer.durations("serve.inproc_answer")
            )
            * 1e3
        }
