"""The online query tier: a long-lived daemon answering subgraph queries.

Everything before this module is *offline*: ``repro sweep``/``launch``
reproduce the paper's figures as batch jobs and exit.  The production
systems this reproduction models (and the ROADMAP's north star — heavy
traffic from many concurrent clients) face the opposite shape: indexes
are built **once**, kept hot, and amortized over an unbounded query
stream.  This module is that tier:

* A :class:`QueryService` loads one dataset, warms one built index per
  method — served from the content-addressed artifact store
  (:mod:`repro.indexes.store`) when a matching build exists, built
  fresh (and written through) otherwise — and answers query workloads
  from concurrent callers.  Warm-up can fan the per-method builds out
  across the persistent pool's workers (``jobs > 1``), shipping the
  built structures back as artifacts.
* A :class:`ReproHTTPServer` (stdlib ``ThreadingHTTPServer``; no
  framework dependency) exposes the service over three endpoints:
  ``GET /healthz`` (liveness + warm-index inventory), ``GET /metrics``
  (request counts, QPS, latency quantiles), and ``POST /query``
  (a ``.gfd`` query workload in, per-query answer id lists out).
* :func:`run_server` owns the daemon lifecycle: SIGTERM/SIGINT flip a
  shutdown event, the accept loop stops, **in-flight requests drain**
  (``block_on_close``, non-daemon request threads), the persistent
  pool closes (idempotently — the ``atexit`` hook fires later on the
  same, now no-op, path), and the process exits 0.

Answer identity is the load-bearing contract, exactly as byte-identity
is for the offline engine: a query answered by the daemon returns the
same sorted answer-id lists as ``repro query`` over the same artifacts.
Methods whose indexes mutate at query time (Tree+Δ adopts features of
failed queries) are serialized per method behind an ``RLock``, so
concurrency can reorder *across* methods but never interleave inside
one index — the store's memory tiers are themselves lock-guarded for
the same reason.
"""

from __future__ import annotations

import hashlib
import json
import math
import signal
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.runner import make_method
from repro.graphs.csr import as_core_dataset, as_core_query
from repro.graphs.dataset import (
    DatasetDelta,
    GraphDataset,
    apply_delta,
    dataset_fingerprint,
    delta_fingerprint,
)
from repro.graphs.graph import GraphError
from repro.graphs.io import loads_dataset
from repro.indexes import ALL_INDEX_CLASSES

__all__ = [
    "MethodState",
    "QueryService",
    "RequestMetrics",
    "ReproHTTPServer",
    "ServeError",
    "answers_of",
    "make_server",
    "quantile",
    "run_server",
]


class ServeError(RuntimeError):
    """A service that cannot warm up or answer (bad method, bad query)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        #: The HTTP status the daemon answers this failure with.
        self.status = status


#: Largest request body the daemon reads; a larger declared
#: ``Content-Length`` is a 413 before a single body byte is buffered.
_MAX_BODY_BYTES = 64 * 1024 * 1024


# ----------------------------------------------------------------------
# request metrics: what /metrics reports and the load generator asserts
# ----------------------------------------------------------------------


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted sample (0 on empty).

    Nearest-rank (not interpolated) so the reported q50 is a latency
    that actually happened — the convention of the redisgraph-benchmark
    harnesses whose KPI format the load generator mirrors.
    """
    if not sorted_values:
        return 0.0
    if q <= 0.0:
        return sorted_values[0]
    # 1-based nearest rank is ceil(q * n); clamp for q > 1.
    rank = min(len(sorted_values), math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class RequestMetrics:
    """Thread-safe recorder of per-request latencies and errors.

    Every request thread of the daemon records into one instance; the
    lock makes the append + counter increments atomic.  ``snapshot``
    computes QPS over the service's lifetime and nearest-rank latency
    quantiles — the exact quantities ``repro bench serve`` asserts KPIs
    against server-side.
    """

    #: Retain at most this many latencies (newest win); quantiles over
    #: an unbounded daemon lifetime would otherwise grow without limit.
    max_samples = 100_000

    def __init__(self, clock=time.perf_counter) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._started = clock()
        self._latencies: deque[float] = deque(maxlen=self.max_samples)
        self._requests = 0
        self._errors = 0

    def record(self, seconds: float, error: bool = False) -> None:
        with self._lock:
            self._requests += 1
            if error:
                self._errors += 1
            else:
                self._latencies.append(seconds)

    def snapshot(self) -> dict:
        """Current counters and latency quantiles, as a JSON-able dict."""
        with self._lock:
            uptime = max(self._clock() - self._started, 1e-9)
            latencies = sorted(self._latencies)
            requests = self._requests
            errors = self._errors
        return {
            "requests": requests,
            "errors": errors,
            "uptime_seconds": uptime,
            "qps": requests / uptime,
            "latency_ms": {
                "q50": quantile(latencies, 0.50) * 1e3,
                "q90": quantile(latencies, 0.90) * 1e3,
                "q99": quantile(latencies, 0.99) * 1e3,
                "mean": (sum(latencies) / len(latencies) * 1e3)
                if latencies
                else 0.0,
                "max": (latencies[-1] * 1e3) if latencies else 0.0,
            },
        }


# ----------------------------------------------------------------------
# the service: one dataset, warm indexes, locked answering
# ----------------------------------------------------------------------


@dataclass(slots=True)
class MethodState:
    """One warm index plus the lock serializing queries through it."""

    index: object
    #: Tree+Δ mutates its Δ table per query; every method answers under
    #: its own lock so concurrent clients cannot interleave inside one
    #: index structure (methods still answer in parallel to each other).
    lock: threading.RLock = field(default_factory=threading.RLock)
    build_seconds: float = 0.0
    index_bytes: int = 0
    reused: bool = False
    artifact: str = ""


def answers_of(results) -> list[list[int]]:
    """Per-query sorted answer-id lists — the identity-bearing payload.

    The exact reduction ``repro query`` applies before comparing
    methods (``tuple(tuple(sorted(r.answers)))``), as JSON-able lists:
    a daemon answer and a batch answer for the same query must be
    **equal element for element**.
    """
    return [sorted(result.answers) for result in results]


def _warm_worker(payload: tuple) -> tuple:
    """Warm-up task: build (or fetch) one method — ``(method, index,
    artifact, reused)``.

    Top-level for pickling.  In a pool worker the heavy structure
    crosses back as an :class:`~repro.indexes.store.IndexArtifact` only
    (``index`` is ``None``: a built index holds its dataset) — the same
    contract the offline engine reuses builds through — and the parent
    materializes it against its own dataset instance; in-process the
    built index itself is kept.
    """
    from repro.core.arena import cached_dataset
    from repro.indexes.store import (
        artifact_from_index,
        fetch_or_build,
        shared_store,
    )

    dataset, method, options, digest, store_dir, reuse, in_process = payload
    index, artifact, reused = fetch_or_build(
        make_method(method, options),
        cached_dataset(dataset),
        shared_store(store_dir) if store_dir else None,
        digest,
        reuse,
    )
    if artifact is None:  # built without a store to write through to
        artifact = artifact_from_index(index, digest)
    return method, index if in_process else None, artifact, reused


class QueryService:
    """Warm indexes over one dataset, answering concurrent workloads.

    Parameters
    ----------
    dataset:
        The data-graph collection queries run against (converted to
        CSR once, here, so every request thread shares the same
        immutable structures).
    methods:
        Method names to warm (default: the full roster).
    method_options:
        ``--option`` map; each method receives the subset its
        constructor accepts, like ``repro query``.
    index_store_dir / reuse_indexes:
        The content-addressed artifact store to serve builds from (and
        write fresh builds to).  ``reuse_indexes=False`` forces fresh
        builds, still written through.
    """

    def __init__(
        self,
        dataset: GraphDataset,
        methods: list[str] | None = None,
        method_options: dict | None = None,
        index_store_dir: str | None = None,
        reuse_indexes: bool = True,
        name: str = "",
    ) -> None:
        self.dataset = as_core_dataset(dataset)
        self.name = name or getattr(dataset, "name", "") or "dataset"
        self.methods = list(methods) if methods else list(ALL_INDEX_CLASSES)
        for method in self.methods:
            if method not in ALL_INDEX_CLASSES:
                known = ", ".join(ALL_INDEX_CLASSES)
                raise ServeError(
                    f"unknown method {method!r}; expected one of {known}"
                )
        self.method_options = dict(method_options or {})
        self.index_store_dir = index_store_dir
        self.reuse_indexes = reuse_indexes
        self.dataset_digest = dataset_fingerprint(self.dataset)
        self._states: dict[str, MethodState] = {}
        #: Serializes whole-service updates: one delta swaps every
        #: method's index and then the dataset, atomically with respect
        #: to other updates (queries serialize per method as usual).
        self._update_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending_updates = 0
        self.updates_applied = 0
        #: Parsed + CSR-converted query workloads, keyed by content
        #: digest of the request text: repeated workloads (the shape of
        #: real query traffic, and of the load generator) skip both the
        #: ``.gfd`` parse and the per-query CSR conversion.
        self._query_cache: OrderedDict[str, tuple] = OrderedDict()
        self._query_cache_lock = threading.Lock()
        self.query_cache_hits = 0
        self.query_cache_misses = 0

    #: Bound on cached parsed workloads (newest win); an unbounded
    #: daemon lifetime of distinct queries must not grow memory.
    query_cache_max_entries = 1024

    # -- warm-up -------------------------------------------------------

    def _options_for(self, method: str) -> dict:
        import inspect

        accepted = inspect.signature(
            ALL_INDEX_CLASSES[method].__init__
        ).parameters
        return {
            key: value
            for key, value in self.method_options.items()
            if key in accepted
        }

    def warm(self, jobs: int | None = 1) -> dict[str, MethodState]:
        """Build or fetch every method's index; the daemon's startup.

        ``jobs > 1`` fans the builds out across the persistent pool's
        workers through a shared-memory arena (one dataset segment, not
        one pickle per method); built structures come back as store
        artifacts and are materialized against this process's dataset.
        Sequential warm-up (the default) runs the same tasks in-process
        and keeps the built indexes.
        """
        from repro.core.arena import DatasetArena
        from repro.core.parallel import ParallelRunner, persistent_pool
        from repro.indexes.store import materialize_artifact

        pending = [m for m in self.methods if m not in self._states]
        if not pending:
            return self._states
        # --jobs convention: None = all cores, 1 = sequential.
        parallel = (jobs is None or jobs > 1) and len(pending) > 1
        # Not persistent_pool().runner(1): that would close a live pool
        # of another size under whoever owns it.
        runner = persistent_pool().runner(jobs) if parallel else ParallelRunner(jobs=1)
        arena = DatasetArena.create(self.dataset) if parallel else None
        try:
            tasks = [
                (
                    self.dataset if arena is None else arena.handle,
                    method,
                    self._options_for(method),
                    self.dataset_digest,
                    self.index_store_dir,
                    self.reuse_indexes,
                    not parallel,
                )
                for method in pending
            ]
            outcomes = runner.map(_warm_worker, tasks)
        finally:
            if arena is not None:
                arena.close()
        for method, index, artifact, reused in outcomes:
            if index is None:
                index = materialize_artifact(artifact, self.dataset)
            self._install(method, index, artifact, reused)
        return self._states

    def _install(self, method: str, index, artifact, reused: bool) -> None:
        provenance = artifact.provenance
        self._states[method] = MethodState(
            index=index,
            build_seconds=provenance.build_seconds,
            index_bytes=provenance.size_bytes,
            reused=reused,
            artifact=artifact.address,
        )

    # -- answering -----------------------------------------------------

    def answer(self, method: str, queries) -> list:
        """Run *queries* through one warm index, serialized per method.

        Returns the per-query :class:`~repro.indexes.base.QueryResult`
        list in query order.  Raises :class:`ServeError` for a method
        the service does not hold — the daemon's 400, never a silent
        fallback to a cold build mid-request.
        """
        state = self._states.get(method)
        if state is None:
            warm = ", ".join(self._states) or "none"
            raise ServeError(
                f"method {method!r} is not warm on this service "
                f"(warm: {warm})"
            )
        with state.lock:
            return [state.index.query(query) for query in queries]

    def _admitted_queries(self, gfd_text: str) -> tuple:
        """Parse + CSR-convert a request body, content-digest cached.

        Admission happens once per distinct request text: the parsed
        workload is converted to CSR and memoized under a digest of the
        body, so a repeated query — the common case for real traffic
        and for the load generator — costs one hash instead of a
        ``.gfd`` parse plus per-query CSR conversion.  The cached graphs
        are immutable, so sharing one tuple across request threads is
        safe.
        """
        key = hashlib.blake2b(
            gfd_text.encode("utf-8"), digest_size=16
        ).hexdigest()
        with self._query_cache_lock:
            cached = self._query_cache.get(key)
            if cached is not None:
                self._query_cache.move_to_end(key)
                self.query_cache_hits += 1
                return cached
            self.query_cache_misses += 1
        try:
            workload = loads_dataset(gfd_text, name="request")
        except GraphError as exc:
            raise ServeError(f"malformed query workload: {exc}")
        queries = tuple(as_core_query(query) for query in workload)
        if not queries:
            raise ServeError("empty query workload")
        with self._query_cache_lock:
            self._query_cache[key] = queries
            self._query_cache.move_to_end(key)
            while len(self._query_cache) > self.query_cache_max_entries:
                self._query_cache.popitem(last=False)
        return queries

    def answer_text(self, method: str, gfd_text: str) -> dict:
        """Answer a ``.gfd``-formatted workload: the HTTP body contract.

        Returns the JSON-able response document: per-query sorted
        answer ids (the identity payload), candidate counts, and the
        measured query seconds.
        """
        queries = self._admitted_queries(gfd_text)
        results = self.answer(method, queries)
        return {
            "method": method,
            "count": len(results),
            "answers": answers_of(results),
            "candidates": [len(r.candidates) for r in results],
            "seconds": sum(r.total_seconds for r in results),
        }

    # -- dynamic updates ----------------------------------------------

    @property
    def staleness(self) -> int:
        """Updates accepted by the daemon but not yet applied.

        The ``/metrics`` gauge the CI mixed read/write leg watches: it
        rises while an update is queued or in flight and returns to 0
        once every warm index reflects the latest dataset.
        """
        with self._pending_lock:
            return self._pending_updates

    def note_pending_update(self, step: int) -> None:
        with self._pending_lock:
            self._pending_updates += step

    def update(self, delta: DatasetDelta) -> dict:
        """Apply *delta* to the dataset and every warm index, atomically.

        Each method's index is brought up to date through its
        ``update()`` contract (incremental where the method supports it,
        rebuild otherwise) — producing, by contract, exactly the index a
        cold build over the post-delta dataset would.  Updated artifacts
        are written through to the store twice: once at their lineage
        address (derived from the parent artifact and the delta digest,
        for ``repro index ls`` derivation chains) and once re-addressed
        as a cold build, so future cold starts over the new dataset
        reuse them.
        """
        from repro.indexes.store import (
            artifact_from_index,
            shared_store,
            strip_lineage,
        )

        with self._update_lock:
            try:
                new_dataset = as_core_dataset(apply_delta(self.dataset, delta))
            except (ValueError, TypeError) as exc:
                raise ServeError(f"bad delta: {exc}")
            new_digest = dataset_fingerprint(new_dataset)
            ddigest = delta_fingerprint(delta)
            store = (
                shared_store(self.index_store_dir)
                if self.index_store_dir
                else None
            )
            summary: dict[str, dict] = {}
            for method, state in self._states.items():
                with state.lock:
                    report = state.index.update(delta, new_dataset=new_dataset)
                    artifact = artifact_from_index(
                        state.index,
                        new_digest,
                        parent=state.artifact,
                        delta_digest=ddigest,
                    )
                    if store is not None:
                        store.put(artifact)
                        store.put(strip_lineage(artifact))
                    state.build_seconds = report.seconds
                    state.index_bytes = report.size_bytes
                    state.reused = False
                    state.artifact = artifact.address
                summary[method] = {
                    "seconds": report.seconds,
                    "maintenance": report.details.get("maintenance", ""),
                    "artifact": artifact.address,
                }
            self.dataset = new_dataset
            self.dataset_digest = new_digest
            self.updates_applied += 1
        return {
            "graphs": len(new_dataset),
            "dataset_digest": f"{new_digest & 0xFFFFFFFFFFFFFFFF:016x}",
            "added": len(delta.added),
            "removed": len(delta.removed),
            "methods": summary,
        }

    def update_text(self, document: dict) -> dict:
        """Apply an update from its HTTP body form.

        The body contract is ``{"add": "<gfd text>", "remove": [ids]}``
        (either key optional); ids refer to the dataset as served at
        the moment the update is applied.
        """
        added: tuple = ()
        add_text = document.get("add", "")
        if add_text:
            try:
                workload = loads_dataset(str(add_text), name="update")
            except GraphError as exc:
                raise ServeError(f"malformed added graphs: {exc}")
            added = tuple(workload)
        removed = document.get("remove", [])
        if not isinstance(removed, list):
            raise ServeError('"remove" must be a list of graph ids')
        try:
            delta = DatasetDelta(added=added, removed=tuple(removed))
        except (ValueError, TypeError) as exc:
            raise ServeError(f"bad delta: {exc}")
        if not delta:
            raise ServeError("empty update: nothing to add or remove")
        return self.update(delta)

    def inventory(self) -> dict:
        """The warm-method map ``/healthz`` reports."""
        return {
            method: {
                "build_seconds": state.build_seconds,
                "index_bytes": state.index_bytes,
                "reused": state.reused,
                "artifact": state.artifact,
            }
            for method, state in self._states.items()
        }


# ----------------------------------------------------------------------
# the HTTP face: ThreadingHTTPServer + a three-endpoint handler
# ----------------------------------------------------------------------


class ReproHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`QueryService`.

    ``daemon_threads = False`` + ``block_on_close = True`` is the
    graceful-drain half of the shutdown contract: ``shutdown()`` stops
    the accept loop, and ``server_close()`` then *joins* every
    in-flight request thread — a client mid-query gets its answer, not
    a reset connection.
    """

    daemon_threads = False
    block_on_close = True
    #: A drained socket should release its port immediately for the
    #: next daemon (or test) binding it.
    allow_reuse_address = True

    def __init__(self, address, service: QueryService) -> None:
        super().__init__(address, ServeHandler)
        self.service = service
        self.metrics = RequestMetrics()
        #: Update requests are metered separately: mixing second-scale
        #: index maintenance into the query latency quantiles would
        #: drown the numbers the KPIs assert.
        self.update_metrics = RequestMetrics()


class ServeHandler(BaseHTTPRequestHandler):
    """Routes: ``GET /healthz``, ``GET /metrics``, ``POST /query``."""

    server: ReproHTTPServer  # narrowed for readability
    #: Stamped into the Server header; version bumps with the package.
    server_version = "repro-serve/1"

    # The default handler prints one access-log line per request to
    # stderr; at load-generator rates that noise dominates the daemon's
    # own output, and /metrics already records the activity.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _send_json(self, status: int, document: dict) -> None:
        body = json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path == "/healthz":
            service = self.server.service
            metrics = self.server.metrics.snapshot()
            self._send_json(
                200,
                {
                    "status": "ok",
                    "dataset": service.name,
                    "graphs": len(service.dataset),
                    "methods": service.inventory(),
                    "requests": metrics["requests"],
                    "uptime_seconds": metrics["uptime_seconds"],
                },
            )
            return
        if self.path == "/metrics":
            service = self.server.service
            document = self.server.metrics.snapshot()
            document["updates"] = self.server.update_metrics.snapshot()
            document["staleness"] = service.staleness
            document["updates_applied"] = service.updates_applied
            document["query_cache"] = {
                "hits": service.query_cache_hits,
                "misses": service.query_cache_misses,
                "entries": len(service._query_cache),
            }
            self._send_json(200, document)
            return
        self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _read_json_body(self) -> dict:
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            # read(-1) would block until the client hangs up.
            raise ServeError(
                f"Content-Length must be a non-negative integer, got {declared!r}"
            )
        if length > _MAX_BODY_BYTES:
            raise ServeError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit",
                status=413,
            )
        raw = self.rfile.read(length)
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"request body is not valid JSON: {exc}")
        if not isinstance(document, dict):
            raise ServeError("request body must be a JSON object")
        return document

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path == "/update":
            self._post_update()
            return
        if self.path != "/query":
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        started = time.perf_counter()
        try:
            document = self._read_json_body()
            if "queries" not in document:
                raise ServeError(
                    'request body must be {"method": ..., "queries": "<gfd>"}'
                )
            method = document.get("method", "")
            response = self.server.service.answer_text(
                str(method), str(document["queries"])
            )
        except ServeError as exc:
            self.server.metrics.record(
                time.perf_counter() - started, error=True
            )
            self._send_json(exc.status, {"error": str(exc)})
            return
        self.server.metrics.record(time.perf_counter() - started)
        self._send_json(200, response)

    def _post_update(self) -> None:
        """``POST /update``: apply a dataset delta to every warm index.

        The staleness gauge covers the request's full span — it rises
        the moment the update is accepted and falls only after every
        index reflects it (or the request fails).
        """
        service = self.server.service
        started = time.perf_counter()
        service.note_pending_update(+1)
        try:
            response = service.update_text(self._read_json_body())
        except ServeError as exc:
            self.server.update_metrics.record(
                time.perf_counter() - started, error=True
            )
            self._send_json(exc.status, {"error": str(exc)})
            return
        finally:
            service.note_pending_update(-1)
        self.server.update_metrics.record(time.perf_counter() - started)
        self._send_json(200, response)


# ----------------------------------------------------------------------
# lifecycle: bind, announce, drain on SIGTERM/SIGINT, exit 0
# ----------------------------------------------------------------------


def make_server(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> ReproHTTPServer:
    """Bind a server for *service* (``port=0`` = ephemeral; the bound
    port is ``server.server_address[1]``)."""
    return ReproHTTPServer((host, port), service)


def run_server(
    server: ReproHTTPServer,
    announce=print,
    install_signals: bool = True,
    shutdown_event: threading.Event | None = None,
) -> int:
    """Serve until SIGTERM/SIGINT (or *shutdown_event*), then drain.

    The accept loop runs on a worker thread; this thread blocks on the
    shutdown event, which the signal handlers set.  (``shutdown()``
    must never be called from the thread running ``serve_forever`` —
    with the accept loop elsewhere, the signal-woken main thread calls
    it safely.)  After the drain the persistent pool closes through its
    reentrancy-safe path and the daemon returns 0 — the clean-shutdown
    contract the CI smoke leg asserts.
    """
    from repro.core.parallel import persistent_pool

    stop = shutdown_event if shutdown_event is not None else threading.Event()
    previous: dict[int, object] = {}
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(
                signum, lambda *_args: stop.set()
            )
    acceptor = threading.Thread(
        target=server.serve_forever, name="repro-serve-accept"
    )
    acceptor.start()
    host, port = server.server_address[:2]
    announce(f"serving on http://{host}:{port} (SIGTERM or Ctrl-C drains)")
    try:
        stop.wait()
    finally:
        announce("shutting down: draining in-flight requests...")
        server.shutdown()
        acceptor.join()
        server.server_close()  # joins request threads (block_on_close)
        persistent_pool().close()
        if install_signals:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        snapshot = server.metrics.snapshot()
        announce(
            f"served {snapshot['requests']} request(s) "
            f"({snapshot['errors']} error(s), "
            f"q50 {snapshot['latency_ms']['q50']:.3f} ms, "
            f"{snapshot['qps']:.1f} req/s lifetime)"
        )
    return 0
