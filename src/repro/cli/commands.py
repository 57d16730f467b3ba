"""Implementations of the ``repro`` subcommands."""

from __future__ import annotations

import argparse
import inspect
from pathlib import Path

from repro.core.arena import ArenaHandle, DatasetArena, cached_dataset
from repro.core.experiments import EXPERIMENTS, run_experiment
from repro.core.knobs import SINGLE_GRAPH, active_regime, apply_cli_args
from repro.core.metrics import summarize_results
from repro.core.parallel import persistent_pool
from repro.core.plots import ascii_plot
from repro.core.presets import active_profile
from repro.core.report import render_sweep, render_table1
from repro.generators.graphgen import GraphGenConfig, generate_dataset
from repro.generators.queries import generate_queries
from repro.generators.realsets import make_real_dataset
from repro.graphs.csr import as_core_dataset, as_core_query
from repro.graphs.dataset import dataset_fingerprint
from repro.graphs.graph import GraphError
from repro.graphs.io import read_dataset, write_dataset
from repro.graphs.statistics import dataset_statistics
from repro.indexes import ALL_INDEX_CLASSES
from repro.indexes.store import (
    IndexFileError,
    fetch_or_build,
    load_index,
    materialize_artifact,
    save_index,
    shared_store,
)
from repro.core.runner import make_method
from repro.utils.budget import Budget, BudgetExceeded

__all__ = ["CliError"]


class CliError(Exception):
    """User-facing command failure (bad input, missing file, timeout)."""


def _load_dataset(path: str):
    try:
        return read_dataset(path)
    except FileNotFoundError:
        raise CliError(f"dataset file not found: {path}")
    except GraphError as exc:
        raise CliError(f"malformed dataset {path}: {exc}")


def _require_known_method(name: str) -> None:
    if name not in ALL_INDEX_CLASSES:
        known = ", ".join(ALL_INDEX_CLASSES)
        raise CliError(f"unknown method {name!r}; expected one of {known}")


def _supported_options(method: str, options: dict) -> dict:
    """The subset of *options* the method's constructor accepts.

    ``repro query`` applies one ``--option`` list to several methods
    with different knobs; silently dropping inapplicable keys keeps the
    comparison runnable (e.g. ``max_path_edges`` means nothing to the
    naive baseline).
    """
    accepted = inspect.signature(ALL_INDEX_CLASSES[method].__init__).parameters
    return {key: value for key, value in options.items() if key in accepted}


def _parse_options(pairs: list[str]) -> dict:
    """Parse --option KEY=VALUE pairs with numeric coercion."""
    options: dict = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator:
            raise CliError(f"--option expects KEY=VALUE, got {pair!r}")
        value: object = raw
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                if raw.lower() in ("true", "false"):
                    value = raw.lower() == "true"
        options[key] = value
    return options


def _resolve_jobs(jobs: int) -> int | None:
    """CLI --jobs convention: 0 = all cores (None), otherwise N >= 1."""
    if jobs < 0:
        raise CliError(f"--jobs must be >= 0, got {jobs}")
    return jobs if jobs > 0 else None


def resolve_regime(args: argparse.Namespace) -> None:
    """Export an explicit ``--regime`` and reject a mistyped
    ``REPRO_REGIME`` before any command runs.

    The regime travels as its environment variable — like
    ``REPRO_SCALE``, worker processes inherit it at spawn.  The two
    regimes answer in different forms, so an unrecognized value is an
    error rather than a fall-back to the default.  See
    :mod:`repro.core.knobs`.
    """
    apply_cli_args(args)
    try:
        active_regime()
    except ValueError as exc:
        raise CliError(str(exc))


def _budget(seconds: float | None, phase: str) -> Budget | None:
    """``--budget``: unset is unlimited; 0 expires at the first poll."""
    return None if seconds is None else Budget(seconds, phase=phase)


def _fetch_or_build(
    method: str, options: dict, dataset, store_dir, budget=None, materialize=True
):
    """:func:`repro.indexes.store.fetch_or_build` for one method over a
    worker payload *dataset*, through the artifact store when
    *store_dir* is set: ``(index, hit)``.

    *hit* is the stored artifact that replaced the build (``None`` for a
    fresh build, written through); *index* is queryable unless the hit
    was left unmaterialized — callers that only print its provenance
    skip the O(payload) import.  Budget overruns propagate.
    """
    store = shared_store(store_dir) if store_dir else None
    digest = None
    if store is not None:  # the address component; an arena handle carries it
        shared = isinstance(dataset, ArenaHandle)
        digest = dataset.fingerprint if shared else dataset_fingerprint(dataset)
    resolved = cached_dataset(dataset)
    index, artifact, reused = fetch_or_build(
        make_method(method, options), resolved, store, digest, budget=budget
    )
    if not reused:
        return index, None
    return materialize_artifact(artifact, resolved) if materialize else None, artifact


def _build_row(payload: tuple, keep_index: bool = False) -> tuple:
    """Build one method over the (possibly arena-shared) dataset:
    ``(printable row, index | None)`` — the index only for *keep_index*
    callers (``--save``).  A store hit reports the artifact's provenance
    (the original measured build seconds); a budget overrun comes back
    as a status; programming errors propagate.  Top-level: it is the
    pool task of a multi-method ``repro build``.
    """
    dataset, method, options, budget_seconds, store_dir = payload
    try:
        index, hit = _fetch_or_build(
            method, options, dataset, store_dir,
            _budget(budget_seconds, f"{method} build"), materialize=keep_index,
        )
    except BudgetExceeded:
        return {"method": method, "status": "timeout"}, None
    if hit is not None:
        seconds, report = hit.provenance.build_seconds, hit.provenance
    else:
        seconds, report = index.build_report.seconds, index.build_report
    row = {
        "method": method,
        "status": "ok",
        "seconds": seconds,
        "size_bytes": report.size_bytes,
        "details": dict(report.details),
        "reused": hit is not None,
    }
    return row, index if keep_index else None


def _query_worker(payload: tuple) -> dict:
    """Build one method and run the workload through it (top-level for
    pool pickling).  Answer sets come back as sorted id tuples so the
    parent can check cross-method agreement without shipping sets."""
    dataset, method, options, budget_seconds, store_dir, queries = payload
    index, _ = _fetch_or_build(method, options, dataset, store_dir)
    return _run_query_rows(index, queries, budget_seconds)


def _map_methods(worker, dataset, jobs: int | None, methods, options, *rest) -> list:
    """One *worker* task ``(dataset, method, its options, *rest)`` per
    method across the shared pool, the dataset in one arena segment
    instead of pickled once per method; ``jobs <= 1`` runs the same
    queue in-process on the dataset itself."""
    arena = None
    if jobs is None or jobs > 1:
        arena = DatasetArena.create(dataset)
        dataset = arena.handle
    try:
        tasks = [
            (dataset, method, _supported_options(method, options), *rest)
            for method in methods
        ]
        return persistent_pool().runner(jobs).map(worker, tasks)
    finally:
        if arena is not None:
            arena.close()
        persistent_pool().close()


def _run_query_rows(index, queries, budget_seconds) -> dict:
    """Query *index* and reduce the outcome to a printable row.

    The answer regime comes from the ``--regime`` knob (read from the
    environment here, so pool workers resolve it identically): graph
    ids by default, embedding roots under ``--regime single-graph``.
    """
    budget = _budget(budget_seconds, f"{index.name} queries")
    try:
        results = [
            index.query(query, budget=budget, regime=active_regime())
            for query in queries
        ]
    except BudgetExceeded:
        return {"method": index.name, "status": "timeout"}
    return {
        "method": index.name,
        "status": "ok",
        "stats": summarize_results(results),
        "answers": tuple(tuple(sorted(r.answers)) for r in results),
    }


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    if args.real:
        dataset = make_real_dataset(args.real, scale=args.scale, seed=args.seed)
    else:
        config = GraphGenConfig(
            num_graphs=args.graphs,
            mean_nodes=args.nodes,
            mean_density=args.density,
            num_labels=args.labels,
        )
        dataset = generate_dataset(config, seed=args.seed)
    write_dataset(dataset, args.output)
    stats = dataset_statistics(dataset)
    print(
        f"wrote {stats.num_graphs} graphs "
        f"(avg {stats.avg_vertices:.1f} nodes, {stats.avg_edges:.1f} edges, "
        f"{stats.num_labels} labels) to {args.output}"
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset)
    stats = dataset_statistics(dataset, name=Path(args.dataset).stem)
    print(render_table1({stats.name: stats}))
    return 0


def cmd_queries(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset)
    try:
        queries = generate_queries(dataset, args.count, args.edges, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc))
    from repro.graphs.dataset import GraphDataset

    workload = GraphDataset(queries, name="queries")
    write_dataset(workload, args.output)
    print(f"wrote {len(queries)} queries of {args.edges} edges to {args.output}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset)
    methods = list(args.method)
    for method in methods:
        _require_known_method(method)
    if args.save and len(methods) > 1:
        raise CliError("--save supports a single --method")
    jobs = _resolve_jobs(args.jobs)
    options = _parse_options(args.option)

    index = None
    if len(methods) == 1:
        # A pool buys nothing for one build: options unfiltered (a
        # typo'd key should fail loudly), index kept in-process for
        # --save (and only then imported on a store hit).
        row, index = _build_row(
            (dataset, methods[0], options, args.budget, args.index_store),
            keep_index=bool(args.save),
        )
        rows = [row]
    else:
        # Several methods: each gets the subset of options its
        # constructor accepts (like `repro query`), but a key NO
        # selected method knows is certainly a typo and must fail as
        # loudly as the single-method path does.
        for key in options:
            if all(key not in _supported_options(m, options) for m in methods):
                raise CliError(
                    f"option {key!r} is not accepted by any selected method"
                )
        outcomes = _map_methods(
            _build_row, dataset, jobs, methods, options, args.budget, args.index_store
        )
        rows = [row for row, _ in outcomes]
    timed_out = [row for row in rows if row["status"] == "timeout"]
    for row in rows:
        _print_build_row(row["method"], len(dataset), row)
    if timed_out:
        # A timed-out build is a failed command, even when other
        # methods finished.
        names = ", ".join(row["method"] for row in timed_out)
        raise CliError(
            f"{names} exceeded the {args.budget:.0f}s build budget "
            "(the paper's 'failed to index')"
        )
    if args.save:
        save_index(index, args.save)
        print(f"saved index to {args.save}")
    return 0


def _print_build_row(method: str, num_graphs: int, row: dict) -> None:
    if row["status"] == "timeout":
        print(f"{method} TIMED OUT (build budget)")
        return
    verb = "reused" if row.get("reused") else "built"
    suffix = " [from index store]" if row.get("reused") else ""
    print(
        f"{verb} {method} over {num_graphs} graphs in "
        f"{row['seconds']:.3f}s ({row['size_bytes'] / 1024:.1f} KiB){suffix}"
    )
    for key, value in row["details"].items():
        print(f"  {key}: {value}")


def cmd_query(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset)
    if active_regime() == SINGLE_GRAPH and len(dataset) != 1:
        raise CliError(
            f"--regime single-graph requires a one-graph dataset; "
            f"{args.dataset} has {len(dataset)} graphs"
        )
    # Query admission: the workload converts to CSR once, here, before
    # any method (loaded, in-process or pooled) sees it.
    queries = [as_core_query(query) for query in _load_dataset(args.queries)]
    if not queries:
        raise CliError(f"no queries in {args.queries}")
    options = _parse_options(args.option)
    jobs = _resolve_jobs(args.jobs)

    rows: list[dict] = []
    loaded_name = None
    if args.load:
        try:
            loaded = load_index(args.load, expect_dataset=dataset)
        except (FileNotFoundError, IndexFileError) as exc:
            raise CliError(str(exc))
        loaded_name = loaded.name
        # A persisted index is already built; query it in-process.
        rows.append(_run_query_rows(loaded, queries, args.budget))
    methods = [
        method
        for method in (args.method or list(ALL_INDEX_CLASSES))
        if method != loaded_name
    ]
    for method in methods:
        _require_known_method(method)

    # Batch the per-method build+query pipelines across the pool; one
    # pipeline runs in-process, where a pool and an arena would only
    # add overhead.
    rows.extend(
        _map_methods(
            _query_worker,
            dataset,
            jobs if len(methods) > 1 else 1,
            methods,
            options,
            args.budget,
            args.index_store,
            tuple(queries),
        )
    )

    print(f"{len(queries)} queries against {len(dataset)} graphs:")
    reference = None
    for row in rows:
        if row["status"] == "timeout":
            print(f"  {row['method']:11s} TIMED OUT")
            continue
        stats = row["stats"]
        if reference is None:
            reference = row["answers"]
        agreement = "" if row["answers"] == reference else "  !! DISAGREES"
        print(
            f"  {row['method']:11s} avg {stats.avg_query_seconds * 1e3:8.3f}ms  "
            f"candidates {stats.avg_candidates:7.1f}  "
            f"answers {stats.avg_answers:6.1f}  "
            f"fp {stats.false_positive_ratio:.3f}{agreement}"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.serve import (
        QueryService,
        ServeError,
        make_server,
        run_server,
    )

    dataset = _load_dataset(args.dataset)
    methods = list(args.method) or None
    for method in methods or []:
        _require_known_method(method)
    options = _parse_options(args.option)
    service = QueryService(
        dataset,
        methods=methods,
        method_options=options,
        index_store_dir=args.index_store,
        reuse_indexes=not args.no_index_reuse,
        name=Path(args.dataset).stem,
    )
    print(
        f"warming {len(service.methods)} method(s) over "
        f"{len(service.dataset)} graphs..."
    )
    try:
        states = service.warm(_resolve_jobs(args.jobs))
    except ServeError as exc:
        raise CliError(str(exc))
    for method, state in states.items():
        verb = "reused" if state.reused else "built"
        suffix = " [from index store]" if state.reused else ""
        print(
            f"  {verb} {method} in {state.build_seconds:.3f}s "
            f"({state.index_bytes / 1024:.1f} KiB){suffix}"
        )
    try:
        server = make_server(service, args.host, args.port)
    except OSError as exc:
        raise CliError(f"cannot bind {args.host}:{args.port}: {exc}")
    return run_server(server)


def cmd_bench_serve(args: argparse.Namespace) -> int:
    import dataclasses
    import json
    import threading

    from repro.core.loadgen import (
        ScenarioError,
        bench_record,
        evaluate_kpis,
        load_scenario,
        metrics_of,
        post_query,
        run_load,
    )
    from repro.core.serve import (
        QueryService,
        ServeError,
        answers_of,
        make_server,
    )
    from repro.graphs.dataset import DatasetDelta, GraphDataset, apply_delta
    from repro.graphs.io import dumps_dataset

    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        raise CliError(str(exc))
    if not args.queries:
        raise CliError(
            "bench serve requires --queries (the workload the load draws from)"
        )
    queries = list(_load_dataset(args.queries))
    if not queries:
        raise CliError(f"no queries in {args.queries}")
    # One request = one single-query .gfd workload, so every answer in
    # the response maps back to exactly one workload query.
    query_texts = [dumps_dataset(GraphDataset([query])) for query in queries]

    update_graphs = list(_load_dataset(args.updates)) if args.updates else []
    if scenario.update_every > 0 and not update_graphs:
        raise CliError(
            "the scenario sets update_every but no --updates FILE "
            "supplies the graphs to insert"
        )
    if update_graphs and scenario.update_every <= 0:
        raise CliError(
            "--updates given but the scenario sets no update_every "
            "(add 'update_every: N' to interleave writes)"
        )
    # One update = insert one graph, so the applied prefix of the pool
    # reconstructs the daemon's final dataset exactly.
    update_texts = [
        dumps_dataset(GraphDataset([graph])) for graph in update_graphs
    ]

    method = args.method or scenario.method
    if not method:
        raise CliError(
            "no method selected: pass --method or add a 'method:' line "
            "to the scenario"
        )
    _require_known_method(method)
    if method != scenario.method:
        scenario = dataclasses.replace(scenario, method=method)
    options = _parse_options(args.option)

    dataset = _load_dataset(args.dataset) if args.dataset else None
    server = None
    acceptor = None
    if args.url:
        url = args.url.rstrip("/")
    else:
        # Self-host: an in-process daemon over --dataset, alive only for
        # this run — the zero-setup path the CI smoke leg and quick
        # local checks use.
        if dataset is None:
            raise CliError(
                "pass --url for a running daemon, or --dataset to "
                "self-host one"
            )
        service = QueryService(
            dataset,
            methods=[method],
            method_options=options,
            index_store_dir=args.index_store,
            name=Path(args.dataset).stem,
        )
        try:
            service.warm()
        except ServeError as exc:
            raise CliError(str(exc))
        server = make_server(service, port=0)
        acceptor = threading.Thread(
            target=server.serve_forever, name="bench-serve-accept"
        )
        acceptor.start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        print(f"self-hosting {method} daemon at {url}")

    try:
        pace = (
            f" at {scenario.rps:g} req/s" if scenario.rps else " (unthrottled)"
        )
        print(
            f"scenario {scenario.name}: {scenario.clients} client(s) x "
            f"{scenario.requests} request(s) against {method}{pace}"
        )
        result = run_load(
            url, scenario, query_texts, update_texts=update_texts or None
        )
        post_answers = None
        if args.verify and result.updates:
            if result.update_errors:
                raise CliError(
                    f"{result.update_errors} update(s) failed — cannot "
                    "reconstruct the daemon's final dataset for --verify"
                )
            # The load's answers straddle update boundaries; only the
            # daemon's *post-update* answers are comparable to a cold
            # build, so re-ask each query once while it is still up.
            post_answers = []
            for query_index, text in enumerate(query_texts):
                status, document = post_query(url, method, text)
                if status != 200:
                    raise CliError(
                        f"post-update re-ask of workload query "
                        f"{query_index} failed ({status}): "
                        f"{document.get('error', '?')}"
                    )
                post_answers.append(document.get("answers"))
    finally:
        if server is not None:
            server.shutdown()
            acceptor.join()
            server.server_close()
            persistent_pool().close()

    metrics = metrics_of(result)
    print(
        f"{metrics['requests']} request(s) in {metrics['seconds']:.3f}s "
        f"({metrics['qps']:.1f} req/s, {metrics['errors']} error(s)); "
        f"latency q50 {metrics['q50_ms']:.3f} ms, "
        f"q90 {metrics['q90_ms']:.3f} ms, max {metrics['max_ms']:.3f} ms"
    )
    if result.updates or result.update_errors:
        print(
            f"{metrics['updates']} update(s) applied "
            f"({metrics['update_errors']} update error(s)); update "
            f"latency q50 {metrics['update_q50_ms']:.3f} ms, "
            f"mean {metrics['update_mean_ms']:.3f} ms"
        )
    divergent = result.divergent_queries()
    if divergent:
        if result.updates:
            # Answers legitimately change as deltas land mid-run; only
            # the post-update re-ask (below) is held to determinism.
            print(
                f"note: {len(divergent)} workload quer(y/ies) changed "
                "answers across updates (expected under mixed "
                "read/write)"
            )
        else:
            shown = ", ".join(str(index) for index in divergent[:10])
            raise CliError(
                f"daemon returned diverging answers for {len(divergent)} "
                f"workload quer(y/ies) (indexes {shown}) — concurrent "
                "requests must be deterministic"
            )
    verified = False
    if args.verify and result.updates:
        if dataset is None:
            raise CliError(
                "--verify needs --dataset (the batch engine answers "
                "locally for comparison)"
            )
        # The daemon's final dataset is base + the applied prefix of
        # the update pool; rebuild it cold, in process (deliberately
        # bypassing the store: the daemon dual-wrote the same content
        # address, so a store hit would not be an independent check).
        final_dataset = dataset
        for graph in update_graphs[: result.updates]:
            final_dataset = apply_delta(
                final_dataset, DatasetDelta(added=(graph,))
            )
        index = make_method(method, _supported_options(method, options))
        index.build(as_core_dataset(final_dataset))
        assert post_answers is not None
        expected = [answers_of([index.query(query)]) for query in queries]
        mismatched = [
            query_index
            for query_index in range(len(queries))
            if post_answers[query_index] != expected[query_index]
        ]
        if mismatched:
            shown = ", ".join(str(index) for index in mismatched[:10])
            raise CliError(
                f"post-update daemon answers differ from a cold batch "
                f"build on {len(mismatched)} workload quer(y/ies) "
                f"(indexes {shown})"
            )
        print(
            f"verified: post-update daemon answers identical to a cold "
            f"batch build over {len(final_dataset)} graph(s) "
            f"on {len(queries)} quer(y/ies)"
        )
        verified = True
    elif args.verify:
        if dataset is None:
            raise CliError(
                "--verify needs --dataset (the batch engine answers "
                "locally for comparison)"
            )
        index, _ = _fetch_or_build(
            method, _supported_options(method, options), dataset,
            args.index_store,
        )
        # Each request carried one query, so the daemon's `answers`
        # payload is a one-element list — mirror that shape here.
        expected = [answers_of([index.query(query)]) for query in queries]
        mismatched = [
            query_index
            for query_index, seen in sorted(result.answers_by_query.items())
            if seen != [expected[query_index]]
        ]
        if mismatched:
            shown = ", ".join(str(index) for index in mismatched[:10])
            raise CliError(
                f"daemon answers differ from the batch engine on "
                f"{len(mismatched)} workload quer(y/ies) (indexes {shown})"
            )
        print(
            f"verified: daemon answers identical to the batch engine "
            f"on {len(result.answers_by_query)} quer(y/ies)"
        )
        verified = True
    if result.errors and not any(
        spec.metric == "errors" for spec in scenario.kpis
    ):
        raise CliError(
            f"{result.errors} request(s) failed and the scenario sets "
            "no 'errors' KPI budget"
        )
    if result.update_errors and not any(
        spec.metric == "update_errors" for spec in scenario.kpis
    ):
        raise CliError(
            f"{result.update_errors} update(s) failed and the scenario "
            "sets no 'update_errors' KPI budget"
        )
    outcomes = evaluate_kpis(scenario.kpis, metrics)
    for outcome in outcomes:
        print(outcome.render())
    if args.json:
        from repro.core.benchrecords import bench_seal

        record = bench_seal(
            bench_record(
                scenario,
                metrics,
                outcomes,
                extra={"url": url, "verified": verified},
            )
        )
        Path(args.json).write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote benchmark record to {args.json}")
    failed = [outcome for outcome in outcomes if not outcome.passed]
    if failed:
        raise CliError(f"{len(failed)} KPI assertion(s) failed")
    return 0


def _sweep_json_path(base: str, experiment: str, multiple: bool) -> Path:
    """Per-experiment JSON path: the experiment name is appended when a
    single invocation runs several sweeps."""
    path = Path(base)
    if not multiple:
        return path
    return path.with_name(f"{path.stem}-{experiment}{path.suffix or '.json'}")


def _line_plots(sweep, figure: str) -> list[str]:
    """Sub-figures (a) and (c) of *sweep* as ASCII line plots."""
    return [
        ascii_plot(
            f"Figure {figure}(a): indexing time vs {sweep.x_name}",
            sweep.indexing_time(),
        ),
        ascii_plot(
            f"Figure {figure}(c): query time vs {sweep.x_name}",
            sweep.query_time(),
        ),
    ]


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.scheduling import CostHistory
    from repro.core.sharding import (
        ManifestError,
        SelectorError,
        SweepPlan,
        load_manifest,
        manifest_for,
        manifest_path_for,
        manifest_records,
        parse_cells,
        parse_only,
        parse_shard,
        save_manifest,
    )

    profile = active_profile()
    jobs = _resolve_jobs(args.jobs)
    workers = jobs if jobs is not None else "all cores"
    for method in args.method:
        _require_known_method(method)
    try:
        selector = parse_only(args.only)
        shard = parse_shard(args.shard)
        assignment = parse_cells(args.cells)
    except SelectorError as exc:
        raise CliError(str(exc))
    if shard is not None and assignment is not None:
        raise CliError(
            "--shard and --cells are mutually exclusive: a stride shard "
            "and an explicit cell assignment both pick which cells run"
        )
    if (shard is not None or assignment is not None or args.resume) and not args.json:
        flag = (
            "--shard"
            if shard is not None
            else "--cells"
            if assignment is not None
            else "--resume"
        )
        raise CliError(
            f"{flag} requires --json: the shard manifest lives beside it"
        )
    experiments = list(dict.fromkeys(args.experiment))
    engine = "".join(
        [
            ", shared-mem" if args.shared_mem else "",
            ", batched queries" if args.batch_queries else "",
            f", shard {shard}" if shard is not None else "",
            f", {len(assignment.entries)} assigned cell(s)"
            if assignment is not None
            else "",
            ", selected cells only" if selector is not None else "",
            f", index store {args.index_store}" if args.index_store else "",
            ", no index reuse" if args.no_index_reuse else "",
        ]
    )
    # One persistent pool serves every experiment of this invocation:
    # workers (and their arena/index caches) survive across sweeps.
    pool = persistent_pool()
    try:
        shared_runner = pool.runner(jobs)
        for experiment in experiments:
            spec = EXPERIMENTS[experiment]
            figure = spec.figure
            json_path = (
                _sweep_json_path(args.json, experiment, len(experiments) > 1)
                if args.json
                else None
            )
            plan = None
            needs_plan = (
                selector is not None
                or shard is not None
                or assignment is not None
                or args.resume
                or args.history
            )
            if needs_plan:
                resume_manifest = None
                if args.resume:
                    manifest_path = manifest_path_for(json_path)
                    if manifest_path.exists():
                        try:
                            resume_manifest = load_manifest(manifest_path)
                        except ManifestError as exc:
                            raise CliError(str(exc))
                # The scheduler's calibration evidence, most recent
                # last (later records win on exact cells): the shared
                # --history file first, then this run's own resume
                # manifest.
                records: list = []
                if args.history:
                    from repro.core.driver import load_history_records

                    records.extend(
                        load_history_records(
                            args.history, experiment, profile.name
                        )
                    )
                if resume_manifest is not None:
                    records.extend(manifest_records(resume_manifest))
                plan = SweepPlan(
                    selector=selector,
                    shard=shard,
                    assignment=assignment,
                    resume=resume_manifest,
                    experiment=experiment,
                    seed=args.seed,
                    profile=profile.name,
                    history=CostHistory(records) if records else None,
                )
                if resume_manifest is not None:
                    print(
                        f"resuming {experiment} from "
                        f"{len(resume_manifest.cells)} completed cell(s)"
                    )
            print(
                f"running {experiment} sweep at scale '{profile.name}' "
                f"(jobs={workers}{engine})..."
            )
            try:
                sweep = run_experiment(
                    experiment,
                    profile,
                    methods=args.method or None,
                    seed=args.seed,
                    progress=lambda m: print(f"  {m}", end="\r"),
                    jobs=jobs,
                    shared_mem=args.shared_mem,
                    batch_queries=args.batch_queries,
                    runner=shared_runner,
                    plan=plan,
                    index_store_dir=args.index_store,
                    reuse_indexes=not args.no_index_reuse,
                )
            except (SelectorError, ManifestError) as exc:
                raise CliError(str(exc))
            print()
            if args.index_store:
                resumed = sweep.resumed_cells()
                restored = (
                    f", {resumed} restored from manifest" if resumed else ""
                )
                print(
                    f"index store: {sweep.fresh_builds()} cell(s) built "
                    f"fresh, {sweep.reused_builds()} reused from "
                    f"{args.index_store}{restored}, "
                    f"{sweep.duplicate_builds()} duplicate build(s)"
                )

            output = []
            if spec.table1:
                output.append(render_table1(sweep.dataset_stats))
            output.append(render_sweep(sweep, figure))
            if args.plot and not spec.table1:
                output.extend(_line_plots(sweep, figure))
            text = "\n".join(part for part in output if part)
            print(text)
            if args.out:
                out_dir = Path(args.out)
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / f"fig{figure}_{experiment}.txt").write_text(
                    text, encoding="utf-8"
                )
                print(f"wrote {out_dir / f'fig{figure}_{experiment}.txt'}")
            if json_path is not None:
                from repro.core.serialization import save_sweep, sweep_digest

                save_sweep(sweep, json_path)
                manifest = manifest_for(
                    sweep,
                    experiment=experiment,
                    seed=args.seed,
                    profile=profile.name,
                    selector=selector,
                    shard=shard,
                    assignment=assignment,
                )
                manifest_path = manifest_path_for(json_path)
                save_manifest(manifest, manifest_path)
                print(f"wrote raw results to {json_path}")
                print(
                    f"wrote shard manifest ({len(manifest.cells)} cells, "
                    f"digest {sweep_digest(sweep)}) to {manifest_path}"
                )
                if args.history:
                    from repro.core.driver import append_history

                    # Only the cells this invocation executed: resumed
                    # cells were logged by the run that measured them.
                    executed = {
                        key
                        for key, cell in sweep.cells.items()
                        if not cell.provenance.get("resumed")
                    }
                    appended = append_history(
                        args.history, manifest, experiment, keys=executed
                    )
                    if appended:
                        print(
                            f"appended {appended} cell timing(s) to "
                            f"{args.history}"
                        )
    finally:
        pool.close()
    return 0


def cmd_launch(args: argparse.Namespace) -> int:
    """Plan, launch, merge, and verify a sharded sweep (the driver).

    The orchestration layer over PR 3/4's primitives: cells are
    partitioned across shards by estimated cost (greedy LPT, calibrated
    by ``--history`` evidence when available), shards run concurrently
    through a pluggable executor as ``repro sweep --cells ...``
    invocations, their manifests are auto-merged, and the merged digest
    is asserted — balanced assignment must never change a result byte.
    A driver run manifest makes the whole launch resumable."""
    from repro.core.driver import (
        DriverError,
        DriverRun,
        ShardCommand,
        append_history,
        assign_shards,
        driver_path_for,
        experiment_grid,
        load_driver_run,
        load_history,
        make_executor,
        plan_seconds,
        save_driver_run,
        shard_json_path,
    )
    from repro.core.serialization import save_sweep, sweep_digest
    from repro.core.sharding import (
        CellAssignment,
        ManifestError,
        MergeError,
        SelectorError,
        load_manifest,
        manifest_path_for,
        merge_manifests,
        parse_only,
        save_manifest,
    )

    profile = active_profile()
    for method in args.method:
        _require_known_method(method)
    if args.shards < 1:
        raise CliError(f"--shards must be >= 1, got {args.shards}")
    if args.jobs < 0:
        raise CliError(f"--jobs must be >= 0, got {args.jobs}")
    try:
        selector = parse_only(args.only)
        x_name, x_values, methods = experiment_grid(
            args.experiment, profile, args.method or None, selector
        )
    except (SelectorError, DriverError) as exc:
        raise CliError(str(exc))
    grid = [(x, method) for x in x_values for method in methods]
    json_path = Path(args.json)
    if json_path.parent and not json_path.parent.exists():
        json_path.parent.mkdir(parents=True, exist_ok=True)
    driver_path = driver_path_for(json_path)

    selector_dict = selector.as_dict() if selector is not None else {}
    previous = None
    if args.resume and driver_path.exists():
        try:
            previous = load_driver_run(driver_path)
        except DriverError as exc:
            raise CliError(str(exc))
        requested = DriverRun(
            experiment=args.experiment,
            profile=profile.name,
            seed=args.seed,
            x_name=x_name,
            x_values=x_values,
            methods=methods,
            selector=selector_dict,
            shards=args.shards,
            strategy=args.assign,
            jobs=args.jobs,
        )
        if previous.identity() != requested.identity():
            raise CliError(
                f"--resume driver run manifest {driver_path} does not "
                "match this launch (experiment, profile, seed, grid, "
                "selector, or --shards differ); point --json somewhere "
                "else or drop --resume"
            )
        # The recorded plan wins on resume — assignment *and* the
        # estimates it was balanced from: fresher history must not
        # shuffle cells between half-finished shards, so it is not even
        # loaded here (--history still appends afterwards).
        assignment = [
            [tuple(key) for key in cells] for cells in previous.assignment
        ]
        estimated = list(previous.estimated_seconds)
        if len(estimated) != len(assignment):  # hand-edited manifest
            estimated = [float(len(cells)) for cells in assignment]
    else:
        history = None
        if args.history:
            history = load_history(args.history, args.experiment, profile.name)
            if history is not None:
                print(
                    f"cost history: {len(history)} recorded cell(s) from "
                    f"{args.history} calibrate the shard assignment"
                )
        costs_by_key = {
            key: plan_seconds(args.experiment, profile, key, history)
            for key in grid
        }
        assignment = assign_shards(
            grid, [costs_by_key[key] for key in grid], args.shards, args.assign
        )
        estimated = [
            sum(costs_by_key[key] for key in cells) for cells in assignment
        ]

    run = DriverRun(
        experiment=args.experiment,
        profile=profile.name,
        seed=args.seed,
        x_name=x_name,
        x_values=x_values,
        methods=methods,
        selector=selector_dict,
        shards=args.shards,
        strategy=args.assign,
        jobs=args.jobs,
        assignment=assignment,
        estimated_seconds=estimated,
        merged_digest=previous.merged_digest if previous is not None else "",
    )
    # Persist the plan before anything runs: a crashed launch resumes
    # against exactly this assignment.
    save_driver_run(run, driver_path)

    live = [
        (index, cells)
        for index, cells in enumerate(assignment, start=1)
        if cells
    ]
    loads = [estimated[index - 1] for index, _ in live]
    print(
        f"planned {len(grid)} cell(s) across {len(live)} shard(s) "
        f"({args.assign} assignment; est. shard load "
        f"{min(loads):.4g}..{max(loads):.4g})"
    )
    commands_to_run: list[ShardCommand] = []
    missing_by_shard: dict[int, list[tuple]] = {}
    executed_cells = 0
    complete_cells = 0
    skipped_shards = 0
    for index, cells in live:
        shard_json = shard_json_path(json_path, index, args.shards)
        shard_manifest = manifest_path_for(shard_json)
        done: set = set()
        if args.resume and shard_manifest.exists():
            try:
                done = load_manifest(shard_manifest).completed_keys() & set(
                    cells
                )
            except ManifestError:
                # Unreadable manifest: relaunch the shard with --resume
                # and let the sweep's own loader fail loudly.
                done = set()
        missing = [key for key in cells if key not in done]
        if args.resume and not missing:
            skipped_shards += 1
            complete_cells += len(cells)
            print(
                f"shard {index}/{args.shards}: complete "
                f"({len(cells)} cell(s)), skipping launch"
            )
            continue
        executed_cells += len(missing)
        complete_cells += len(cells) - len(missing)
        missing_by_shard[index] = missing
        cli = [
            "sweep",
            args.experiment,
            "--json",
            str(shard_json),
            "--seed",
            str(args.seed),
            "--jobs",
            str(args.jobs),
            "--cells",
            CellAssignment.of(cells).spec(),
        ]
        for method in args.method:
            cli += ["--method", method]
        for only in args.only:
            cli += ["--only", only]
        if args.shared_mem:
            cli.append("--shared-mem")
        if args.batch_queries:
            cli.append("--batch-queries")
        if args.index_store:
            cli += ["--index-store", args.index_store]
        if args.no_index_reuse:
            cli.append("--no-index-reuse")
        if args.resume and shard_manifest.exists():
            cli.append("--resume")
        commands_to_run.append(
            ShardCommand(
                shard_index=index,
                cli_args=tuple(cli),
                log_path=shard_json.with_suffix(".log"),
            )
        )

    try:
        executor = make_executor(args.executor)
    except DriverError as exc:
        raise CliError(str(exc))
    if commands_to_run:
        print(
            f"launching {len(commands_to_run)} shard(s) via the "
            f"{executor.name} executor "
            f"({executed_cells} cell(s) to run, jobs={args.jobs} each)..."
        )
        try:
            codes = executor.run(commands_to_run)
        except DriverError as exc:
            raise CliError(str(exc))
        failed = [
            (command, code)
            for command, code in zip(commands_to_run, codes)
            if code != 0
        ]
        if failed:
            for command, code in failed:
                print(
                    f"shard {command.shard_index}/{args.shards} failed "
                    f"(exit {code}); last log lines from {command.log_path}:"
                )
                print(_log_tail(command.log_path))
            raise CliError(
                f"{len(failed)} shard(s) failed; completed shards kept "
                "their manifests — fix the cause and rerun with --resume"
            )

    manifests = []
    try:
        for index, cells in live:
            manifests.append(
                load_manifest(
                    manifest_path_for(
                        shard_json_path(json_path, index, args.shards)
                    )
                )
            )
        sweep, merged = merge_manifests(manifests)
    except (ManifestError, MergeError) as exc:
        raise CliError(str(exc))
    digest = sweep_digest(sweep)
    if run.merged_digest and run.merged_digest != digest:
        # Check before writing anything: a failed determinism check
        # must not replace the previously verified merged output with
        # the very bytes it is declaring untrustworthy.
        raise CliError(
            f"merged sweep digest {digest} does not match the digest "
            f"{run.merged_digest} this launch recorded earlier — the "
            "shards did not recompute the same bytes; the previous "
            f"merged output at {json_path} is untouched"
        )
    save_sweep(sweep, json_path)
    merged_manifest_path = manifest_path_for(json_path)
    save_manifest(merged, merged_manifest_path)
    run.merged_digest = digest
    save_driver_run(run, driver_path)
    if args.history and executed_cells:
        ran = {
            key
            for command in commands_to_run
            for key in missing_by_shard.get(command.shard_index, [])
        }
        appended = append_history(
            args.history, merged, args.experiment, keys=ran
        )
        print(f"appended {appended} cell timing(s) to {args.history}")
    print(
        f"driver: {executed_cells} cell(s) executed, "
        f"{complete_cells} already complete "
        f"({skipped_shards} shard(s) skipped); merged digest {digest}"
    )
    print(
        f"wrote merged sweep to {json_path} "
        f"(manifest {merged_manifest_path}, driver run {driver_path})"
    )
    return 0


def _log_tail(path: Path, lines: int = 10) -> str:
    """The last *lines* of a shard log, indented for the error report."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return "  (log unreadable)"
    tail = text.splitlines()[-lines:]
    return "\n".join(f"  {line}" for line in tail) if tail else "  (log empty)"


def cmd_merge(args: argparse.Namespace) -> int:
    """Stitch shard manifests back into one sweep result.

    The merged sweep's canonical JSON is byte-identical (same
    ``sweep_digest``) to an unsharded run of the same grid; overlapping
    shards must agree cell by cell, and divergence is a named-cell
    failure, never a silent pick."""
    from repro.core.serialization import save_sweep, sweep_digest
    from repro.core.sharding import (
        ManifestError,
        MergeError,
        load_manifest,
        manifest_path_for,
        merge_manifests,
        save_manifest,
    )

    try:
        manifests = [load_manifest(path) for path in args.manifest]
    except ManifestError as exc:
        raise CliError(str(exc))
    try:
        sweep, merged = merge_manifests(
            manifests, require_complete=not args.allow_partial
        )
    except MergeError as exc:
        raise CliError(str(exc))
    save_sweep(sweep, args.json)
    manifest_path = manifest_path_for(args.json)
    save_manifest(merged, manifest_path)
    grid = len(merged.grid_keys())
    print(
        f"merged {len(manifests)} manifest(s): {len(sweep.cells)}/{grid} "
        f"cells, sweep digest {sweep_digest(sweep)}"
    )
    print(f"wrote merged sweep to {args.json} (manifest {manifest_path})")
    return 0


def _require_store(args: argparse.Namespace):
    """The on-disk store a ``repro index`` subcommand operates on."""
    if not args.index_store:
        raise CliError("repro index requires --index-store DIR")
    return shared_store(args.index_store)


def cmd_index_ls(args: argparse.Namespace) -> int:
    """List the artifacts of an on-disk index store."""
    store = _require_store(args)
    entries = store.entries()
    if not entries:
        print(f"no artifacts in {args.index_store}")
        return 0
    print(f"{len(entries)} artifact(s) in {args.index_store}:")
    total = 0
    for path, header in entries:
        size = path.stat().st_size
        total += size
        if header is None:
            print(f"  {path.stem:56s} UNREADABLE (corrupt or stale; run gc)")
            continue
        params = ", ".join(f"{k}={v}" for k, v in header.index_params)
        print(
            f"  {path.stem:56s} {header.method:11s} "
            f"{size / 1024:9.1f} KiB  built in "
            f"{header.provenance.build_seconds:.3f}s  "
            f"[{params or 'defaults'}]"
        )
        if header.parent:
            print(
                f"    ^ incremental update of {header.parent} "
                f"(delta {header.delta_digest:016x})"
            )
    print(f"total {total / 1024:.1f} KiB")
    return 0


def cmd_index_rm(args: argparse.Namespace) -> int:
    """Remove artifacts from an on-disk index store by address."""
    store = _require_store(args)
    missing = []
    for address in args.address:
        if store.remove(address):
            print(f"removed {address}")
        else:
            missing.append(address)
    if missing:
        raise CliError(
            f"no such artifact(s): {', '.join(missing)} "
            f"(see 'repro index ls')"
        )
    return 0


def cmd_index_gc(args: argparse.Namespace) -> int:
    """Collect garbage: drop corrupt/stale artifacts, enforce a size cap."""
    store = _require_store(args)
    if args.max_bytes is not None and args.max_bytes < 0:
        raise CliError(f"--max-bytes must be >= 0, got {args.max_bytes}")
    report = store.gc(max_bytes=args.max_bytes)
    print(
        f"gc {args.index_store}: removed {report['removed_corrupt']} "
        f"unreadable, evicted {report['removed_evicted']} over budget; "
        f"kept {report['kept']} artifact(s), "
        f"{report['kept_bytes'] / 1024:.1f} KiB"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.core.benchrecords import (
        BenchValidationError,
        bench_validate,
        is_bench_record,
        render_bench_summary,
    )
    from repro.core.serialization import sweep_from_json
    from repro.core.sharding import (
        MANIFEST_SCHEMA,
        ManifestError,
        MergeError,
        load_manifest,
        manifest_from_json,
        manifest_path_for,
        merge_manifests,
    )

    try:
        text = Path(args.results).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CliError(f"results file not found: {args.results}")
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.results}: not valid JSON: {exc}")
    if is_bench_record(document):
        # A BENCH_*.json trajectory record: validate (malformed or
        # hand-edited records are rejected, not rendered) and summarize.
        try:
            kind = bench_validate(document, source=args.results)
        except BenchValidationError as exc:
            raise CliError(str(exc))
        print(render_bench_summary(document, kind))
        return 0
    schema = document.get("schema") if isinstance(document, dict) else None
    manifest = None
    if schema == MANIFEST_SCHEMA:
        # A shard manifest renders directly as a partial grid — the
        # natural way to peek at a crashed or in-flight shard.
        try:
            manifest = manifest_from_json(text)
            sweep, _ = merge_manifests([manifest], require_complete=False)
        except (ManifestError, MergeError) as exc:
            raise CliError(f"{args.results}: {exc}")
    else:
        try:
            sweep = sweep_from_json(text)
        except ValueError as exc:
            raise CliError(f"{args.results}: {exc}")
        # A sweep saved beside a manifest (every --json sweep, every
        # merge, every launch) knows its full grid; use it to tell
        # "pending" (no shard produced the cell yet) from "—" (ran,
        # but no data point).
        manifest_path = manifest_path_for(args.results)
        if manifest_path.exists():
            try:
                manifest = load_manifest(manifest_path)
            except ManifestError:
                manifest = None
            if manifest is not None and (
                manifest.x_name != sweep.x_name
                or manifest.x_values != sweep.x_values
                or manifest.methods != sweep.methods
            ):
                manifest = None  # describes some other run
    pending: set | None = None
    if manifest is not None:
        done = manifest.completed_keys()
        pending = {key for key in manifest.grid_keys() if key not in done}
    figure = args.figure or "?"
    if pending:
        print(
            f"partial sweep: {len(pending)} of "
            f"{len(manifest.grid_keys())} cell(s) pending (no shard has "
            "produced them yet)"
        )
    if sweep.dataset_stats and sweep.x_name == "dataset":
        print(render_table1(sweep.dataset_stats))
    print(render_sweep(sweep, figure, pending=pending))
    if args.plot:
        print("\n".join(_line_plots(sweep, figure)))
    return 0
