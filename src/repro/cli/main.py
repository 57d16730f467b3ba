"""Argument parsing and dispatch for the ``repro`` CLI."""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.cli import commands
from repro.core.experiments import EXPERIMENTS

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Indexed subgraph query processing: six methods, one "
            "evaluation framework (PVLDB 8(12), 2015 reproduction)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic or stand-in dataset file"
    )
    generate.add_argument("output", help="output dataset file (.gfd)")
    generate.add_argument("--graphs", type=int, default=100)
    generate.add_argument("--nodes", type=int, default=24)
    generate.add_argument("--density", type=float, default=0.12)
    generate.add_argument("--labels", type=int, default=6)
    generate.add_argument(
        "--real",
        choices=["AIDS", "PDBS", "PCM", "PPI"],
        help="generate a Table 1 stand-in instead of GraphGen output",
    )
    generate.add_argument("--scale", type=float, default=1.0,
                          help="shrink factor for --real stand-ins")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=commands.cmd_generate)

    stats = subparsers.add_parser("stats", help="print a dataset's Table 1 row")
    stats.add_argument("dataset", help="dataset file (.gfd)")
    stats.set_defaults(handler=commands.cmd_stats)

    queries = subparsers.add_parser(
        "queries", help="generate a random-walk query workload"
    )
    queries.add_argument("dataset", help="dataset file (.gfd)")
    queries.add_argument("output", help="output query file (.gfd)")
    queries.add_argument("--count", type=int, default=10)
    queries.add_argument("--edges", type=int, default=8)
    queries.add_argument("--seed", type=int, default=0)
    queries.set_defaults(handler=commands.cmd_queries)

    build = subparsers.add_parser("build", help="build an index over a dataset")
    build.add_argument("dataset", help="dataset file (.gfd)")
    build.add_argument(
        "--method",
        action="append",
        required=True,
        help="index method name (repeatable: batch several builds)",
    )
    build.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="method constructor option (repeatable; applies to every "
        "--method that accepts it)",
    )
    build.add_argument("--budget", type=float, help="build time budget (s)")
    build.add_argument("--save", help="persist the built index to this file "
                       "(single --method only)")
    build.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to spread multiple --method builds over "
        "(default 1 = sequential; 0 = all cores)",
    )
    build.add_argument(
        "--index-store",
        metavar="DIR",
        help="content-addressed index artifact store: reuse a matching "
        "prebuilt index instead of building, and store fresh builds "
        "for later commands",
    )
    build.set_defaults(handler=commands.cmd_build)

    query = subparsers.add_parser(
        "query", help="run a query workload through one or more methods"
    )
    query.add_argument("dataset", help="dataset file (.gfd)")
    query.add_argument("queries", help="query file (.gfd)")
    query.add_argument(
        "--method",
        action="append",
        default=[],
        help="method name (repeatable; default: all)",
    )
    query.add_argument("--load", help="load a persisted index instead of building")
    query.add_argument("--budget", type=float, help="per-workload budget (s)")
    query.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="method constructor option (repeatable; applies to every "
        "--method that accepts it)",
    )
    query.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to spread the per-method build+query "
        "pipelines over (default 1 = sequential; 0 = all cores)",
    )
    query.add_argument(
        "--index-store",
        metavar="DIR",
        help="content-addressed index artifact store: reuse matching "
        "prebuilt indexes instead of building, and store fresh builds "
        "for later commands",
    )
    query.add_argument(
        "--regime",
        choices=["transactional", "single-graph"],
        help="query answer form: transactional graph ids (default) or "
        "single-graph embedding roots over a one-graph dataset",
    )
    query.set_defaults(handler=commands.cmd_query)

    sweep = subparsers.add_parser(
        "sweep", help="run one or more of the paper's sweeps (Figures 1-6)"
    )
    sweep.add_argument(
        "experiment",
        nargs="+",
        choices=list(EXPERIMENTS),
        help="which parameter sweep(s) to run; several experiments share "
        "one persistent worker pool (massive = single-graph R-MAT "
        "regime, answers are embedding roots)",
    )
    sweep.add_argument(
        "--method",
        action="append",
        default=[],
        help="restrict every selected sweep to this method (repeatable; "
        "default: the profile's full roster)",
    )
    sweep.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="KEY=VALUE[,KEY=VALUE...]",
        help="run only the matching cells (keys: method, x, or the "
        "sweep's axis name — nodes/density/labels/graphs/dataset/scale; "
        "repeatable, values of one key OR together, keys AND)",
    )
    sweep.add_argument(
        "--shard",
        metavar="I/N",
        help="run only the I-th of N deterministic shards of each "
        "sweep's cell grid (1-based; requires --json for the manifest)",
    )
    sweep.add_argument(
        "--cells",
        action="append",
        default=[],
        metavar="X:METHOD[,X:METHOD...]",
        help="run only these exact grid cells (the driver's cost-"
        "balanced shard assignments; repeatable; requires --json; "
        "mutually exclusive with --shard; the manifest still records "
        "the full grid so driver shards merge like stride shards)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip cells recorded in the manifest beside --json and run "
        "only the missing ones (their measured seconds recalibrate the "
        "scheduler's cost estimates)",
    )
    sweep.add_argument(
        "--history",
        metavar="FILE",
        help="cross-invocation cost history (JSONL): load measured "
        "per-cell seconds from FILE to calibrate the scheduler without "
        "--resume, and append the cells this run executes afterwards "
        "(appending needs --json, since the timings come from the "
        "manifest; without it the flag only calibrates)",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for (method x dataset) cells "
        "(default 1 = sequential; 0 = all cores)",
    )
    sweep.add_argument(
        "--shared-mem",
        action="store_true",
        help="pack each dataset once into a shared-memory arena instead "
        "of pickling it per task",
    )
    sweep.add_argument(
        "--batch-queries",
        action="store_true",
        help="split each cell's query workload into per-worker batches "
        "(deterministic merge)",
    )
    sweep.add_argument(
        "--index-store",
        metavar="DIR",
        help="content-addressed index artifact store shared by cells, "
        "workers, and invocations: a cell whose (method, params, "
        "dataset) artifact exists skips its build and reports the "
        "original build's provenance; fresh builds are stored",
    )
    sweep.add_argument(
        "--no-index-reuse",
        action="store_true",
        help="force paper-faithful rebuilds (fresh measured build "
        "timings) even when --index-store holds a matching artifact; "
        "fresh builds are still written to the store",
    )
    sweep.add_argument("--out", help="directory for rendered outputs")
    sweep.add_argument("--plot", action="store_true", help="ASCII plots too")
    sweep.add_argument(
        "--json",
        help="also save raw results as JSON plus a resumable/mergeable "
        "shard manifest beside it (with several experiments, the "
        "experiment name is appended to both file names)",
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.set_defaults(handler=commands.cmd_sweep)

    launch = subparsers.add_parser(
        "launch",
        help="orchestrate a sharded sweep: cost-balanced shard "
        "assignment, concurrent shard execution, automatic merge with "
        "a digest check, all resumable via a driver run manifest",
    )
    launch.add_argument(
        "experiment",
        choices=list(EXPERIMENTS),
        help="which parameter sweep to orchestrate",
    )
    launch.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="N",
        help="number of shards to partition the cell grid into "
        "(default 2; shards left empty by the partition are skipped)",
    )
    launch.add_argument(
        "--assign",
        choices=["balanced", "stride"],
        default="balanced",
        help="shard assignment strategy: greedy longest-processing-time "
        "over estimated per-cell seconds (calibrated by --history "
        "when given), or the cost-blind stride partition --shard uses; "
        "both merge to byte-identical sweeps",
    )
    launch.add_argument(
        "--executor",
        choices=["local", "inprocess"],
        default="local",
        help="how shards run: concurrent local subprocesses (default) "
        "or sequential in-process calls (debugging)",
    )
    launch.add_argument(
        "--method",
        action="append",
        default=[],
        help="restrict the sweep to this method (repeatable; default: "
        "the profile's full roster)",
    )
    launch.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="KEY=VALUE[,KEY=VALUE...]",
        help="orchestrate only the matching cells (same selector "
        "language as 'repro sweep --only'; passed through to every "
        "shard)",
    )
    launch.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per shard sweep (default 1 = sequential; "
        "0 = all cores)",
    )
    launch.add_argument(
        "--history",
        metavar="FILE",
        help="cross-invocation cost history (JSONL): calibrate the "
        "cost-balanced assignment with measured per-cell seconds from "
        "FILE, and append the merged run's executed cells afterwards",
    )
    launch.add_argument(
        "--resume",
        action="store_true",
        help="resume a previous launch: reuse its recorded shard "
        "assignment, skip shards whose manifests are complete, pass "
        "--resume to incomplete ones, and verify the merged digest "
        "matches the recorded one",
    )
    launch.add_argument(
        "--shared-mem",
        action="store_true",
        help="pass --shared-mem through to every shard sweep",
    )
    launch.add_argument(
        "--batch-queries",
        action="store_true",
        help="pass --batch-queries through to every shard sweep",
    )
    launch.add_argument(
        "--index-store",
        metavar="DIR",
        help="content-addressed index artifact store shared by every "
        "shard (passed through to the shard sweeps; 'repro merge' "
        "cross-checks the recorded artifact addresses)",
    )
    launch.add_argument(
        "--no-index-reuse",
        action="store_true",
        help="pass --no-index-reuse through to every shard sweep",
    )
    launch.add_argument(
        "--json",
        required=True,
        help="merged sweep output file; shard JSONs, shard manifests, "
        "per-shard logs, and the resumable .driver.json run manifest "
        "are written beside it",
    )
    launch.add_argument(
        "--seed",
        type=int,
        default=0,
        help="RNG seed passed to every shard sweep",
    )
    launch.set_defaults(handler=commands.cmd_launch)

    merge = subparsers.add_parser(
        "merge",
        help="stitch shard manifests from 'sweep --shard' back into one "
        "sweep result",
    )
    merge.add_argument(
        "manifest",
        nargs="+",
        help="shard manifest files (the .manifest.json written beside "
        "each shard's --json output)",
    )
    merge.add_argument(
        "--json",
        required=True,
        help="output file for the merged sweep JSON (a merged manifest "
        "is written beside it)",
    )
    merge.add_argument(
        "--allow-partial",
        action="store_true",
        help="merge even when some grid cells are missing (the output "
        "stays mergeable and resumable)",
    )
    merge.set_defaults(handler=commands.cmd_merge)

    index = subparsers.add_parser(
        "index",
        help="inspect and manage a content-addressed index artifact "
        "store (ls, rm, gc)",
    )
    # --index-store and --max-bytes are declared on this parser (so the
    # docs audit and `repro index --help` see them) AND on the
    # subcommands below with SUPPRESS defaults, so both argument orders
    # parse: `repro index --index-store DIR ls` and
    # `repro index ls --index-store DIR`.
    index.add_argument(
        "--index-store",
        metavar="DIR",
        help="the artifact store directory to operate on (required)",
    )
    index.add_argument(
        "--max-bytes",
        type=int,
        metavar="N",
        help="gc only: evict oldest artifacts until the store fits N "
        "bytes",
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_ls = index_sub.add_parser(
        "ls", help="list the store's artifacts with provenance"
    )
    index_ls.add_argument(
        "--index-store", metavar="DIR", default=argparse.SUPPRESS
    )
    index_ls.set_defaults(handler=commands.cmd_index_ls)
    index_rm = index_sub.add_parser(
        "rm", help="remove artifacts by content address"
    )
    index_rm.add_argument(
        "address", nargs="+", help="artifact address(es) from 'repro index ls'"
    )
    index_rm.add_argument(
        "--index-store", metavar="DIR", default=argparse.SUPPRESS
    )
    index_rm.set_defaults(handler=commands.cmd_index_rm)
    index_gc = index_sub.add_parser(
        "gc",
        help="drop corrupt/stale artifacts and optionally enforce a "
        "size cap",
    )
    index_gc.add_argument(
        "--index-store", metavar="DIR", default=argparse.SUPPRESS
    )
    index_gc.add_argument(
        "--max-bytes", type=int, metavar="N", default=argparse.SUPPRESS
    )
    index_gc.set_defaults(handler=commands.cmd_index_gc)

    serve = subparsers.add_parser(
        "serve",
        help="run the online query daemon: load a dataset, warm one "
        "index per method (from the artifact store when possible), and "
        "answer subgraph queries over HTTP until SIGTERM/SIGINT drains "
        "it",
    )
    serve.add_argument("dataset", help="dataset file (.gfd) to serve")
    serve.add_argument(
        "--method",
        action="append",
        default=[],
        help="method to warm and serve (repeatable; default: all)",
    )
    serve.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="method constructor option (repeatable; applies to every "
        "--method that accepts it)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; 0.0.0.0 exposes "
        "the daemon beyond localhost)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8572,
        metavar="N",
        help="TCP port to bind (default 8572; 0 picks an ephemeral "
        "port, announced on stdout)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the warm-up builds (default 1 = "
        "sequential; 0 = all cores); queries are answered by request "
        "threads either way",
    )
    serve.add_argument(
        "--index-store",
        metavar="DIR",
        help="content-addressed index artifact store: serve matching "
        "prebuilt indexes instead of building at startup, and store "
        "fresh builds for later daemons and sweeps",
    )
    serve.add_argument(
        "--no-index-reuse",
        action="store_true",
        help="build fresh at startup even when --index-store holds a "
        "matching artifact (fresh builds are still written through)",
    )
    serve.set_defaults(handler=commands.cmd_serve)

    bench = subparsers.add_parser(
        "bench",
        help="drive performance benchmarks against the serving tier "
        "(bench serve: declarative load scenarios with KPI assertions)",
    )
    # Like `repro index`, the shared flags are declared on this parser
    # (docs audit + `repro bench --help`) AND on the subcommand with
    # SUPPRESS defaults, so both argument orders parse.
    bench.add_argument(
        "--dataset",
        metavar="FILE",
        help="dataset file (.gfd) — required to self-host a daemon or "
        "to --verify answers against the batch engine",
    )
    bench.add_argument(
        "--queries",
        metavar="FILE",
        help="query workload file (.gfd) the load is drawn from "
        "(required)",
    )
    bench.add_argument(
        "--url",
        metavar="URL",
        help="target a running 'repro serve' daemon (e.g. "
        "http://127.0.0.1:8572); omitted = self-host an in-process "
        "daemon over --dataset for the duration of the run",
    )
    bench.add_argument(
        "--method",
        metavar="NAME",
        help="method the requests target (overrides the scenario's "
        "'method:' line)",
    )
    bench.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="method constructor option for self-hosted/--verify "
        "builds (repeatable)",
    )
    bench.add_argument(
        "--index-store",
        metavar="DIR",
        help="artifact store for self-hosted/--verify builds (warm "
        "startups, like 'repro serve --index-store')",
    )
    bench.add_argument(
        "--updates",
        metavar="FILE",
        help="graph pool (.gfd) for mixed read/write scenarios: when the "
        "scenario sets 'update_every: N', every Nth request slot posts "
        "the next pooled graph to the daemon's /update endpoint instead "
        "of querying",
    )
    bench.add_argument(
        "--verify",
        action="store_true",
        help="after the load run, answer every workload query through "
        "the batch engine in-process and fail unless the daemon's "
        "answers are identical (with --updates, the comparison engine "
        "is built cold over the post-update dataset)",
    )
    bench.add_argument(
        "--json",
        metavar="FILE",
        help="write the run's metrics + KPI outcomes as a benchmark "
        "trajectory point (e.g. BENCH_pr7.json)",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_serve = bench_sub.add_parser(
        "serve",
        help="run a declarative load scenario against the query daemon "
        "and assert its KPIs",
    )
    bench_serve.add_argument(
        "scenario",
        help="scenario file: 'key: value' lines (name, method, clients, "
        "requests, rps, timeout_seconds, update_every) plus repeatable "
        "'kpi: METRIC <= N' / 'kpi: METRIC >= N' assertions",
    )
    for flag, kwargs in (
        ("--dataset", {"metavar": "FILE"}),
        ("--queries", {"metavar": "FILE"}),
        ("--url", {"metavar": "URL"}),
        ("--method", {"metavar": "NAME"}),
        ("--option", {"action": "append", "metavar": "KEY=VALUE"}),
        ("--index-store", {"metavar": "DIR"}),
        ("--updates", {"metavar": "FILE"}),
        ("--verify", {"action": "store_true"}),
        ("--json", {"metavar": "FILE"}),
    ):
        bench_serve.add_argument(flag, default=argparse.SUPPRESS, **kwargs)
    bench_serve.set_defaults(handler=commands.cmd_bench_serve)

    report = subparsers.add_parser(
        "report",
        help="re-render a sweep saved with 'sweep --json' or 'merge' "
        "(partial sharded runs render with explicit 'pending' cells)",
    )
    report.add_argument(
        "results",
        help="JSON file from 'sweep --json', 'launch', or 'merge' — or "
        "a shard .manifest.json, rendered as a partial grid with "
        "'pending' markers for cells no shard has produced yet",
    )
    report.add_argument("--plot", action="store_true", help="ASCII plots too")
    report.add_argument(
        "--figure", default="", help="figure number label (e.g. 2)"
    )
    report.set_defaults(handler=commands.cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        commands.resolve_regime(args)
        return args.handler(args)
    except commands.CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
