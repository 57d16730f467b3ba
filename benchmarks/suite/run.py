"""One seeded benchmark for the batch sweep, the query engines and the daemon.

Three ways in, one file:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload, in a child of this interpreter that the
    parent outlives with everything it started.  ``--trace 0`` measures
    the end-to-end metrics with tracing off; ``--trace 1`` repeats the
    workload with spans around every layer call and reports the
    per-layer metrics.  The last line of standard output is one JSON
    object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``run.py --seed N [--workload NAME] [--out DIR] [--no-trace] [--quick]``
    The whole suite: every workload in its own child interpreter (so
    peak memory and in-process caches do not leak between workloads),
    both passes, every metric printed by name with its unit, and one
    JSON document written under ``--out``.

``run.py compare BASE NEW``
    Medians, quartiles and a verdict per workload and end-to-end metric;
    see ``compare.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import harness

SUITE_DIR = Path(__file__).resolve().parent

#: Timed-phase length of a ``--quick`` run.
QUICK_SECONDS = 0.3
#: Set iteration order follows string hashes, which Python randomizes
#: per process; left alone, two identical runs differ by up to 10 % in
#: query latency.  Every measuring process runs under this hash seed.
HASH_SEED = "0"
#: Set in the environment of the child a supervisor runs the workload in.
SUPERVISED = "SUITE_SUPERVISED"
#: ``prctl`` option: orphaned descendants are re-parented to the caller.
PR_SET_CHILD_SUBREAPER = 36
#: How long orphans get to end by themselves before they are killed.
GRACE_SECONDS = 10.0


def provenance(args, scrubbed: list[str]) -> dict:
    import numpy

    commit = "unknown"
    if (harness.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(harness.ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scrubbed_env": scrubbed,
    }


# ----------------------------------------------------------------------
# one workload, one pass, one interpreter
# ----------------------------------------------------------------------


def run_workload(args) -> int:
    from tracing import Tracer
    from workloads import make_workload

    scrubbed = harness.scrub_environment()
    traced = args.trace == 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(args.workload, enabled=traced)
    workload = make_workload(
        args.workload, seed=args.seed, quick=args.quick, out_dir=out_dir, tracer=tracer
    )
    declared = harness.CATALOG["per_layer" if traced else "end_to_end"]
    try:
        # The traced pass sets up once: its spans are the measurement,
        # and a repeated set-up would only repeat them.
        workload.run_setup(1 if traced or args.quick else harness.SETUP_REPS)
        if traced:
            values = workload.per_layer(args.seconds)
        else:
            workload.measure(args.seconds)
        checks = workload.check()
        if not traced:
            # After the checks: stopping a daemon records its peak memory.
            values = workload.end_to_end()
    finally:
        workload.teardown()
        if traced:
            tracer.write(out_dir / f"trace-{args.workload}.jsonl")

    unknown = sorted(set(values) - {metric["name"] for metric in declared})
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    # A per-layer metric of a layer this workload never enters reads 0:
    # no work done there.  End-to-end metrics are never absent.
    absent = [m["name"] for m in declared if m["name"] not in values]
    if absent and not traced:
        raise SystemExit(f"end-to-end metrics not measured: {absent}")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        note = ""
        if name in workload.missing:
            note = f"  (missing: {workload.missing[name]})"
        elif name in absent:
            note = "  (layer not entered)"
        print(f"{args.workload:16s} {name:36s} {value:14.6g} {unit}{note}")
    for check in checks:
        verdict = "ok" if check.failed == 0 else f"FAILED {check.failed} {check.detail}"
        print(f"{args.workload:16s} check {check.name:34s} {check.attempted:8d}  {verdict}")
    failed = sum(check.failed for check in checks)
    result = {
        "correct": failed == 0,
        "attempted": sum(check.attempted for check in checks),
        "failed": failed,
        "metrics": metrics,
    }
    sidecar = {
        **result,
        "workload": args.workload,
        "trace": args.trace,
        "checks": [
            {"name": c.name, "attempted": c.attempted, "failed": c.failed} for c in checks
        ],
        "missing": workload.missing,
        "not_entered": sorted(set(absent) - set(workload.missing)),
        "spans": len(tracer.spans),
        "provenance": provenance(args, scrubbed),
    }
    (out_dir / f"run-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(sidecar, indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# the whole suite: one child interpreter per workload and pass
# ----------------------------------------------------------------------


def run_suite(args) -> int:
    declared = [workload["name"] for workload in harness.CATALOG["workloads"]]
    if args.workload and args.workload not in declared:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one of {declared}")
    names = [args.workload] if args.workload else declared
    out_dir = Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    document = {"schema": "repro-suite-v1", "workloads": {}}
    status = 0
    for name in names:
        entry = document["workloads"][name] = {}
        for trace in (0,) if args.no_trace else (0, 1):
            command = [
                sys.executable, str(SUITE_DIR / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(out_dir),
            ] + (["--quick"] if args.quick else [])
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # Everything but the child's result line, which the document repeats.
            print(*child.stdout.splitlines()[:-1], sep="\n")
            sidecar = out_dir / f"run-{name}-trace{trace}.json"
            if child.returncode != 0 or not sidecar.exists():
                print(f"{name}: pass --trace {trace} exited with {child.returncode}")
                status = 1
            if sidecar.exists():
                run = json.loads(sidecar.read_text(encoding="utf-8"))
                sidecar.unlink()
                document.setdefault("provenance", run["provenance"])
                entry["per_layer" if trace else "end_to_end"] = run
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = out_dir / f"result-{stamp}-seed{args.seed}-{os.getpid()}.json"
    path.write_text(json.dumps(document, indent=1), encoding="utf-8")
    print(json.dumps(document))
    print(f"wrote {path}", file=sys.stderr)
    return status


# ----------------------------------------------------------------------
# the supervisor: nothing a run started outlives it
# ----------------------------------------------------------------------


def children_of(pid: int) -> list[int]:
    """Every live process whose parent is *pid*."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we looked
        state, parent = stat[stat.rindex(")") + 2 :].split()[:2]
        if int(parent) == pid and state != "Z":
            found.append(int(entry))
    return found


def supervise() -> int:
    """Run this command line again in a child, string hashing pinned
    (pool workers and the daemon inherit it), and return only when every
    process that child started has ended.

    The sweep's shared-memory arenas start multiprocessing's resource
    tracker, which notices its parent's exit and follows it a few
    milliseconds *later*; a workload that dies half-way could leave its
    daemon behind for good.  As a child subreaper this process inherits
    every such orphan: it waits for each, and kills what is still
    running ``GRACE_SECONDS`` after the workload has ended.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, the direct child is still waited for
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, **{SUPERVISED: "1"})
    child = subprocess.Popen([sys.executable, *sys.argv], env=env)
    try:
        return child.wait()
    finally:
        if child.returncode is None:
            child.terminate()  # interrupted: its finally clauses stop the daemon
        deadline = time.monotonic() + GRACE_SECONDS
        while True:
            try:
                reaped, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break  # no child left, adopted ones included
            if reaped == 0:
                if time.monotonic() > deadline:
                    for straggler in children_of(os.getpid()):
                        try:
                            os.kill(straggler, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                time.sleep(0.005)


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        from compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7, help="every input derives from it")
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument(
        "--out", default=str(harness.default_out_dir()),
        help="directory for traces, results and scratch files",
    )
    parser.add_argument("--no-trace", action="store_true", help="skip the traced pass")
    parser.add_argument("--quick", action="store_true", help="small shapes, short timed phase")
    parser.add_argument("--seconds", type=float, help="length of the timed phase")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="run one pass of --workload (0: end to end, 1: per layer)",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = (
            QUICK_SECONDS if args.quick else float(harness.CATALOG["run_seconds"])
        )
    if args.trace is None:
        return run_suite(args)
    if not args.workload:
        parser.error("--trace needs --workload")
    # An interrupted run unwinds through its finally clauses.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if os.environ.get(SUPERVISED) != "1":
        return supervise()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
