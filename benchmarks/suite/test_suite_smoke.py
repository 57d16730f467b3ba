"""Smoke test of the benchmark suite: ``--quick`` end to end, then ``compare``.

Everything goes through the command line, as the benchmark's users do;
nothing is imported from the suite, so these tests cannot disturb (or
be disturbed by) module names elsewhere in the test session.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: The correctness checks each workload must have run.
EXPECTED_CHECKS = {
    "sweep_graphs": {
        "cells-ok", "warm-digest-equals-cold", "warm-reruns-build-nothing",
        "methods-agree", "candidates-superset-of-answers", "answers-equal-naive",
        "no-arena-survives",
    },
    "txn_selective": {
        "budget-expiries", "candidates-superset-of-answers", "methods-agree",
        "answers-equal-naive",
    },
    "serve_read": {
        "responses-200", "responses-equal-batch-engine", "server-update-count",
        "daemon-drains-and-exits-0",
    },
    "serve_mixed": {
        "responses-200", "updates-applied", "final-answers-equal-cold-build",
        "server-update-count", "daemon-drains-and-exits-0",
    },
}
EXPECTED_CHECKS["txn_dense"] = EXPECTED_CHECKS["txn_selective"]
EXPECTED_CHECKS["massive_rmat12"] = EXPECTED_CHECKS["txn_selective"]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SUITE / "run.py"), *args],
        capture_output=True, text=True, timeout=600,
    )


def git_status() -> str | None:
    """``git status --porcelain`` of the checkout, or None outside git."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    return subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain"],
        capture_output=True, text=True, check=True,
    ).stdout


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def test_benchmark_json_names_are_well_formed():
    names = [w["name"] for w in CATALOG["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [metric["name"] for metric in CATALOG[group]]
        assert all(metric["unit"] for metric in CATALOG[group])
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert any(m["name"] == "setup_s" for m in CATALOG["end_to_end"])


def test_quick_suite_is_complete_correct_and_hermetic(tmp_path):
    tracked_before, segments_before = git_status(), shm_segments()
    finished = run_cli("--seed", "7", "--quick", "--out", str(tmp_path))
    assert finished.returncode == 0, finished.stdout[-4000:] + finished.stderr[-4000:]

    (result,) = tmp_path.glob("result-*.json")
    document = json.loads(result.read_text(encoding="utf-8"))
    assert document["provenance"]["seed"] == 7
    assert {"commit", "nproc", "python", "numpy", "scrubbed_env"} <= set(
        document["provenance"]
    )
    declared = {
        group: {metric["name"]: metric["unit"] for metric in CATALOG[group]}
        for group in ("end_to_end", "per_layer")
    }
    assert set(document["workloads"]) == {w["name"] for w in CATALOG["workloads"]}
    for workload, passes in document["workloads"].items():
        for group, units in declared.items():
            run = passes[group]
            assert run["correct"] and run["failed"] == 0, (workload, group, run["checks"])
            assert run["attempted"] >= 1
            emitted = {name: value["unit"] for name, value in run["metrics"].items()}
            assert emitted == units, (workload, group)
            assert all(
                isinstance(value["value"], (int, float))
                for value in run["metrics"].values()
            )
            assert {c["name"] for c in run["checks"]} == EXPECTED_CHECKS[workload]
            assert run["missing"] == {}, (workload, run["missing"])
        assert all(v["value"] > 0 for v in passes["end_to_end"]["metrics"].values())
        assert passes["per_layer"]["spans"] > 0
        spans = [
            json.loads(line)
            for line in (tmp_path / f"trace-{workload}.jsonl").read_text().splitlines()
        ]
        assert {"name", "start", "end", "parent", "workload"} <= set(spans[0])
        assert all(span["workload"] == workload for span in spans)

    # The layers separate as the workloads were built to make them.
    layers = {
        workload: {
            name: value["value"]
            for name, value in passes["per_layer"]["metrics"].items()
        }
        for workload, passes in document["workloads"].items()
    }
    assert layers["massive_rmat12"]["isomorphism.vf2.calls"] == 0
    assert layers["massive_rmat12"]["isomorphism.ullmann.roots"] > 0
    for workload in ("txn_selective", "txn_dense"):
        assert layers[workload]["isomorphism.ullmann.roots"] == 0
        assert layers[workload]["isomorphism.vf2.calls"] > 0
    assert layers["serve_read"]["serve.update.client_ms_p50"] == 0
    assert layers["serve_mixed"]["serve.update.client_ms_p50"] > 0

    # Hermetic: scratch directories gone, no shared-memory segment left,
    # no tracked file touched.
    assert not list(tmp_path.glob("tmp-*"))
    assert shm_segments() <= segments_before
    assert git_status() == tracked_before

    same = run_cli("compare", str(result), str(result))
    assert same.returncode == 0, same.stdout
    verdicts = [line.split()[-1] for line in same.stdout.splitlines()]
    assert verdicts and set(verdicts) == {"ok"}


#: Runs ``argv[1:]`` as a child subreaper, so that whatever outlives the
#: command is re-parented here, and prints those survivors' pids.
ORPHAN_WATCH = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
mine = []
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        stat = open(f"/proc/{pid}/stat").read()
    except OSError:
        continue
    if int(stat[stat.rindex(")") + 2:].split()[1]) == os.getpid():
        mine.append(int(pid))
print(child.wait(), sorted(set(mine) - {child.pid}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl and /proc")
def test_nothing_a_run_started_outlives_it(tmp_path):
    # The sweep's arenas start multiprocessing's resource tracker, which
    # ends only after the interpreter that started it.
    watched = subprocess.run(
        [
            sys.executable, "-c", ORPHAN_WATCH, sys.executable, str(SUITE / "run.py"),
            "--workload", "sweep_graphs", "--seed", "7", "--quick", "--trace", "0",
            "--out", str(tmp_path),
        ],
        capture_output=True, text=True, timeout=600,
    )
    assert watched.stdout.split(maxsplit=1) == ["0", "[]\n"], watched.stdout + watched.stderr


P50_BOUND = next(
    metric["bound"] for metric in CATALOG["end_to_end"] if metric["name"] == "query_p50_ms"
)


def synthetic_result(p50: float = 10.0, failed: int = 0) -> dict:
    metrics = {
        metric["name"]: {"value": 5.0, "unit": metric["unit"]}
        for metric in CATALOG["end_to_end"]
    }
    metrics["query_p50_ms"]["value"] = p50
    run = {"attempted": 1000, "failed": failed, "metrics": metrics}
    return {"workloads": {"txn_dense": {"end_to_end": run}}}


@pytest.mark.parametrize(
    "new, expected_code, expected_line",
    [
        (synthetic_result(), 0, None),
        (synthetic_result(p50=10.0 * (1 + P50_BOUND + 0.05)), 1, ("query_p50_ms", "regressed")),
        (synthetic_result(p50=10.0 * (1 + P50_BOUND - 0.05)), 0, None),
        (synthetic_result(p50=8.0), 0, None),
        (synthetic_result(failed=1), 1, ("fail_ratio", "regressed")),
    ],
    ids=["same", "p50-beyond-bound", "p50-within-bound", "p50-faster", "one-failure"],
)
def test_compare_flags_regressions(tmp_path, new, expected_code, expected_line):
    (tmp_path / "base").mkdir()
    (tmp_path / "new").mkdir()
    for index in range(3):
        (tmp_path / "base" / f"result-{index}.json").write_text(
            json.dumps(synthetic_result())
        )
        (tmp_path / "new" / f"result-{index}.json").write_text(json.dumps(new))
    finished = run_cli("compare", str(tmp_path / "base"), str(tmp_path / "new"))
    assert finished.returncode == expected_code, finished.stdout
    lines = [line.split() for line in finished.stdout.splitlines()]
    flagged = [(line[1], line[-1]) for line in lines if line[-1] != "ok"]
    assert flagged == ([expected_line] if expected_line else [])


def test_compare_reports_wide_spreads_as_unresolved(tmp_path):
    (tmp_path / "base").mkdir()
    (tmp_path / "new").mkdir()
    for index, p50 in enumerate((6.0, 10.0, 14.0)):
        for side in ("base", "new"):
            (tmp_path / side / f"result-{index}.json").write_text(
                json.dumps(synthetic_result(p50=p50))
            )
    finished = run_cli("compare", str(tmp_path / "base"), str(tmp_path / "new"))
    assert finished.returncode == 0, finished.stdout
    flagged = [
        (line.split()[1], line.split()[-1])
        for line in finished.stdout.splitlines()
        if line.split()[-1] != "ok"
    ]
    assert flagged == [("query_p50_ms", "unresolved")]
