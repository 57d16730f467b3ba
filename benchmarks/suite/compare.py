"""``run.py compare BASE NEW``: did NEW regress against BASE?

Each side is one result document written by the suite, or a directory
of them (several runs of one commit).  Per workload and end-to-end
metric it prints each side's median and quartiles and a verdict against
the metric's bound in ``BENCHMARK.json``:

``ok``
    NEW's median is no worse than BASE's by more than the bound.
``regressed``
    it is worse by more than the bound, and the runs resolve it: both
    sides' spreads fit inside the bound, or every NEW run reads worse
    than every BASE run.
``unresolved``
    a side's run-to-run spread (inter-quartile distance over median) is
    wider than the bound, so neither "unchanged" nor "regressed" can be
    claimed — unless every NEW run reads better than every BASE run,
    which is ``ok``.

Exit code 1 on any ``regressed`` and on any rise of a workload's share
of failed operations; ``unresolved`` is printed but does not fail.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from harness import CATALOG, spread

__all__ = ["main", "verdict"]


def load_side(path: str) -> list[dict]:
    """The result documents of one side: a file, or every file in a directory."""
    target = Path(path)
    files = sorted(target.glob("result-*.json")) if target.is_dir() else [target]
    if not files:
        raise SystemExit(f"compare: no result-*.json under {path}")
    return [json.loads(file.read_text(encoding="utf-8")) for file in files]


def samples(documents: list[dict], workload: str, metric: str) -> list[float]:
    return [
        run["metrics"][metric]["value"]
        for document in documents
        for run in [document["workloads"].get(workload, {}).get("end_to_end")]
        if run is not None
    ]


def fail_ratio(documents: list[dict], workload: str) -> float:
    runs = [
        run
        for document in documents
        for run in document["workloads"].get(workload, {}).values()
    ]
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    worse = sign * (new_median - base_median) / abs(base_median)
    wide = max(spread(base), spread(new)) > bound
    all_worse = min(sign * v for v in new) > max(sign * v for v in base)
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if worse > bound:
        return "regressed" if not wide or all_worse else "unresolved"
    if wide and not all_better:
        return "unresolved"
    return "ok"


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.5g}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE NEW   (result files or directories of them)")
        return 2
    base, new = load_side(argv[0]), load_side(argv[1])
    status = 0
    for workload in (entry["name"] for entry in CATALOG["workloads"]):
        for metric in CATALOG["end_to_end"]:
            name = metric["name"]
            old, now = samples(base, workload, name), samples(new, workload, name)
            if not old or not now:
                continue
            outcome = verdict(old, now, metric["better"], metric["bound"])
            status |= outcome == "regressed"
            print(
                f"{workload:16s} {name:14s} {quartiles(old):>34s} -> "
                f"{quartiles(now):<34s} {metric['unit']:5s} {outcome}"
            )
        before, after = fail_ratio(base, workload), fail_ratio(new, workload)
        if after > before:
            status = 1
            print(f"{workload:16s} fail_ratio     {before:.6g} -> {after:.6g}  regressed")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
