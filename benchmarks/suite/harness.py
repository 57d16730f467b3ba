"""Shared plumbing: the metric catalog, statistics, the workload protocol.

``BENCHMARK.json`` at the checkout root is the single catalog of
workloads, metric names, units, directions and bounds; nothing here
repeats it.  A workload produces values keyed by name and the runner
checks them against the catalog.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer

__all__ = [
    "CATALOG",
    "Check",
    "ProbeMissing",
    "ROOT",
    "Round",
    "Workload",
    "default_out_dir",
    "mean",
    "nearest_rank",
    "peak_rss_mb",
    "scrub_environment",
    "spread",
]

#: The checkout root: ``benchmarks/suite/harness.py`` -> two levels up.
ROOT = Path(__file__).resolve().parents[2]
CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Set-up runs this many times per untraced run; ``setup_s`` (and
#: ``build_s``, which set-up measures) report the median.
SETUP_REPS = 3


class ProbeMissing(LookupError):
    """A probe-only symbol no longer exists; carries the reason."""


def default_out_dir() -> Path:
    """``.benchmarks/suite`` under the checkout root (git-ignored)."""
    return ROOT / ".benchmarks" / "suite"


def scrub_environment() -> list[str]:
    """Drop every ``REPRO_*`` variable so defaults are what is measured."""
    scrubbed = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in scrubbed:
        del os.environ[key]
    return scrubbed


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile of *values* (``0 < q <= 1``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def mean(values) -> float:
    """Arithmetic mean; 0 for an empty sample (a layer that did no work)."""
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def peak_rss_mb(extra_kb: float = 0.0) -> float:
    """Largest resident set of this process, its waited-for children and
    *extra_kb* (a daemon's ``VmHWM``), in MB of 10**6 bytes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children, extra_kb) * 1024 / 1e6


@dataclass(slots=True)
class Check:
    """One correctness check: how many items it looked at, how many failed."""

    name: str
    attempted: int
    failed: int
    detail: str = ""


@dataclass(slots=True)
class Round:
    """One slice of the timed phase: its latencies, successes and length."""

    latencies_ms: list[float]
    operations: int
    seconds: float


@dataclass
class Workload:
    """One benchmark workload; subclasses fill in the five phases.

    The runner drives them in this order: ``setup`` (timed; repeated with
    ``teardown`` in between), ``measure`` (the timed phase), ``check``
    (untimed), ``end_to_end`` or ``per_layer``, and a final ``teardown``.
    """

    name: str
    seed: int
    quick: bool
    out_dir: Path
    tracer: Tracer
    #: Wall-clock of every set-up repetition, and of the index builds
    #: inside each (the cold-start cost a user pays once).
    setup_seconds: list[float] = field(default_factory=list)
    build_seconds: list[float] = field(default_factory=list)
    #: The timed phase, round by round.  Latency percentiles and
    #: throughput are taken per round and the median round is reported,
    #: so a burst of noise on the machine spoils one round, not the run.
    rounds: list[Round] = field(default_factory=list)
    failed_operations: int = 0
    index_bytes: int = 0
    #: A daemon's peak resident set in kB, when the workload has one.
    daemon_rss_kb: float = 0.0
    #: Per-layer metrics whose probe symbol is gone: name -> reason.
    missing: dict[str, str] = field(default_factory=dict)
    tmp_dir: Path | None = None

    # -- phases subclasses implement ------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def check(self) -> list[Check]:
        raise NotImplementedError

    def per_layer(self, seconds: float) -> dict[str, float]:
        """The traced pass: spans around layer calls plus probes."""
        raise NotImplementedError

    def teardown(self) -> None:
        self.remove_tmp_dir()

    # -- helpers ---------------------------------------------------------

    def run_setup(self, reps: int) -> None:
        """Set up *reps* times, tearing down in between; keep the last."""
        for rep in range(reps):
            if rep:
                self.teardown()
            gc.collect()
            started = time.perf_counter()
            self.setup()
            self.setup_seconds.append(time.perf_counter() - started)

    def guarded(self, names: tuple[str, ...], probe_layer, values: dict) -> None:
        """Add one probe's metrics to *values*; if a symbol it needs is
        gone, mark *names* missing with the reason instead."""
        try:
            values.update(probe_layer())
        except ProbeMissing as exc:
            for name in names:
                self.missing[name] = str(exc)

    def min_rounds(self) -> int:
        """Rounds the timed phase runs even past its deadline."""
        return 1 if self.quick else 3

    def latencies_ms(self) -> list[float]:
        """Every latency of the timed phase, pooled over its rounds."""
        return [ms for round_ in self.rounds for ms in round_.latencies_ms]

    def make_tmp_dir(self) -> Path:
        """A fresh scratch directory under ``--out``; removed by teardown."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.tmp_dir = Path(
            tempfile.mkdtemp(prefix=f"tmp-{self.name}-", dir=self.out_dir)
        )
        return self.tmp_dir

    def remove_tmp_dir(self) -> None:
        if self.tmp_dir is not None:
            shutil.rmtree(self.tmp_dir, ignore_errors=True)
            self.tmp_dir = None

    def end_to_end(self) -> dict[str, float]:
        """The metrics every workload reports from an untraced run."""
        return {
            "setup_s": statistics.median(self.setup_seconds),
            "build_s": statistics.median(self.build_seconds),
            "index_mb": self.index_bytes / 1e6,
            "query_p50_ms": statistics.median(
                nearest_rank(round_.latencies_ms, 0.50) for round_ in self.rounds
            ),
            "query_p90_ms": statistics.median(
                nearest_rank(round_.latencies_ms, 0.90) for round_ in self.rounds
            ),
            "query_qps": statistics.median(
                round_.operations / round_.seconds for round_ in self.rounds
            ),
            "peak_rss_mb": peak_rss_mb(self.daemon_rss_kb),
        }
