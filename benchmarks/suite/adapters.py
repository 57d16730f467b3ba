"""Every import from ``repro`` the suite makes lives in this module.

Two surfaces, kept apart on purpose:

* the **end-to-end surface** is imported eagerly.  It is the handful of
  public entry points a batch user, a library caller and an online
  client go through; if one of them disappears the benchmark cannot
  run and says so at import time (exit code 2, no result line);
* the **probe surface** is resolved lazily by :func:`probe`.  Probes
  time single layers in the traced pass; a later simplification may
  delete a probe-only symbol, and the metric then reads *missing* with
  the reason instead of crashing the suite.
"""

from __future__ import annotations

import importlib
import sys

from harness import ROOT, ProbeMissing

SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    # Measure this checkout's source, never a copy installed elsewhere.
    raise SystemExit(f"benchmarks/suite: no program to measure under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# -- end-to-end surface -------------------------------------------------
from repro.core.experiments import graph_count_sweep  # noqa: E402
from repro.core.loadgen import Scenario, post_query, run_load  # noqa: E402
from repro.core.presets import CI_PROFILE  # noqa: E402
from repro.core.runner import make_method  # noqa: E402
from repro.core.serialization import sweep_digest  # noqa: E402
from repro.generators.graphgen import GraphGenConfig, generate_dataset  # noqa: E402
from repro.generators.queries import generate_queries  # noqa: E402
from repro.generators.rmat import RMATConfig, generate_massive_dataset  # noqa: E402
from repro.graphs.csr import as_core_dataset, as_core_query  # noqa: E402
from repro.graphs.dataset import GraphDataset  # noqa: E402
from repro.graphs.io import dumps_dataset, write_dataset  # noqa: E402
from repro.utils.budget import Budget, BudgetExceeded  # noqa: E402

__all__ = [
    "SRC",
    "Budget",
    "BudgetExceeded",
    "CI_PROFILE",
    "GraphDataset",
    "GraphGenConfig",
    "ProbeMissing",
    "RMATConfig",
    "Scenario",
    "as_core_dataset",
    "as_core_query",
    "dumps_dataset",
    "generate_dataset",
    "generate_massive_dataset",
    "generate_queries",
    "graph_count_sweep",
    "make_method",
    "post_query",
    "probe",
    "run_load",
    "sweep_digest",
    "uniform_graphs",
    "write_dataset",
]


def uniform_graphs(graphs: int, nodes: int, density: float, labels: int):
    """A ``GraphGenConfig`` whose graphs differ little in size and density.

    GraphGen's default deviations (5 nodes, 0.01 density) suit the
    paper's 200-node graphs; on 24-40 nodes they make one dataset's
    feature count differ from the next seed's by 10-20 %, which would
    drown any change in build time, index size or memory.  The labels,
    the wiring and the queries still change with every seed.
    """
    return GraphGenConfig(
        num_graphs=graphs,
        mean_nodes=nodes,
        mean_density=density,
        num_labels=labels,
        nodes_stddev=1.0,
        density_stddev=0.002,
    )


def probe(path: str):
    """Resolve ``"package.module:attr.attr"`` or raise :class:`ProbeMissing`."""
    module_name, _, attrs = path.partition(":")
    try:
        target = importlib.import_module(module_name)
        for attr in attrs.split("."):
            target = getattr(target, attr)
    except (ImportError, AttributeError) as exc:
        raise ProbeMissing(f"{path}: {type(exc).__name__}: {exc}") from exc
    return target
