"""Grid sharding: cell selectors, shard manifests, resume, and merge.

The paper's figure grid is a (method × dataset) matrix whose cells are
independent, and the ROADMAP's north star is fleet-scale reproduction —
the route distributed subgraph-matching systems take is to split the
grid across machines and merge deterministic partial results.  PR 2's
canonical JSON and ``sweep_digest`` made partial sweeps diffable; this
module makes them **shardable, resumable, and mergeable** without
changing a single result byte:

* :class:`CellSelector` — the ``--only`` selector language
  (``method=ggsx,graphs=40``): per-key value sets, ANDed across keys
  and ORed within a key, always narrowing the grid to a rectangular
  (x values × methods) subgrid.  Unknown keys, unknown methods, and
  selections matching no cells are all loud :class:`SelectorError`\\ s.
* :class:`ShardSpec` — a deterministic ``i/n`` partition of the
  subgrid's cells (stride ``n`` over grid order, so every shard gets a
  mix of x values and methods).  Shards are disjoint and cover the
  grid; shard ``1/1`` is the whole grid.
* :class:`CellAssignment` — the ``--cells`` language: an *arbitrary*
  explicit cell set, the shape cost-balanced driver shards
  (:mod:`repro.core.driver`) need and neither stride shards nor
  rectangular selectors can express.
* :class:`ShardManifest` — the canonical-JSON record of one (partial)
  run: the subgrid, every completed cell with its timing-free digest,
  its measured seconds, its static cost units, and the content address
  of its index build in the artifact store
  (:mod:`repro.indexes.store`), when one was used.  Manifests are the
  unit of resume (skip completed cells), of merge (stitch shards), and
  of the cost-model feedback loop (:func:`cost_history` feeds measured
  seconds back into :func:`repro.core.scheduling.estimate_cost`).
* :func:`merge_manifests` — stitches shard manifests back into one
  :class:`~repro.core.experiments.SweepResult` whose canonical JSON is
  byte-identical (same ``sweep_digest``) to an unsharded run of the
  same subgrid.  Overlapping shards must agree: two manifests claiming
  the same cell with different digests raise a :class:`MergeError`
  naming the cell.
* :class:`SweepPlan` — what the sweep functions consume: selector +
  shard + resume manifest, applied while generating tasks so datasets
  of fully skipped x values are never even generated.

Determinism contract: cells are canonical (timing-free content is a
pure function of method, dataset, and workloads), datasets are a pure
function of ``(profile, x, seed)``, and merged sweeps list cells and
dataset statistics in grid order (x outer, method inner) — exactly the
insertion order of a sequential unsharded run.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.experiments import EXPERIMENTS, SweepResult
from repro.core.runner import MethodCell
from repro.core.scheduling import CostHistory
from repro.core.serialization import (
    canonical_cell,
    cell_from_dict,
    cell_to_dict,
    stats_from_dict,
    stats_to_dict,
    x_key,
)
from repro.utils.hashing import stable_digest

__all__ = [
    "MANIFEST_SCHEMA",
    "CellAssignment",
    "CellSelector",
    "ManifestCell",
    "ManifestError",
    "MergeError",
    "SelectorError",
    "ShardManifest",
    "ShardSpec",
    "SweepPlan",
    "cell_digest",
    "cell_seconds",
    "cost_history",
    "load_manifest",
    "manifest_for",
    "manifest_path_for",
    "manifest_from_json",
    "manifest_records",
    "manifest_to_json",
    "merge_manifests",
    "parse_cells",
    "parse_only",
    "parse_shard",
    "save_manifest",
]

MANIFEST_SCHEMA = "repro-shard-manifest-v1"
_MANIFEST_SCHEMA = MANIFEST_SCHEMA

#: Figure x-axis label -> the selector key that addresses it.
_AXIS_KEYS = {
    experiment.x_name: experiment.axis_key for experiment in EXPERIMENTS.values()
}

#: Every key the selector language accepts.
_KNOWN_KEYS = ("method", "x") + tuple(_AXIS_KEYS.values())


class SelectorError(ValueError):
    """A ``--only`` selector that cannot be applied: unknown key,
    unknown value, key for the wrong sweep axis, or empty selection."""


class ManifestError(ValueError):
    """A shard manifest that cannot be read or does not fit this run."""


class MergeError(ValueError):
    """Shard manifests that cannot be stitched: incompatible grids,
    divergent overlapping cells, or (unless allowed) missing cells."""


# ----------------------------------------------------------------------
# the --only selector language
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CellSelector:
    """A rectangular grid restriction: key -> accepted string values.

    Keys are ANDed, values of one key are ORed, and every value is
    matched against ``str(x)`` (for axis keys) or the method name — so
    ``method=ggsx,method=naive,graphs=40`` selects the {ggsx, naive} ×
    {40} subgrid of the graph-count sweep.
    """

    #: (key, accepted values) sorted by key — the canonical form.
    clauses: tuple[tuple[str, tuple[str, ...]], ...]

    @classmethod
    def parse(cls, specs: Sequence[str]) -> "CellSelector":
        """Parse one or more ``--only`` arguments (comma-separated
        ``KEY=VALUE`` clauses each).  Unknown keys fail loudly."""
        values_of: dict[str, list[str]] = {}
        for spec in specs:
            for clause in spec.split(","):
                clause = clause.strip()
                if not clause:
                    continue
                key, separator, value = clause.partition("=")
                key, value = key.strip(), value.strip()
                if not separator or not key or not value:
                    raise SelectorError(
                        f"--only expects KEY=VALUE clauses, got {clause!r}"
                    )
                if key not in _KNOWN_KEYS:
                    known = ", ".join(_KNOWN_KEYS)
                    raise SelectorError(
                        f"unknown selector key {key!r}; expected one of {known}"
                    )
                bucket = values_of.setdefault(key, [])
                if value not in bucket:
                    bucket.append(value)
        if not values_of:
            raise SelectorError("--only selects nothing (no clauses given)")
        return cls(
            clauses=tuple(
                (key, tuple(values)) for key, values in sorted(values_of.items())
            )
        )

    def as_dict(self) -> dict[str, list[str]]:
        """JSON shape of the selector (also its equality identity)."""
        return {key: list(values) for key, values in self.clauses}

    def narrow(
        self, x_values: Sequence, methods: Sequence[str], x_name: str
    ) -> tuple[list, list[str]]:
        """Apply the selector to one sweep's grid.

        Returns the selected ``(x values, methods)`` in original order.
        A value matching nothing it could ever match — a method not in
        the roster, an x value not on this sweep's axis — is rejected
        loudly rather than silently selecting zero cells.
        """
        axis_key = _AXIS_KEYS.get(x_name, "x")
        selected_x = list(x_values)
        selected_methods = list(methods)
        for key, values in self.clauses:
            if key == "method":
                unknown = [v for v in values if v not in methods]
                if unknown:
                    roster = ", ".join(methods)
                    raise SelectorError(
                        f"--only method={unknown[0]!r} is not in this sweep's "
                        f"roster ({roster})"
                    )
                selected_methods = [m for m in methods if m in values]
            elif key in (axis_key, "x"):
                known = {str(x) for x in x_values}
                unknown = [v for v in values if v not in known]
                if unknown:
                    axis = ", ".join(str(x) for x in x_values)
                    raise SelectorError(
                        f"--only {key}={unknown[0]!r} matches no x value of "
                        f"this sweep (axis {x_name!r}: {axis})"
                    )
                # Intersect with any previous axis clause (the alias and
                # the generic 'x' key AND together, like distinct keys).
                selected_x = [x for x in selected_x if str(x) in values]
            else:
                raise SelectorError(
                    f"selector key {key!r} does not apply to this sweep "
                    f"(its x axis is {x_name!r}, addressed as "
                    f"{axis_key!r} or 'x')"
                )
        if not selected_x or not selected_methods:
            raise SelectorError("--only selects no cells")
        return selected_x, selected_methods


def parse_only(specs: Sequence[str] | None) -> CellSelector | None:
    """``--only`` arguments -> selector (``None`` when no flags given)."""
    if not specs:
        return None
    return CellSelector.parse(specs)


# ----------------------------------------------------------------------
# shard specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """Shard ``index`` (1-based) of ``count`` equal stride partitions."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SelectorError(f"--shard needs at least 1 shard, got {self.count}")
        if not 1 <= self.index <= self.count:
            raise SelectorError(
                f"--shard index must be in 1..{self.count}, got {self.index}"
            )

    def take(self, keys: Sequence) -> list:
        """This shard's share of *keys*: every ``count``-th cell starting
        at ``index - 1``.  Stride (rather than contiguous blocks) mixes
        x values and methods within each shard, balancing load without
        a cost model.  Shards are disjoint and jointly cover *keys*."""
        return list(keys[self.index - 1 :: self.count])

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


def parse_shard(text: str | None) -> ShardSpec | None:
    """Parse an ``I/N`` shard argument (``None`` passes through)."""
    if text is None:
        return None
    head, separator, tail = text.partition("/")
    try:
        if not separator:
            raise ValueError
        index, count = int(head), int(tail)
    except ValueError:
        raise SelectorError(f"--shard expects I/N (e.g. 2/8), got {text!r}")
    return ShardSpec(index=index, count=count)


# ----------------------------------------------------------------------
# explicit cell assignments (cost-balanced driver shards)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CellAssignment:
    """An explicit list of grid cells one invocation must run.

    :class:`ShardSpec` can only express stride partitions, and
    :class:`CellSelector` only rectangular subgrids — but cost-balanced
    shard assignment (:mod:`repro.core.driver`) hands each shard an
    *arbitrary* cell set.  ``--cells`` carries that set: ``X:METHOD``
    entries matched against ``str(x)`` and the method roster, exactly
    like selector values.  The assignment restricts which cells
    *execute*; the manifest still records the full (selector-narrowed)
    grid, so driver shards merge like stride shards do.
    """

    #: ``(str(x), method)`` entries, in the order given (deduplicated).
    entries: tuple[tuple[str, str], ...]

    @classmethod
    def parse(cls, specs: Sequence[str]) -> "CellAssignment":
        """Parse one or more ``--cells`` arguments (comma-separated
        ``X:METHOD`` entries each)."""
        entries: list[tuple[str, str]] = []
        for spec in specs:
            for item in spec.split(","):
                item = item.strip()
                if not item:
                    continue
                x, separator, method = item.rpartition(":")
                x, method = x.strip(), method.strip()
                if not separator or not x or not method:
                    raise SelectorError(
                        f"--cells expects X:METHOD entries, got {item!r}"
                    )
                if (x, method) not in entries:
                    entries.append((x, method))
        if not entries:
            raise SelectorError("--cells selects nothing (no entries given)")
        return cls(entries=tuple(entries))

    @classmethod
    def of(cls, keys: Sequence[tuple]) -> "CellAssignment":
        """An assignment covering exactly *keys* (driver side)."""
        return cls(entries=tuple((str(x), method) for x, method in keys))

    def spec(self) -> str:
        """The ``--cells`` argument reproducing this assignment."""
        return ",".join(f"{x}:{method}" for x, method in self.entries)

    def resolve(
        self, x_values: Sequence, methods: Sequence[str], x_name: str = "x"
    ) -> list[tuple]:
        """The grid keys this assignment names, in grid order.

        Every entry must match a cell of the (already selector-narrowed)
        grid — an entry matching nothing is rejected loudly, because a
        silently dropped cell would surface much later as a mysterious
        merge-completeness failure.
        """
        x_by_str = {str(x): x for x in x_values}
        wanted: set[tuple] = set()
        for x_str, method in self.entries:
            if x_str not in x_by_str:
                axis = ", ".join(str(x) for x in x_values)
                raise SelectorError(
                    f"--cells entry {x_str}:{method} matches no x value of "
                    f"this sweep (axis {x_name!r}: {axis})"
                )
            if method not in methods:
                roster = ", ".join(methods)
                raise SelectorError(
                    f"--cells entry {x_str}:{method} names a method not in "
                    f"this sweep's roster ({roster})"
                )
            wanted.add((x_by_str[x_str], method))
        return [
            (x, method)
            for x in x_values
            for method in methods
            if (x, method) in wanted
        ]


def parse_cells(specs: Sequence[str] | None) -> CellAssignment | None:
    """``--cells`` arguments -> assignment (``None`` when no flags given)."""
    if not specs:
        return None
    return CellAssignment.parse(specs)


# ----------------------------------------------------------------------
# per-cell derived quantities
# ----------------------------------------------------------------------


def cell_digest(cell: MethodCell) -> str:
    """Timing-free content digest of one cell.

    The per-cell analog of :func:`repro.core.serialization.sweep_digest`:
    two runs of the same (method, dataset, workloads) agree on it in
    every execution mode, so it is the currency shards use to prove
    they computed the same thing.
    """
    payload = json.dumps(cell_to_dict(canonical_cell(cell)), sort_keys=True)
    return f"{stable_digest(payload.encode('utf-8')):016x}"


def cell_seconds(cell: MethodCell) -> float:
    """Measured seconds of one completed cell: build time plus every
    workload's total query time.  Derivable from the cell alone, so it
    is identical in sequential, pooled, arena, and batched modes."""
    total = cell.build_seconds or 0.0
    for size_stats in cell.per_size.values():
        if size_stats.stats is not None:
            total += size_stats.stats.total_query_seconds()
    return total


# ----------------------------------------------------------------------
# shard manifests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestCell:
    """One completed cell as a manifest records it."""

    x: object
    method: str
    #: :func:`cell_digest` of the cell — the cross-shard agreement check.
    digest: str
    #: :func:`cell_seconds` — the cost-model feedback signal.
    seconds: float
    #: Static :func:`~repro.core.scheduling.estimate_cost` units the
    #: scheduler assigned when the cell ran (0.0 when unrecorded).
    cost_units: float
    cell: MethodCell
    #: Content address of the cell's index build in the artifact store
    #: (:func:`repro.indexes.store.artifact_address`; "" when the cell
    #: ran without a store or its build failed).  Deterministic — a
    #: cold and a warm run of the same cell record the same address.
    artifact: str = ""

    @property
    def key(self) -> tuple:
        return (self.x, self.method)


@dataclass
class ShardManifest:
    """Canonical record of one (possibly partial) sweep run.

    Everything a later invocation needs: the full subgrid identity (to
    refuse resuming/merging the wrong run), the completed cells with
    digests and timings (to skip, stitch, and schedule), and the
    dataset statistics of every x value the run touched."""

    experiment: str
    x_name: str
    x_values: list
    methods: list[str]
    query_sizes: tuple[int, ...]
    seed: int
    profile: str
    #: Canonical selector mapping (``{}`` = the full grid).
    selector: dict[str, list[str]] = field(default_factory=dict)
    #: ``(index, count)`` or ``None`` for an unsharded run.
    shard: tuple[int, int] | None = None
    #: Resolved grid keys of an explicit ``--cells`` assignment, or
    #: ``None`` when the whole (sharded) grid ran.  Part of the resume
    #: identity — a driver shard must resume with the same cell set —
    #: but *not* of the merge identity: shards with different
    #: assignments stitch together by design.
    assignment: list[tuple] | None = None
    cells: list[ManifestCell] = field(default_factory=list)
    #: x value -> DatasetStatistics for every x with at least one cell.
    dataset_stats: dict = field(default_factory=dict)

    def grid_keys(self) -> list[tuple]:
        """Every (x, method) of the subgrid, in grid order."""
        return [(x, m) for x in self.x_values for m in self.methods]

    def completed_keys(self) -> set[tuple]:
        return {entry.key for entry in self.cells}

    def grid_identity(self) -> tuple:
        """What two manifests must agree on to describe the same run."""
        return (
            self.experiment,
            self.x_name,
            tuple(self.x_values),
            tuple(self.methods),
            tuple(self.query_sizes),
            self.seed,
            self.profile,
            tuple((k, tuple(v)) for k, v in sorted(self.selector.items())),
        )


def manifest_for(
    sweep: SweepResult,
    experiment: str,
    seed: int,
    profile: str,
    selector: CellSelector | None = None,
    shard: ShardSpec | None = None,
    assignment: CellAssignment | None = None,
) -> ShardManifest:
    """Build the manifest of a just-finished (partial) *sweep*."""
    cells = [
        ManifestCell(
            x=x,
            method=method,
            digest=cell_digest(cell),
            seconds=cell_seconds(cell),
            cost_units=float(sweep.cost_units.get((x, method), 0.0)),
            cell=cell,
            artifact=str(cell.provenance.get("artifact", "")),
        )
        for (x, method), cell in sweep.cells.items()
    ]
    return ShardManifest(
        experiment=experiment,
        x_name=sweep.x_name,
        x_values=list(sweep.x_values),
        methods=list(sweep.methods),
        query_sizes=tuple(sweep.query_sizes),
        seed=seed,
        profile=profile,
        selector=selector.as_dict() if selector is not None else {},
        shard=(shard.index, shard.count) if shard is not None else None,
        assignment=None
        if assignment is None
        else assignment.resolve(sweep.x_values, sweep.methods, sweep.x_name),
        cells=cells,
        dataset_stats=dict(sweep.dataset_stats),
    )


def manifest_to_json(manifest: ShardManifest) -> str:
    """Canonical JSON of a manifest: fixed field order, grid-ordered
    cells, stable x keying — diffable across machines like the sweep
    JSON itself (only the measured ``seconds`` and the execution-mode
    ``artifact`` provenance vary run to run)."""
    order = {key: i for i, key in enumerate(manifest.grid_keys())}
    cells = sorted(manifest.cells, key=lambda entry: order.get(entry.key, -1))
    document = {
        "schema": _MANIFEST_SCHEMA,
        "experiment": manifest.experiment,
        "x_name": manifest.x_name,
        "x_values": manifest.x_values,
        "methods": manifest.methods,
        "query_sizes": list(manifest.query_sizes),
        "seed": manifest.seed,
        "profile": manifest.profile,
        "selector": {k: manifest.selector[k] for k in sorted(manifest.selector)},
        "shard": None
        if manifest.shard is None
        else {"index": manifest.shard[0], "count": manifest.shard[1]},
        "assignment": None
        if manifest.assignment is None
        else [[x, method] for x, method in manifest.assignment],
        "cells": [
            {
                "x": entry.x,
                "method": entry.method,
                "digest": entry.digest,
                "seconds": entry.seconds,
                "cost_units": entry.cost_units,
                "artifact": entry.artifact,
                "cell": cell_to_dict(entry.cell),
            }
            for entry in cells
        ],
        "dataset_stats": {
            x_key(x): stats_to_dict(stats)
            for x, stats in sorted(
                manifest.dataset_stats.items(),
                key=lambda item: _stat_order(manifest.x_values, item[0]),
            )
        },
    }
    return json.dumps(document, indent=2, sort_keys=False)


def _stat_order(x_values: Sequence, x: object) -> int:
    try:
        return x_values.index(x)
    except ValueError:  # pragma: no cover - stats for an off-grid x
        return len(x_values)


def manifest_from_json(text: str) -> ShardManifest:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"not valid JSON: {exc}")
    if document.get("schema") != _MANIFEST_SCHEMA:
        raise ManifestError(f"not a {_MANIFEST_SCHEMA} document")
    try:
        return _manifest_from_document(document)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ManifestError(
            f"malformed {_MANIFEST_SCHEMA} document: {type(exc).__name__}: {exc}"
        )


def _manifest_from_document(document: dict) -> ShardManifest:
    shard = document.get("shard")
    assignment = document.get("assignment")
    manifest = ShardManifest(
        experiment=document["experiment"],
        x_name=document["x_name"],
        x_values=document["x_values"],
        methods=document["methods"],
        query_sizes=tuple(document["query_sizes"]),
        seed=document["seed"],
        profile=document.get("profile", ""),
        selector={k: list(v) for k, v in document.get("selector", {}).items()},
        shard=None if shard is None else (shard["index"], shard["count"]),
        assignment=None
        if assignment is None
        else [(entry[0], entry[1]) for entry in assignment],
    )
    for entry in document.get("cells", []):
        cell = cell_from_dict(entry["cell"])
        artifact = str(entry.get("artifact", ""))
        if artifact:
            # Provenance is execution metadata (excluded from digests);
            # restoring it keeps merged manifests' artifact column full.
            cell.provenance["artifact"] = artifact
        manifest.cells.append(
            ManifestCell(
                x=entry["x"],
                method=entry["method"],
                digest=entry["digest"],
                seconds=entry["seconds"],
                cost_units=entry.get("cost_units", 0.0),
                cell=cell,
                artifact=artifact,
            )
        )
    x_by_key = {x_key(x): x for x in manifest.x_values}
    for key, stats in document.get("dataset_stats", {}).items():
        manifest.dataset_stats[x_by_key.get(key, key)] = stats_from_dict(stats)
    return manifest


def save_manifest(manifest: ShardManifest, path: str | Path) -> None:
    Path(path).write_text(manifest_to_json(manifest), encoding="utf-8")


def load_manifest(path: str | Path) -> ShardManifest:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ManifestError(f"manifest file not found: {path}")
    try:
        return manifest_from_json(text)
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}")


def manifest_path_for(json_path: str | Path) -> Path:
    """Where a sweep's manifest lives: beside its ``--json`` file
    (``out.json`` -> ``out.manifest.json``)."""
    path = Path(json_path)
    return path.with_name(f"{path.stem}.manifest.json")


def manifest_records(manifest: ShardManifest) -> list[tuple]:
    """The manifest's cells as raw ``(key, method, seconds, units)``
    cost records — the currency :class:`CostHistory` is built from.
    Exposed separately from :func:`cost_history` so callers can splice
    several evidence sources (a ``--history`` file, a resume manifest)
    into one calibrator; later records win on exact keys."""
    return [
        (entry.key, entry.method, entry.seconds, entry.cost_units)
        for entry in manifest.cells
    ]


def cost_history(manifest: ShardManifest) -> CostHistory:
    """The manifest's measured cell seconds as a scheduling calibrator
    — the feedback loop that replaces the static dataset×queries
    estimate wherever history exists."""
    return CostHistory(manifest_records(manifest))


# ----------------------------------------------------------------------
# merging shards back into one sweep
# ----------------------------------------------------------------------


def merge_manifests(
    manifests: Sequence[ShardManifest], require_complete: bool = True
) -> tuple[SweepResult, ShardManifest]:
    """Stitch shard manifests into one sweep plus its merged manifest.

    All manifests must describe the same subgrid (experiment, axis,
    x values, methods, query sizes, seed, selector).  Overlapping
    cells must agree on their digest — two shards disagreeing on one
    cell raise a :class:`MergeError` naming it, because a divergent
    cell means the shards did not run the same deterministic
    computation and *neither* result can be trusted into the merged
    sweep.  With ``require_complete`` (the default) every grid cell
    must be covered; pass ``False`` to fold a partial set of shards
    into a partial (further mergeable, resumable) result.

    The merged sweep lists cells and dataset statistics in grid order,
    so its canonical JSON is byte-identical to an unsharded run's.
    """
    if not manifests:
        raise MergeError("nothing to merge: no manifests given")
    reference = manifests[0]
    for other in manifests[1:]:
        if other.grid_identity() != reference.grid_identity():
            raise MergeError(
                "manifests describe different runs: "
                f"{_identity_diff(reference, other)}"
            )
    chosen: dict[tuple, ManifestCell] = {}
    for manifest in manifests:
        for entry in manifest.cells:
            recomputed = cell_digest(entry.cell)
            if recomputed != entry.digest:
                raise MergeError(
                    f"corrupt manifest: cell ({reference.x_name}={entry.x}, "
                    f"method={entry.method}) carries digest {entry.digest} "
                    f"but its payload hashes to {recomputed}"
                )
            existing = chosen.get(entry.key)
            if existing is None:
                chosen[entry.key] = entry
            elif existing.digest != entry.digest:
                raise MergeError(
                    f"shards diverge on cell ({reference.x_name}={entry.x}, "
                    f"method={entry.method}): digest {existing.digest} != "
                    f"{entry.digest}"
                )
            elif (
                existing.artifact
                and entry.artifact
                and existing.artifact != entry.artifact
            ):
                # The artifact address is a pure function of (method,
                # index params, dataset content), so two shards of one
                # run disagreeing on it means they built their indexes
                # from different inputs — even though the cells' result
                # digests happen to agree.
                raise MergeError(
                    f"shards diverge on cell ({reference.x_name}={entry.x}, "
                    f"method={entry.method})'s index artifact address: "
                    f"{existing.artifact} != {entry.artifact}"
                )
            elif entry.artifact and not existing.artifact:
                # Agreeing duplicates: prefer the entry that knows its
                # artifact address, keeping the merged column full.
                chosen[entry.key] = entry
    grid = reference.grid_keys()
    missing = [key for key in grid if key not in chosen]
    if missing and require_complete:
        shown = ", ".join(
            f"({reference.x_name}={x}, method={m})" for x, m in missing[:5]
        )
        more = "" if len(missing) <= 5 else f" (+{len(missing) - 5} more)"
        raise MergeError(
            f"merged shards cover {len(chosen)}/{len(grid)} cells; "
            f"missing {shown}{more}"
        )
    stats: dict = {}
    for manifest in manifests:
        for x, entry_stats in manifest.dataset_stats.items():
            existing = stats.get(x)
            if existing is None:
                stats[x] = entry_stats
            elif existing != entry_stats:
                raise MergeError(
                    f"shards diverge on dataset statistics for "
                    f"{reference.x_name}={x}"
                )
    sweep = SweepResult(
        x_name=reference.x_name,
        x_values=list(reference.x_values),
        methods=list(reference.methods),
        query_sizes=tuple(reference.query_sizes),
    )
    for x in reference.x_values:
        if x in stats:
            sweep.dataset_stats[x] = stats[x]
    for key in grid:
        entry = chosen.get(key)
        if entry is not None:
            if entry.artifact:
                # The merged manifest re-derives its artifact column
                # from cell provenance; keep the two in sync even for
                # entries built in-memory rather than loaded from JSON.
                entry.cell.provenance["artifact"] = entry.artifact
            sweep.cells[key] = entry.cell
            sweep.cost_units[key] = entry.cost_units
    merged = manifest_for(
        sweep,
        experiment=reference.experiment,
        seed=reference.seed,
        profile=reference.profile,
    )
    merged.selector = dict(reference.selector)
    return sweep, merged


def _identity_diff(a: ShardManifest, b: ShardManifest) -> str:
    fields = (
        ("experiment", a.experiment, b.experiment),
        ("x_name", a.x_name, b.x_name),
        ("x_values", a.x_values, b.x_values),
        ("methods", a.methods, b.methods),
        ("query_sizes", a.query_sizes, b.query_sizes),
        ("seed", a.seed, b.seed),
        ("profile", a.profile, b.profile),
        ("selector", a.selector, b.selector),
    )
    for name, left, right in fields:
        if left != right:
            return f"{name} {left!r} != {right!r}"
    return "unknown difference"  # pragma: no cover - identity covers all fields


# ----------------------------------------------------------------------
# the plan a sweep executes under
# ----------------------------------------------------------------------


@dataclass
class SweepPlan:
    """Selector + shard + resume state, as the sweep functions see it.

    The sweep functions (:mod:`repro.core.experiments`) apply the plan
    while *generating* tasks: the grid narrows to the selector's
    subgrid, the shard keeps its stride of cells, manifest-completed
    cells are skipped, and x values left with no runnable cell never
    even generate their dataset.  :meth:`finalize` then folds the
    resumed cells back in and restores canonical grid ordering, so the
    saved result is indistinguishable from a fresh run of the whole
    shard.
    """

    selector: CellSelector | None = None
    shard: ShardSpec | None = None
    #: Explicit driver-style cell assignment (``--cells``): only these
    #: grid cells execute, while the manifest keeps the full grid.
    assignment: CellAssignment | None = None
    #: Manifest of a previous invocation of the *same* run to resume.
    resume: ShardManifest | None = None
    #: CLI identity, validated against ``resume`` (and recorded in the
    #: manifest written afterwards).
    experiment: str = ""
    seed: int = 0
    #: Active scale profile name — a CI-scale manifest must not resume
    #: a ``REPRO_SCALE=paper`` run (identical grids, different cells).
    profile: str = ""
    #: Measured-seconds calibration for the scheduler (defaults to the
    #: resume manifest's history).
    history: CostHistory | None = None

    def __post_init__(self) -> None:
        if self.history is None and self.resume is not None:
            self.history = cost_history(self.resume)

    # -- grid application ---------------------------------------------

    def subgrid(
        self, x_values: Sequence, methods: Sequence[str], x_name: str
    ) -> tuple[list, list[str]]:
        """The (x values, methods) this run addresses, selector applied."""
        xs, ms = list(x_values), list(methods)
        if self.selector is not None:
            xs, ms = self.selector.narrow(xs, ms, x_name)
        if self.assignment is not None:
            # Validate eagerly (and with the axis name) so a bad --cells
            # entry fails before any dataset is generated.
            self.assignment.resolve(xs, ms, x_name)
        if self.resume is not None:
            self._check_resume(xs, ms, x_name)
        return xs, ms

    def cells_to_run(
        self, x_values: Sequence, methods: Sequence[str]
    ) -> list[tuple]:
        """Grid-ordered keys this invocation must actually execute."""
        keys = [(x, m) for x in x_values for m in methods]
        if self.shard is not None:
            keys = self.shard.take(keys)
        if self.assignment is not None:
            assigned = set(self.assignment.resolve(x_values, methods))
            keys = [key for key in keys if key in assigned]
        if self.resume is not None:
            done = self.resume.completed_keys()
            keys = [key for key in keys if key not in done]
        return keys

    def finalize(self, result: SweepResult) -> None:
        """Fold resumed cells/stats back in; restore grid ordering."""
        if self.resume is not None:
            for entry in self.resume.cells:
                if entry.key not in result.cells:
                    # Execution metadata: this invocation neither built
                    # nor store-reused the cell — it was restored whole,
                    # and build summaries must say so.
                    entry.cell.provenance["resumed"] = True
                    result.cells[entry.key] = entry.cell
                if entry.cost_units:
                    result.cost_units.setdefault(entry.key, entry.cost_units)
            for x, stats in self.resume.dataset_stats.items():
                result.dataset_stats.setdefault(x, stats)
        result.cells = {
            (x, m): result.cells[(x, m)]
            for x in result.x_values
            for m in result.methods
            if (x, m) in result.cells
        }
        result.dataset_stats = {
            x: result.dataset_stats[x]
            for x in result.x_values
            if x in result.dataset_stats
        }

    # -- resume validation --------------------------------------------

    def _check_resume(
        self, x_values: list, methods: list[str], x_name: str
    ) -> None:
        manifest = self.resume
        assert manifest is not None
        expected = (
            self.experiment,
            x_name,
            tuple(x_values),
            tuple(methods),
            self.seed,
            self.profile,
            self.selector.as_dict() if self.selector is not None else {},
            (self.shard.index, self.shard.count) if self.shard is not None else None,
            None
            if self.assignment is None
            else tuple(self.assignment.resolve(x_values, methods, x_name)),
        )
        found = (
            manifest.experiment,
            manifest.x_name,
            tuple(manifest.x_values),
            tuple(manifest.methods),
            manifest.seed,
            manifest.profile,
            manifest.selector,
            manifest.shard,
            None
            if manifest.assignment is None
            else tuple(tuple(key) for key in manifest.assignment),
        )
        names = ("experiment", "x_name", "x_values", "methods", "seed",
                 "profile", "selector", "shard", "cells")
        for name, want, got in zip(names, expected, found):
            if want != got:
                raise ManifestError(
                    f"--resume manifest does not match this run: "
                    f"{name} {got!r} (manifest) != {want!r} (requested)"
                )
