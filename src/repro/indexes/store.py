"""Content-addressed index artifact store: build once, serve many.

The paper's dominant cost at scale is index *construction* (Figures
1a–6a: hours for gIndex/Tree+Δ on 10k+ graph datasets), yet queries
only ever need the finished structure.  Billion-scale systems therefore
make "build once, serve many" the core contract (Sun et al., *Efficient
Subgraph Matching on Billion Node Graphs*; Nabti & Seba, *Compact
Neighborhood Index for Subgraph Queries*).  This module is that
contract for the reproduction:

* An :class:`IndexArtifact` is one built index, split per the
  :class:`~repro.indexes.base.GraphIndex` artifact contract into a
  *header* (method, canonical ``index_params``, dataset content digest,
  provenance: measured build seconds, payload size, library version)
  and a *payload* (the index structure itself — trie, fingerprints, id
  lists — never the dataset, never the instance).
* The **content address** of an artifact is a pure function of
  ``(method, index_params, dataset_digest)``; two builds of the same
  configuration over the same data collide on purpose, which is what
  makes the artifact reusable across sweep cells, worker processes,
  and CLI invocations.
* An :class:`IndexStore` holds artifacts in two tiers: a bounded
  in-memory LRU (per process; payloads stay live object graphs) over
  an optional on-disk directory (one file per artifact, shareable
  across invocations and machines).  ``get`` promotes disk hits into
  memory; ``put`` writes through.

Reuse semantics: artifacts are stored immediately after a successful
build, so a materialized index answers queries exactly as the freshly
built one did — Tree+Δ's query-time feature adoption starts from the
same post-build state.  Build budgets are *not* re-enforced on reuse
(a reused artifact is a zero-cost build); budget-failed builds are
never stored.

Security note: payloads are pickles.  Only point ``--index-store`` at
directories you produced yourself — the same trust model as the
original systems' binary index files.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from repro import __version__
from repro.graphs.dataset import (
    GraphDataset,
    dataset_fingerprint,
    pack_dataset,
    unpack_dataset,
)
from repro.indexes import ALL_INDEX_CLASSES
from repro.indexes.base import BuildReport, GraphIndex
from repro.utils.budget import Budget
from repro.utils.hashing import stable_hash

__all__ = [
    "ArtifactProvenance",
    "IndexArtifact",
    "IndexStore",
    "IndexStoreError",
    "StoreStats",
    "IndexFileError",
    "artifact_address",
    "artifact_from_index",
    "clear_stores",
    "fetch_or_build",
    "lineage_address",
    "load_index",
    "materialize_artifact",
    "read_artifact",
    "read_artifact_header",
    "save_index",
    "shared_store",
    "strip_lineage",
    "write_artifact",
]

#: Artifact schema tag; bump when the on-disk layout changes.  Loading
#: any other tag is a loud "stale artifact" failure, never a guess.
#: v2: headers carry update lineage (parent address + delta digest).
_ARTIFACT_SCHEMA = "repro-index-artifact-v2"

#: Default capacity of the in-memory LRU tier, in artifacts.
_DEFAULT_MEMORY_ITEMS = 8


class IndexStoreError(RuntimeError):
    """An artifact that cannot be read or does not match its address."""


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ArtifactProvenance:
    """Where an artifact came from — carried in every header.

    ``build_seconds`` is the *measured* construction time of the build
    that produced the payload; consumers reusing the artifact report it
    instead of a fake near-zero re-measured timing.
    """

    #: Measured wall-clock seconds of the original build.
    build_seconds: float
    #: The original build's payload size estimate (``size_bytes``).
    size_bytes: int
    #: The original build's detail counters.
    details: dict = field(default_factory=dict)
    #: ``repro.__version__`` of the process that built the payload.
    library_version: str = __version__
    #: Unix timestamp of the original build (0.0 = unknown).  Excluded
    #: from equality: a cold build and a warm (store-served) rerun of
    #: the same configuration must compare equal in tests — when an
    #: artifact was built is bookkeeping, not identity.
    created_at: float = field(default=0.0, compare=False)


@dataclass(frozen=True, slots=True)
class ArtifactHeader:
    """Identity + provenance of one artifact (cheap to read alone)."""

    method: str
    #: Canonical ``index_params()`` items, sorted by key.
    index_params: tuple[tuple[str, object], ...]
    #: Content digest of the dataset the index was built over
    #: (:func:`repro.graphs.dataset.dataset_fingerprint`).
    dataset_digest: int
    num_graphs: int
    provenance: ArtifactProvenance
    #: Update lineage: the address of the artifact this one was derived
    #: from by an incremental ``update()`` ("" = a cold build), and the
    #: :func:`repro.graphs.dataset.delta_fingerprint` of the delta that
    #: derived it.
    parent: str = ""
    delta_digest: int = 0

    @property
    def address(self) -> str:
        # Updated artifacts live at a lineage address — a pure function
        # of (parent address, delta digest) — so `repro index ls` can
        # show derivation chains.  Cold builds keep the content address,
        # preserving gc's name == header.address invariant either way.
        if self.parent:
            return lineage_address(self.parent, self.delta_digest)
        return artifact_address(
            self.method, dict(self.index_params), self.dataset_digest
        )

    def params_dict(self) -> dict:
        return dict(self.index_params)


@dataclass(frozen=True, slots=True)
class IndexArtifact:
    """One built index: header plus the exported structure payload."""

    header: ArtifactHeader
    payload: object

    @property
    def address(self) -> str:
        return self.header.address

    @property
    def provenance(self) -> ArtifactProvenance:
        return self.header.provenance


def _params_key(params: Mapping) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(params.items()))


def artifact_address(method: str, params: Mapping, dataset_digest: int) -> str:
    """The content address of a build: ``method-dataset-params`` digests.

    A pure function of what determines the built structure — the method
    name, its canonical parameters, and the dataset's content digest —
    so equal builds collide (that's the reuse) and any difference in
    any component lands in a different file.
    """
    safe_method = "".join(c if c.isalnum() else "_" for c in method)
    params_digest = stable_hash(_params_key(params))
    return f"{safe_method}-{dataset_digest & 0xFFFFFFFFFFFFFFFF:016x}-{params_digest:016x}"


def lineage_address(parent_address: str, delta_digest: int) -> str:
    """The address of an updated artifact: pure in (parent, delta).

    Two updates of the same parent by equal deltas collide on purpose
    (that's the reuse); the method prefix is carried over from the
    parent so listings stay greppable by method.
    """
    method = parent_address.split("-", 1)[0]
    derived = stable_hash((parent_address, delta_digest & 0xFFFFFFFFFFFFFFFF))
    return f"{method}-upd-{derived:016x}"


def strip_lineage(artifact: IndexArtifact) -> IndexArtifact:
    """The same artifact re-addressed as a cold build.

    Because ``update()`` is byte-identical to a rebuild, an updated
    payload *is* the cold-build payload for the post-delta dataset; the
    serve tier dual-writes under this stripped (content) address so
    future cold starts over the new dataset reuse it.
    """
    import dataclasses

    header = dataclasses.replace(artifact.header, parent="", delta_digest=0)
    return IndexArtifact(header=header, payload=artifact.payload)


def artifact_from_index(
    index: GraphIndex,
    dataset_digest: int,
    created_at: float | None = None,
    clock=time.time,
    parent: str = "",
    delta_digest: int = 0,
) -> IndexArtifact:
    """Snapshot a **built** *index* into an artifact.

    The payload is the index structure only (`export_payload`); the
    header records the build's measured seconds and size as provenance.
    The ``created_at`` wall-clock stamp comes from *clock* (injectable
    for tests) unless given explicitly; measured build *durations* never
    touch the wall clock — they are ``perf_counter`` intervals from
    :class:`repro.utils.timing.Timer`.
    """
    report = index.build_report  # raises RuntimeError when unbuilt
    header = ArtifactHeader(
        method=index.name,
        index_params=_params_key(index.index_params()),
        dataset_digest=dataset_digest,
        num_graphs=len(index.dataset),
        provenance=ArtifactProvenance(
            build_seconds=report.seconds,
            size_bytes=report.size_bytes,
            details=dict(report.details),
            library_version=__version__,
            created_at=clock() if created_at is None else created_at,
        ),
        parent=parent,
        delta_digest=delta_digest if parent else 0,
    )
    return IndexArtifact(header=header, payload=index.export_payload())


def materialize_artifact(
    artifact: IndexArtifact, dataset: GraphDataset
) -> GraphIndex:
    """A fresh, queryable index instance backed by *artifact*.

    Raises
    ------
    IndexStoreError
        If the artifact's method is unknown or *dataset* visibly does
        not match the one the artifact was built over.
    """
    cls = ALL_INDEX_CLASSES.get(artifact.header.method)
    if cls is None:
        raise IndexStoreError(
            f"artifact {artifact.address}: unknown method "
            f"{artifact.header.method!r}"
        )
    if len(dataset) != artifact.header.num_graphs:
        raise IndexStoreError(
            f"artifact {artifact.address}: built over "
            f"{artifact.header.num_graphs} graphs, dataset has {len(dataset)}"
        )
    index = cls(**artifact.header.params_dict())
    provenance = artifact.provenance
    index.adopt_payload(
        artifact.payload,
        dataset,
        BuildReport(
            seconds=provenance.build_seconds,
            size_bytes=provenance.size_bytes,
            details=dict(provenance.details),
        ),
    )
    return index


# ----------------------------------------------------------------------
# single-file serialization (the disk tier's unit; also `repro build --save`)
# ----------------------------------------------------------------------


def write_artifact(
    path: str | Path, artifact: IndexArtifact, dataset_blob: bytes | None = None
) -> None:
    """Write one artifact file: schema, header, payload, optional dataset.

    The write is atomic (temp file + rename) so a crashed invocation
    never leaves a half-written artifact at the final address.  The
    temp name is unique per *writer* — pid for concurrent processes,
    thread id for the serve daemon's request threads — so concurrent
    putters of one address each rename their own complete file (last
    rename wins; the bytes are equal).
    *dataset_blob* (a :func:`repro.graphs.dataset.pack_dataset` buffer)
    makes the file standalone — ``repro build --save`` uses it so
    ``repro query --load`` works without re-reading the dataset.
    """
    path = Path(path)
    tmp = path.with_name(
        f".{path.name}.tmp{os.getpid()}-{threading.get_ident()}"
    )
    try:
        with open(tmp, "wb") as handle:
            pickle.dump(_ARTIFACT_SCHEMA, handle, protocol=pickle.HIGHEST_PROTOCOL)
            pickle.dump(artifact.header, handle, protocol=pickle.HIGHEST_PROTOCOL)
            pickle.dump(artifact.payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            pickle.dump(dataset_blob, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on failed writes
            tmp.unlink()


def _read_schema_and_header(handle, path) -> ArtifactHeader:
    # Unpickling hostile bytes can raise nearly anything (import errors
    # for vanished classes, IndexError from truncated frames, decode
    # errors...); everything must surface as IndexStoreError so callers
    # like IndexStore.get can degrade to a miss instead of crashing.
    try:
        schema = pickle.load(handle)
    except Exception as exc:
        raise IndexStoreError(f"{path}: not an index artifact") from exc
    if schema != _ARTIFACT_SCHEMA:
        raise IndexStoreError(
            f"{path}: stale or foreign artifact (schema {schema!r}, "
            f"expected {_ARTIFACT_SCHEMA!r})"
        )
    try:
        header = pickle.load(handle)
    except Exception as exc:
        raise IndexStoreError(f"{path}: corrupt artifact header") from exc
    if not isinstance(header, ArtifactHeader):
        raise IndexStoreError(f"{path}: corrupt artifact header")
    return header


def read_artifact_header(path: str | Path) -> ArtifactHeader:
    """Read just the header of an artifact file (for ``repro index ls``)."""
    with open(path, "rb") as handle:
        return _read_schema_and_header(handle, path)


def read_artifact(
    path: str | Path, expect_digest: int | None = None
) -> tuple[IndexArtifact, bytes | None]:
    """Read an artifact file back: ``(artifact, dataset_blob_or_None)``.

    With *expect_digest*, the header's dataset digest must match — an
    index built over different data must fail loudly, never answer
    queries wrongly.
    """
    with open(path, "rb") as handle:
        header = _read_schema_and_header(handle, path)
        try:
            payload = pickle.load(handle)
            dataset_blob = pickle.load(handle)
        except Exception as exc:
            raise IndexStoreError(f"{path}: corrupt artifact payload") from exc
    if expect_digest is not None and header.dataset_digest != expect_digest:
        raise IndexStoreError(
            f"{path}: index was built over a different dataset "
            f"(method {header.method!r}, {header.num_graphs} graphs)"
        )
    return IndexArtifact(header=header, payload=payload), dataset_blob


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------


@dataclass(slots=True)
class StoreStats:
    """Counters of one store's activity in this process."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0


class IndexStore:
    """Two-tier content-addressed store of built index artifacts.

    Parameters
    ----------
    root:
        Directory of the on-disk tier (created on first ``put``).
        ``None`` makes the store memory-only — the per-process reuse
        tier the sweep engine uses when no ``--index-store`` is given.
    memory_items:
        Capacity of the in-memory LRU tier.  Payloads in memory are
        live object graphs; materialization hands out fresh index
        instances, so sharing is safe (see the payload-copy notes in
        :meth:`GraphIndex._import_payload` implementations).

    Thread safety
    -------------
    The memory-LRU tier is guarded by an :class:`threading.RLock`: the
    online query service (:mod:`repro.core.serve`) hits one shared
    store from every request thread, and an unlocked ``OrderedDict``
    corrupts under interleaved ``move_to_end``/``popitem`` — two
    threads can race a ``get`` promotion against an eviction and raise
    ``KeyError``, or evict the very entry just promoted.  Every method
    touching ``_memory`` takes the lock; disk I/O (atomic writes,
    header reads) stays outside it so a slow disk tier never serializes
    memory hits.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        memory_items: int = _DEFAULT_MEMORY_ITEMS,
    ) -> None:
        if memory_items < 1:
            raise ValueError(f"memory_items must be >= 1, got {memory_items}")
        self.root = None if root is None else Path(root)
        self.memory_items = memory_items
        self._memory: OrderedDict[str, IndexArtifact] = OrderedDict()
        #: Guards ``_memory`` and ``stats`` (reentrant: ``put`` calls
        #: ``_remember`` with it held).
        self._lock = threading.RLock()
        self.stats = StoreStats()

    def __len__(self) -> int:
        """Artifacts currently held in the memory tier."""
        with self._lock:
            return len(self._memory)

    def __repr__(self) -> str:
        where = "memory-only" if self.root is None else str(self.root)
        return f"IndexStore({where}, {len(self._memory)} in memory)"

    # -- addressing ----------------------------------------------------

    def path_of(self, address: str) -> Path:
        if self.root is None:
            raise IndexStoreError("store has no on-disk tier (no root)")
        return self.root / f"{address}.idx"

    # -- lookup / insert ----------------------------------------------

    def get(
        self, method: str, params: Mapping, dataset_digest: int
    ) -> IndexArtifact | None:
        """The artifact at ``(method, params, dataset_digest)``, or None.

        Memory first, then disk; disk hits are promoted into the memory
        LRU.  A corrupt or stale disk file counts as a miss (the sweep
        must rebuild, not crash); ``repro index gc`` removes such files.
        """
        address = artifact_address(method, params, dataset_digest)
        with self._lock:
            artifact = self._memory.get(address)
            if artifact is not None:
                self._memory.move_to_end(address)
                self.stats.memory_hits += 1
                return artifact
        if self.root is not None:
            path = self.path_of(address)
            if path.exists():
                # Disk reads happen outside the lock: a slow disk tier
                # must never serialize concurrent memory hits.  Two
                # threads missing the same address both read the file;
                # the second _remember is an idempotent overwrite.
                try:
                    artifact, _ = read_artifact(path, expect_digest=dataset_digest)
                except (IndexStoreError, OSError):
                    with self._lock:
                        self.stats.misses += 1
                    return None
                if artifact.address != address:
                    # A renamed/copied file: its header describes some
                    # other (method, params, dataset).  Serving it would
                    # silently answer with the wrong index; `gc` removes
                    # such files.
                    with self._lock:
                        self.stats.misses += 1
                    return None
                with self._lock:
                    self._remember(address, artifact)
                    self.stats.disk_hits += 1
                return artifact
        with self._lock:
            self.stats.misses += 1
        return None

    def put(self, artifact: IndexArtifact) -> str:
        """Insert *artifact* in the memory tier and (if rooted) on disk.

        Returns the artifact's content address.  Idempotent: re-putting
        an equal build simply overwrites the same address.
        """
        address = artifact.address
        with self._lock:
            self._remember(address, artifact)
            self.stats.puts += 1
        if self.root is not None:
            # Write-through outside the lock: the write is atomic
            # (temp + rename), so concurrent putters of one address
            # race harmlessly to install equal bytes.
            self.root.mkdir(parents=True, exist_ok=True)
            write_artifact(self.path_of(address), artifact)
        return address

    def _remember(self, address: str, artifact: IndexArtifact) -> None:
        # Callers hold self._lock (RLock, so put -> _remember re-enters).
        with self._lock:
            self._memory[address] = artifact
            self._memory.move_to_end(address)
            while len(self._memory) > self.memory_items:
                self._memory.popitem(last=False)

    def clear_memory(self) -> None:
        """Drop the memory tier (tests and memory pressure); disk stays."""
        with self._lock:
            self._memory.clear()

    # -- maintenance (the `repro index` subcommands) -------------------

    def entries(self) -> list[tuple[Path, ArtifactHeader | None]]:
        """Every ``*.idx`` file in the disk tier with its header
        (``None`` for corrupt/stale files), sorted by file name."""
        if self.root is None or not self.root.exists():
            return []
        out: list[tuple[Path, ArtifactHeader | None]] = []
        for path in sorted(self.root.glob("*.idx")):
            try:
                out.append((path, read_artifact_header(path)))
            except (IndexStoreError, OSError):
                out.append((path, None))
        return out

    def remove(self, address: str) -> bool:
        """Delete one artifact from both tiers; True if anything existed."""
        with self._lock:
            existed = self._memory.pop(address, None) is not None
        if self.root is not None:
            path = self.path_of(address)
            if path.exists():
                path.unlink()
                existed = True
        return existed

    def gc(self, max_bytes: int | None = None) -> dict:
        """Collect garbage in the disk tier.

        Removes unreadable (corrupt or stale-schema) artifact files,
        files whose name does not match their header's content address,
        and — when *max_bytes* is given — evicts oldest-modified
        artifacts until the tier fits the byte budget.  Returns a
        summary dict (removed_corrupt, removed_evicted, kept,
        kept_bytes).
        """
        removed_corrupt = 0
        keep: list[tuple[Path, int, float, ArtifactHeader]] = []
        for path, header in self.entries():
            if header is None or path.name != f"{header.address}.idx":
                path.unlink(missing_ok=True)
                self._drop_address(path.stem)
                removed_corrupt += 1
                continue
            stat = path.stat()
            keep.append((path, stat.st_size, stat.st_mtime, header))
        removed_evicted = 0
        if max_bytes is not None:
            # Addresses referenced as some kept artifact's update parent
            # are lineage *interiors*; everything else is a head (the
            # newest artifact of its chain, or a plain cold build).
            # Evict interiors before heads, oldest-modified first within
            # each class: a chain's serving tip must outlive its
            # superseded ancestors.  (A newest-first "keep what fits"
            # greedy would evict a hot large artifact while keeping cold
            # small ones.)
            referenced = {
                header.parent for _, _, _, header in keep if header.parent
            }
            keep.sort(key=lambda item: (item[0].stem not in referenced, item[2]))
            total = sum(size for _, size, _, _ in keep)
            while keep and total > max_bytes:
                path, size, _, _ = keep.pop(0)
                path.unlink(missing_ok=True)
                self._drop_address(path.stem)
                removed_evicted += 1
                total -= size
        return {
            "removed_corrupt": removed_corrupt,
            "removed_evicted": removed_evicted,
            "kept": len(keep),
            "kept_bytes": sum(size for _, size, _, _ in keep),
        }

    def _drop_address(self, address: str) -> None:
        with self._lock:
            self._memory.pop(address, None)


def fetch_or_build(
    index: GraphIndex,
    dataset: GraphDataset,
    store: IndexStore | None = None,
    dataset_digest: int | None = None,
    reuse: bool = True,
    budget: Budget | None = None,
) -> tuple[GraphIndex | None, IndexArtifact | None, bool]:
    """The one build-or-fetch: ``(index, artifact, reused)``.

    With a *store* and *reuse*, a stored build of the unbuilt *index*'s
    ``(method, index_params)`` over *dataset_digest* is a **hit**:
    ``(None, artifact, True)`` — nothing is built or imported; callers
    that need to query pay :func:`materialize_artifact` themselves,
    callers that only report provenance do not.  Otherwise *index* is
    built over *dataset* under *budget* and, with a store, written
    through: ``(index, artifact, False)``, the artifact ``None`` when
    there is no store (nothing is exported) or the index lacks the
    payload-split contract (it still builds; it just cannot be reused).

    Budget overruns and build errors propagate, and store nothing.
    """
    if store is not None and reuse:
        artifact = store.get(index.name, index.index_params(), dataset_digest)
        if artifact is not None:
            return None, artifact, True
    index.build(dataset, budget=budget)
    artifact = None
    if store is not None:
        try:
            artifact = artifact_from_index(index, dataset_digest)
        except NotImplementedError:
            pass
        else:
            store.put(artifact)
    return index, artifact, False


# ----------------------------------------------------------------------
# per-process shared stores
# ----------------------------------------------------------------------

#: Process-wide stores by resolved root (None = the memory-only default).
#: Worker processes (fork or spawn) resolve their own instances lazily,
#: so one ``--index-store`` directory is shared by every worker of an
#: invocation — and by every later invocation pointing at it.
_ACTIVE: dict[str | None, IndexStore] = {}
_ACTIVE_LOCK = threading.Lock()


def shared_store(root: str | Path | None) -> IndexStore:
    """This process's store for *root* (``None`` = memory-only default).

    Thread-safe: concurrent resolvers of one root (server request
    threads, say) get the same instance, never two racing stores over
    one directory.
    """
    key = None if root is None else str(Path(root))
    with _ACTIVE_LOCK:
        store = _ACTIVE.get(key)
        if store is None:
            store = IndexStore(key)
            _ACTIVE[key] = store
        return store


def clear_stores() -> None:
    """Drop every shared store's memory tier and registry (tests)."""
    with _ACTIVE_LOCK:
        for store in _ACTIVE.values():
            store.clear_memory()
        _ACTIVE.clear()


# ----------------------------------------------------------------------
# standalone index files (the retired persistence module's API)
# ----------------------------------------------------------------------

#: The historical error type of the single-file API; one class with the
#: store's, so ``except`` clauses written against either name work.
IndexFileError = IndexStoreError


def save_index(index: GraphIndex, path: str | Path) -> None:
    """Persist a built index (including its dataset) to *path*.

    The file is a standalone store artifact: header with provenance,
    the index structure payload, and the packed dataset — unlike
    store-tier artifacts, which are dataset-free by design.

    Raises
    ------
    RuntimeError
        If the index has not been built.
    """
    dataset = index.dataset  # raises RuntimeError when unbuilt
    artifact = artifact_from_index(index, dataset_fingerprint(dataset))
    write_artifact(path, artifact, dataset_blob=pack_dataset(dataset))


def load_index(
    path: str | Path, expect_dataset: GraphDataset | None = None
) -> GraphIndex:
    """Load an index persisted by :func:`save_index`.

    Parameters
    ----------
    expect_dataset:
        When given, the stored dataset content digest must match this
        dataset's; a mismatch raises :class:`IndexFileError` (querying
        an index built over different data silently returns wrong ids).
        The returned index is attached to *expect_dataset* when given,
        otherwise to the dataset packed into the file.
    """
    expect_digest = (
        dataset_fingerprint(expect_dataset) if expect_dataset is not None else None
    )
    artifact, dataset_blob = read_artifact(path, expect_digest=expect_digest)
    if expect_dataset is not None:
        dataset = expect_dataset
    elif dataset_blob is not None:
        dataset = unpack_dataset(dataset_blob)
    else:
        raise IndexFileError(
            f"{path}: artifact carries no dataset; pass expect_dataset "
            "(store-tier artifacts are dataset-free by design)"
        )
    return materialize_artifact(artifact, dataset)
