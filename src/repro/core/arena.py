"""Shared-memory dataset arena: pack a dataset once, attach everywhere.

PR 1's engine pickles each task's whole dataset into every worker
submission — (method × dataset) cells over one dataset ship that dataset
``|methods|`` times.  Billion-scale matchers avoid exactly this by
keeping graph storage shared across workers (Sun et al.); this module is
the transactional-database analogue: :class:`DatasetArena` serializes a
:class:`~repro.graphs.dataset.GraphDataset` **once** into a
``multiprocessing.shared_memory`` segment (the flat-array format of
:func:`repro.graphs.dataset.pack_dataset`), and workers *attach* to the
segment by name and copy the packed arrays straight into a
:class:`~repro.graphs.csr.CSRDataset`.

Ownership and cleanup are deliberately simple:

* the **creator** (the dispatching process) owns the segment and is the
  only one that unlinks it — in a ``finally`` block at the end of every
  dispatch, and again via ``atexit`` as a backstop;
* **workers** only attach and close; a crashed worker therefore cannot
  leak a segment — the creator's unlink still runs;
* **attachers** immediately detach themselves from Python's
  ``resource_tracker``, which would otherwise unlink attached segments
  when any tracked process exits (the long-standing spawn-mode hazard);
  the creator's own registration stays until unlink, as a crash-time
  safety net.

Worker-side caches (dataset by content fingerprint, built index by
(fingerprint, method, config, budgets)) make the persistent pool
profitable: a worker that has already attached a dataset or built an
index for one batch reuses it for every later task in the invocation.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

from repro.graphs.csr import CSRDataset, as_core_dataset
from repro.graphs.dataset import (
    GraphDataset,
    dataset_fingerprint,
    pack_dataset,
)

__all__ = [
    "ArenaHandle",
    "DatasetArena",
    "attach_csr_dataset",
    "cached_dataset",
    "clear_worker_caches",
    "live_arenas",
]


@dataclass(frozen=True, slots=True)
class ArenaHandle:
    """A picklable reference to one shared-memory dataset segment.

    This — not the dataset — is what crosses the process boundary:
    a few dozen bytes instead of a re-pickled graph collection.  The
    ``fingerprint`` (the canonical 64-bit dataset content digest) keys
    the worker-side caches; the size fields feed the adaptive scheduler's
    cost model without touching the segment.
    """

    shm_name: str
    num_bytes: int
    #: Canonical content digest of the dataset
    #: (:func:`repro.graphs.dataset.dataset_fingerprint`) — the same
    #: value every other layer (index store, manifests, persistence)
    #: uses for dataset identity.
    fingerprint: int
    num_graphs: int
    total_vertices: int
    total_edges: int
    dataset_name: str


#: Creator-side registry of open arenas, for leak checks and atexit.
_LIVE: dict[str, "DatasetArena"] = {}


class DatasetArena:
    """Creator-side owner of one shared-memory dataset segment."""

    def __init__(self, shm: shared_memory.SharedMemory, handle: ArenaHandle) -> None:
        self._shm: shared_memory.SharedMemory | None = shm
        self.handle = handle

    @classmethod
    def create(cls, dataset: GraphDataset) -> "DatasetArena":
        """Pack *dataset* into a fresh shared-memory segment."""
        payload = pack_dataset(dataset)
        # The creator stays registered with the resource tracker until
        # unlink (which unregisters) — the tracker is the safety net if
        # the creator dies before its finally/atexit cleanup runs.
        shm = shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
        shm.buf[: len(payload)] = payload
        handle = ArenaHandle(
            shm_name=shm.name,
            num_bytes=len(payload),
            fingerprint=dataset_fingerprint(dataset),
            num_graphs=len(dataset),
            total_vertices=dataset.total_vertices(),
            total_edges=dataset.total_edges(),
            dataset_name=dataset.name,
        )
        arena = cls(shm, handle)
        _LIVE[shm.name] = arena
        return arena

    def close(self) -> None:
        """Unmap **and unlink** the segment (idempotent).

        Only the creator calls this; attached workers merely close their
        own mapping (:func:`attach_csr_dataset` does so immediately after
        materializing).
        """
        if self._shm is None:
            return
        _LIVE.pop(self._shm.name, None)
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # already gone (e.g. external cleanup)
            pass
        self._shm = None

    def __enter__(self) -> "DatasetArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._shm is None else self.handle.shm_name
        return f"DatasetArena({state}, {self.handle.num_graphs} graphs)"


def live_arenas() -> tuple[str, ...]:
    """Names of segments this process created and has not yet unlinked."""
    return tuple(_LIVE)


def _cleanup_all() -> None:  # pragma: no cover - exercised at interpreter exit
    for arena in list(_LIVE.values()):
        arena.close()


atexit.register(_cleanup_all)


#: Whether this process shares the creator's resource tracker (decided
#: once, *before* the first attach — see :func:`_tracker_shared`).
_TRACKER_SHARED: bool | None = None


def _tracker_shared() -> bool:
    """True when this process inherited an already-running tracker.

    Fork workers (and the creator itself) share one tracker: attaching
    merely re-adds a name the creator's eventual ``unlink`` removes, so
    they must *not* unregister — the tracker cache is a set, and an
    early removal would make the creator's unlink-time unregister fail.
    A spawn worker runs its **own** tracker, which would unlink every
    segment it saw when the worker exits — destroying the creator's
    data mid-sweep — so there the attach registration must be undone.
    """
    global _TRACKER_SHARED
    if _TRACKER_SHARED is None:
        tracker = getattr(resource_tracker, "_resource_tracker", None)
        _TRACKER_SHARED = getattr(tracker, "_pid", None) is not None
    return _TRACKER_SHARED


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Undo an attach-time tracker registration (spawn workers only)."""
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def attach_csr_dataset(handle: ArenaHandle) -> CSRDataset:
    """Materialize the dataset behind *handle* from shared memory.

    Attaches to the segment, copies the packed flat arrays straight into
    CSR ``indptr``/``indices`` — no intermediate builder
    :class:`~repro.graphs.graph.Graph` is ever rebuilt — and detaches
    immediately: the returned dataset is ordinary process-local memory,
    so the creator can unlink the segment at any later point without
    invalidating it.

    Raises
    ------
    FileNotFoundError
        If the segment has already been unlinked (the leak tests use
        this to prove cleanup happened).
    """
    shared_tracker = _tracker_shared()
    shm = shared_memory.SharedMemory(name=handle.shm_name)
    if not shared_tracker:
        _untrack(shm)
    try:
        dataset = CSRDataset.from_packed(shm.buf)
    finally:
        shm.close()
    return dataset


#: Per-process dataset cache: content fingerprint -> attached dataset.
_DATASET_CACHE: dict[int, CSRDataset] = {}


def cached_dataset(payload: ArenaHandle | GraphDataset) -> CSRDataset:
    """The CSR dataset behind a task's *payload*, however it travelled.

    An arena handle is attached with caching by content fingerprint: the
    first task touching a dataset in a given worker pays the attach +
    materialization; every later task in that worker (the persistent
    pool keeps workers alive across sweeps) reuses the same object.  A
    dataset shipped as itself is converted (a no-op when already CSR).
    """
    if not isinstance(payload, ArenaHandle):
        return as_core_dataset(payload)
    dataset = _DATASET_CACHE.get(payload.fingerprint)
    if dataset is None:
        dataset = _DATASET_CACHE[payload.fingerprint] = attach_csr_dataset(payload)
    return dataset


def clear_worker_caches() -> None:
    """Drop this process's dataset cache (tests and memory pressure)."""
    _DATASET_CACHE.clear()
