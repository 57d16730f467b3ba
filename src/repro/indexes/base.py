"""The filter-and-verify contract shared by all indexing methods.

Paper §2.2: every algorithm operates in three stages — (a) index
construction, (b) filtering into a candidate set, (c) verification of
containment by subgraph isomorphism.  :class:`GraphIndex` encodes this
pipeline and instruments it with the paper's four metrics:

* index construction **time** (Figures 1a, 2a, 3a, 5a, 6a),
* index **size** (Figures 1b, 2b, 3b, 5b, 6b),
* query processing **time**, filtering plus verification
  (Figures 1c, 2c, 3c, 4, 5c, 6c),
* **false positive ratio** per Eq. (3) (Figures 1d, 2d, 3d, 5d, 6d).

Subclasses implement ``_build`` and ``_filter`` and may override
``_verifier`` (Grapes confines the search to its marked components,
CT-Index uses its tweaked matcher ordering).  The contract tests assert
the defining invariant: the candidate set always contains the true
answer set.

Beyond the query pipeline, every index implements the **artifact
contract** consumed by :mod:`repro.indexes.store`: ``index_params()``
names the constructor parameters that shape the built structure, and
``_export_payload`` / ``_import_payload`` split the index *structure*
(trie, fingerprints, id lists, ...) from the instance, so a built index
can be serialized and content-addressed without pickling the whole
object — or the dataset it was built over.

**Regimes.**  The paper's experiments run the *transactional* regime:
a database of many small graphs, answers are the ids of graphs
containing the query.  The same contract generalizes to the
*single-graph* regime of the billion-node-graph literature (Sun et
al.'s STwig decomposition, Nabti & Seba's compact neighborhood
indexes): one massive graph, filtering produces per-query-vertex
candidate **domains**, verification enumerates **embedding roots** —
data vertices hosting the query's anchor vertex in at least one
embedding.  :meth:`GraphIndex.query` takes a ``regime`` argument and
:class:`QueryResult` carries the answer form; every index inherits a
working single-graph path (label/degree domains + STwig pruning +
domain-constrained Ullmann) and may override
:meth:`GraphIndex._filter_vertices` to narrow domains with its own
structure.  Transactional results — their pickled bytes included —
are unchanged.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.graphs.dataset import DatasetDelta, GraphDataset, apply_delta
from repro.graphs.graph import Graph
from repro.isomorphism.decompose import (
    STwig,
    decompose_query,
    embedding_root,
    initial_domains,
    prune_domains,
)
from repro.isomorphism.ullmann import compile_query
from repro.isomorphism.vf2 import SubgraphMatcher
from repro.utils.budget import Budget
from repro.utils.sizeof import deep_sizeof
from repro.utils.timing import Timer

__all__ = [
    "GraphIndex",
    "BuildReport",
    "QueryResult",
    "TRANSACTIONAL",
    "SINGLE_GRAPH",
    "REGIMES",
]

#: The paper's regime: many small graphs, answers are graph ids.
TRANSACTIONAL = "transactional"
#: The massive regime: one huge graph, answers are embedding roots.
SINGLE_GRAPH = "single-graph"
#: Recognized regimes, default first.
REGIMES = (TRANSACTIONAL, SINGLE_GRAPH)


@dataclass(frozen=True, slots=True)
class BuildReport:
    """Outcome of index construction."""

    #: Wall-clock construction time in seconds.
    seconds: float
    #: Estimated in-memory footprint of the index payload in bytes.
    size_bytes: int
    #: Method-specific counters (feature counts, trie nodes, ...).
    details: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class QueryResult:
    """Outcome of one query through the filter-and-verify pipeline.

    The answer form is regime-polymorphic.  In the transactional
    regime (the default), ``candidates`` and ``answers`` hold *graph
    ids*.  In the single-graph regime they hold *data-vertex ids* —
    candidates and verified embedding roots for the query's anchor
    vertex; a caller that needs every query vertex's candidate domain
    asks :meth:`GraphIndex.filter_vertices`.  The derived metrics
    (:attr:`false_positive_ratio` et al.) read the same either way.

    Serialization contract: transactional results pickle to bytes
    identical to the four-field layout every prior release produced;
    single-graph results pickle to the six-field layout of the releases
    that also carried per-vertex domains, with ``None`` in the domains
    slot.  Both layouts load (a stored domains entry is ignored) —
    sealed bench records stay valid both ways.  A transactional result
    whose every candidate verified holds one frozenset in both fields.
    """

    #: Filter survivors: graph ids, or anchor-vertex candidates.
    candidates: frozenset[int]
    #: Verified answers: graph ids, or embedding roots.
    answers: frozenset[int]
    #: Wall-clock seconds spent filtering.
    filter_seconds: float
    #: Wall-clock seconds spent verifying candidates.
    verify_seconds: float
    #: Which answer form this result carries.
    regime: str = TRANSACTIONAL

    def __getstate__(self) -> list:
        # The dataclass-generated state for a frozen slots class is the
        # list of field values in declaration order.  Emit the legacy
        # four-item list for transactional results, keeping their
        # pickles byte-identical across releases.
        state = [
            self.candidates,
            self.answers,
            self.filter_seconds,
            self.verify_seconds,
        ]
        if self.regime != TRANSACTIONAL:
            state += [self.regime, None]
        return state

    def __setstate__(self, state: list) -> None:
        values = list(state)
        if len(values) == 4:
            values.append(TRANSACTIONAL)
        elif len(values) == 6:
            del values[5]  # the per-vertex domains earlier releases kept
        else:
            raise ValueError(
                f"QueryResult state has {len(values)} items, expected 4 or 6"
            )
        for name, value in zip(
            ("candidates", "answers", "filter_seconds", "verify_seconds",
             "regime"),
            values,
        ):
            object.__setattr__(self, name, value)

    @property
    def embedding_roots(self) -> frozenset[int]:
        """The verified embedding roots (single-graph regime only)."""
        if self.regime != SINGLE_GRAPH:
            raise ValueError(
                "embedding_roots is defined only in the single-graph "
                f"regime, not {self.regime!r}"
            )
        return self.answers

    @property
    def total_seconds(self) -> float:
        """Query processing time (filtering + verification)."""
        return self.filter_seconds + self.verify_seconds

    @property
    def false_positives(self) -> int:
        """Candidates that verification rejected."""
        return len(self.candidates) - len(self.answers)

    @property
    def false_positive_ratio(self) -> float:
        """Per-query term of Eq. (3): ``(|C| - |A|) / |C|``.

        An empty candidate set contributes 0 (perfect filtering).
        """
        if not self.candidates:
            return 0.0
        return self.false_positives / len(self.candidates)


class GraphIndex(ABC):
    """Base class for all filter-and-verify subgraph-query indexes."""

    #: Method name as used in the paper's figures.
    name: str = "abstract"

    def __init__(self) -> None:
        self._dataset: GraphDataset | None = None
        self._build_report: BuildReport | None = None

    # ------------------------------------------------------------------
    # stage (a): index construction
    # ------------------------------------------------------------------

    def build(self, dataset: GraphDataset, budget: Budget | None = None) -> BuildReport:
        """Construct the index over *dataset*, timing and sizing it.

        Raises
        ------
        repro.utils.budget.BudgetExceeded
            If *budget* runs out mid-build; the index is left unusable,
            matching the paper's "failed to index within the limit".
        """
        self._dataset = dataset
        with Timer() as timer:
            details = self._build(dataset, budget) or {}
        self._build_report = BuildReport(
            seconds=timer.elapsed,
            size_bytes=self.size_bytes(),
            details=details,
        )
        return self._build_report

    @abstractmethod
    def _build(self, dataset: GraphDataset, budget: Budget | None) -> dict | None:
        """Method-specific construction; returns optional detail counters."""

    # ------------------------------------------------------------------
    # stage (a'): incremental maintenance
    # ------------------------------------------------------------------

    def update(
        self,
        delta: DatasetDelta,
        budget: Budget | None = None,
        new_dataset: GraphDataset | None = None,
    ) -> BuildReport:
        """Bring the index up to date with *delta* applied to its dataset.

        The contract is an equivalence: after ``update(delta)`` the
        exported payload must be **byte-identical** to a cold
        :meth:`build` over ``apply_delta(dataset, delta)``.  Methods
        with genuinely incremental structures (Tree+Δ's mined table,
        GRAPES' per-graph postings) override :meth:`_update`; everyone
        else inherits the universal rebuild-from-scratch fallback, which
        satisfies the equivalence trivially.

        *new_dataset*, when given, must be the post-delta dataset
        (callers like the serve tier apply the delta once and share the
        result); otherwise it is computed here.  Returns the refreshed
        :class:`BuildReport` — ``details["maintenance"]`` records which
        path ran (``"incremental"`` or ``"rebuild"``).
        """
        self._require_built()
        assert self._dataset is not None
        if new_dataset is None:
            new_dataset = apply_delta(self._dataset, delta)
        else:
            expected = len(self._dataset) - len(delta.removed) + len(delta.added)
            if len(new_dataset) != expected:
                raise ValueError(
                    f"{self.name}: new_dataset has {len(new_dataset)} "
                    f"graphs, expected {expected} after delta"
                )
        with Timer() as timer:
            details = self._update(new_dataset, delta, budget)
            if details is None:
                self._dataset = new_dataset
                details = self._build(new_dataset, budget) or {}
                details["maintenance"] = "rebuild"
            else:
                self._dataset = new_dataset
                details.setdefault("maintenance", "incremental")
        self._build_report = BuildReport(
            seconds=timer.elapsed,
            size_bytes=self.size_bytes(),
            details=details,
        )
        return self._build_report

    def _update(
        self,
        new_dataset: GraphDataset,
        delta: DatasetDelta,
        budget: Budget | None,
    ) -> dict | None:
        """Method-specific incremental maintenance.

        Called with ``self._dataset`` still pointing at the *old*
        dataset (the swap happens after this returns).  Return detail
        counters on success, or ``None`` to decline — the caller then
        rebuilds from scratch.  Implementations must not mutate index
        state before deciding to decline.
        """
        return None

    @property
    def build_report(self) -> BuildReport:
        """The report of the last successful :meth:`build`."""
        if self._build_report is None:
            raise RuntimeError(f"{self.name}: build() has not completed")
        return self._build_report

    def size_bytes(self) -> int:
        """Deep size of the index payload (excludes the dataset itself)."""
        return deep_sizeof(self._size_payload())

    @abstractmethod
    def _size_payload(self) -> object:
        """The object graph that constitutes the index structure."""

    # ------------------------------------------------------------------
    # stage (b): filtering
    # ------------------------------------------------------------------

    def filter(self, query: Graph, budget: Budget | None = None) -> set[int]:
        """Candidate set for *query*: ids of graphs possibly containing it.

        Guaranteed to be a superset of the true answer set (no false
        negatives) — the defining property of filter-and-verify.
        """
        self._require_built()
        return self._filter(query, budget)

    @abstractmethod
    def _filter(self, query: Graph, budget: Budget | None) -> set[int]:
        """Method-specific filtering."""

    # ------------------------------------------------------------------
    # stage (c): verification
    # ------------------------------------------------------------------

    def verify(
        self, query: Graph, candidates: set[int], budget: Budget | None = None
    ) -> set[int]:
        """Ids of candidate graphs that actually contain *query*.

        Uses first-match semantics throughout: the paper patched Grapes
        so that every system stops at the first embedding (§4.1).
        """
        self._require_built()
        assert self._dataset is not None
        contains = self._verifier(query)
        answers = set()
        for graph_id in candidates:
            if budget is not None:
                budget.check()
            if contains(graph_id, budget):
                answers.add(graph_id)
        return answers

    def _verifier(self, query: Graph) -> Callable[[int, Budget | None], bool]:
        """The containment test one :meth:`verify` call applies to each
        candidate graph id; default: stock VF2 over the whole graph,
        first match.  Whatever it memoizes lives for that call only."""
        dataset = self._dataset
        assert dataset is not None
        return lambda graph_id, budget: SubgraphMatcher(
            query, dataset[graph_id], budget=budget
        ).exists()

    # ------------------------------------------------------------------
    # stage (b'): single-graph filtering — per-vertex candidate domains
    # ------------------------------------------------------------------

    def filter_vertices(
        self,
        query: Graph,
        budget: Budget | None = None,
        stwigs: Sequence[STwig] | None = None,
    ) -> list[set[int]]:
        """Candidate domains for *query* over the regime's one graph.

        ``domains[u]`` holds every data vertex that may host query
        vertex ``u`` in an embedding — guaranteed a superset of the
        vertices that actually do (the single-graph twin of the
        no-false-negatives invariant).  The method-specific narrowing
        (:meth:`_filter_vertices`) runs first, then the generic
        STwig-cover pruning tightens every method's domains the same
        way.  *stwigs* is the query's decomposition over the data
        graph, for a caller that already has it.
        """
        self._require_built()
        data = self._single_graph()
        domains = self._filter_vertices(query, data, budget)
        return prune_domains(query, data, domains, stwigs)

    def _filter_vertices(
        self, query: Graph, data: Graph, budget: Budget | None
    ) -> list[set[int]]:
        """Method-specific domain filtering; default is label+degree.

        Override to narrow domains with the index structure (the CNI
        index intersects neighborhood signatures here).  Must preserve
        the superset invariant.
        """
        return initial_domains(query, data)

    # ------------------------------------------------------------------
    # stage (c'): single-graph verification — embedding roots
    # ------------------------------------------------------------------

    def verify_embeddings(
        self,
        query: Graph,
        domains: list[set[int]],
        budget: Budget | None = None,
        root: int | None = None,
    ) -> set[int]:
        """Data vertices hosting the query's anchor in some embedding.

        First-match semantics per root: each candidate of the anchor
        vertex (the STwig decomposition's first root; *root*, for a
        caller that already decomposed the query) is pinned and the
        domain-constrained Ullmann search stops at its first embedding.
        The query is compiled once, over the subgraph its domains
        induce; a root then costs one pinned domain row and one search.
        A budget that runs out raises — no partial root set is returned.
        """
        self._require_built()
        data = self._single_graph()
        if query.order == 0 or any(not domain for domain in domains):
            return set()
        if root is None:
            root = embedding_root(query, data)
        compiled = compile_query(query, data, domains)
        answers = set()
        for vertex in sorted(domains[root]):
            if budget is not None:
                budget.check()
            if compiled is not None and compiled.embeds(budget, pin=(root, vertex)):
                answers.add(vertex)
        return answers

    def _single_graph(self) -> Graph:
        """The regime's one data graph; rejects multi-graph datasets."""
        assert self._dataset is not None
        if len(self._dataset) != 1:
            raise ValueError(
                f"{self.name}: the single-graph regime requires a "
                f"one-graph dataset, got {len(self._dataset)} graphs"
            )
        return self._dataset[0]

    # ------------------------------------------------------------------
    # the full pipeline
    # ------------------------------------------------------------------

    def query(
        self,
        query: Graph,
        budget: Budget | None = None,
        regime: str | None = None,
    ) -> QueryResult:
        """Run filter + verify for *query* and report the paper metrics.

        *regime* selects the answer form: ``"transactional"`` (the
        default, also chosen by ``None``) filters and verifies graph
        ids; ``"single-graph"`` produces candidate domains and verified
        embedding roots over the dataset's one graph.
        """
        if regime is None:
            regime = TRANSACTIONAL
        if regime == SINGLE_GRAPH:
            return self._query_single_graph(query, budget)
        if regime != TRANSACTIONAL:
            raise ValueError(
                f"unknown regime {regime!r}; expected one of {REGIMES}"
            )
        with Timer() as filter_timer:
            candidates = self.filter(query, budget)
        with Timer() as verify_timer:
            answers = self.verify(query, candidates, budget)
        candidates = frozenset(candidates)
        return QueryResult(
            candidates=candidates,
            # answers ⊆ candidates: when every candidate verified (most
            # queries on dense data), one immutable set serves both.
            answers=candidates
            if len(answers) == len(candidates)
            else frozenset(answers),
            filter_seconds=filter_timer.elapsed,
            verify_seconds=verify_timer.elapsed,
        )

    def _query_single_graph(
        self, query: Graph, budget: Budget | None
    ) -> QueryResult:
        """The single-graph pipeline: domains in, embedding roots out."""
        self._require_built()
        data = self._single_graph()
        with Timer() as filter_timer:
            # One decomposition serves the pruning, the anchor the
            # verifier pins and the anchor whose domain is reported.
            stwigs = decompose_query(query, data)
            domains = self.filter_vertices(query, budget, stwigs)
        root = stwigs[0].root if stwigs else None
        with Timer() as verify_timer:
            answers = self.verify_embeddings(query, domains, budget, root)
        return QueryResult(
            candidates=frozenset(() if root is None else domains[root]),
            answers=frozenset(answers),
            filter_seconds=filter_timer.elapsed,
            verify_seconds=verify_timer.elapsed,
            regime=SINGLE_GRAPH,
        )

    # ------------------------------------------------------------------
    # artifact contract: parameters + payload split
    # ------------------------------------------------------------------

    def index_params(self) -> dict:
        """The constructor parameters that shape this index's structure.

        Together with the method name and a dataset content digest,
        these parameters form the content address of a built index in
        :class:`repro.indexes.store.IndexStore`: two instances with
        equal ``index_params()`` build byte-equivalent structures over
        equal datasets.  Keys are sorted so the mapping has one
        canonical form.
        """
        return dict(sorted(self._index_params().items()))

    def _index_params(self) -> dict:
        """Method-specific parameter mapping (plain JSON-able scalars).

        The default introspects ``__init__`` and echoes the same-named
        attributes — correct for any subclass that stores its knobs
        under their parameter names.  Every shipped method overrides
        this explicitly anyway, so the contract is visible per module.
        """
        import inspect

        params = {}
        for name in inspect.signature(type(self).__init__).parameters:
            if name != "self" and hasattr(self, name):
                params[name] = getattr(self, name)
        return params

    def export_payload(self) -> object:
        """The built index structure as a picklable object graph.

        This is what an :class:`~repro.indexes.store.IndexArtifact`
        serializes — the trie / fingerprints / id lists, **not** the
        index instance and **not** the dataset.  Requires a completed
        build.
        """
        if self._build_report is None:
            raise RuntimeError(f"{self.name}: no completed build to export")
        return self._export_payload()

    def _export_payload(self) -> object:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the artifact "
            "contract (_export_payload)"
        )

    def _import_payload(self, payload: object) -> None:
        """Restore the structure produced by :meth:`_export_payload`.

        Implementations must defensively copy any state that queries
        mutate (Tree+Δ's adopted features), because one in-memory
        payload may be materialized into several index instances.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the artifact "
            "contract (_import_payload)"
        )

    def adopt_payload(
        self, payload: object, dataset: GraphDataset, report: BuildReport
    ) -> None:
        """Attach an exported *payload* built over *dataset*.

        The inverse of :meth:`export_payload`: after this call the
        index answers queries exactly as the instance that built the
        payload did right after its build.  *report* carries the
        original build's provenance (its measured seconds and size).
        """
        self._import_payload(payload)
        self._dataset = dataset
        self._build_report = report

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @property
    def dataset(self) -> GraphDataset:
        """The dataset this index was built over."""
        self._require_built()
        assert self._dataset is not None
        return self._dataset

    def _require_built(self) -> None:
        if self._dataset is None:
            raise RuntimeError(f"{self.name}: index has not been built")

    def __repr__(self) -> str:
        # Build state comes from _build_report, not _dataset: a failed
        # budgeted build assigns _dataset before raising and leaves the
        # index unusable, which must not read as "built".
        if self._build_report is None:
            return f"{type(self).__name__}(empty)"
        # Render whatever detail counters the build actually recorded —
        # never index into ``details``: maintenance rebuilds and adopted
        # payloads carry different key sets than a cold build, and a
        # repr must not raise over a missing counter.
        details = self._build_report.details or {}
        rendered = ", ".join(
            f"{key}={details[key]!r}" for key in sorted(details, key=str)
        )
        if rendered:
            return f"{type(self).__name__}(built, {rendered})"
        return f"{type(self).__name__}(built)"
