"""Grapes — parallel path trie with location information [9].

Giugno et al., *GRAPES: A Software for Parallel Searching on Biological
Graphs Targeting Multi-Core Architectures*, PLoS One 2013.  Grapes
shares GraphGrepSX's feature type (simple paths up to a size limit,
default 4) and exhaustive DFS extraction, and differs in three ways
that this class reproduces:

1. **Location information** — for every (feature, graph) pair the trie
   records the start vertices of the feature's occurrences, alongside
   the occurrence count.
2. **Parallel construction** — dataset graphs are partitioned across a
   pool of workers (paper setting: 6); each worker builds a complete
   trie over its disjoint share, and the shards are merged.  This
   mirrors the original's disjoint-trie-parts design.  (CPython threads
   serialize CPU-bound work, so the *structure* is preserved while the
   speedup is platform-dependent; see DESIGN.md.)
3. **Component-wise verification** — filtering projects each surviving
   graph onto the vertices that start matched query features, splits
   that projection into connected components, and keeps the components
   offering enough vertices of every query label.  The original tests
   the query against each such component on its own thread; here the
   viable components are one bit mask per graph and verification is a
   single VF2 search confined to that mask.  The two are equivalent:
   the query is connected and no edge joins two components, so every
   embedding inside the mask lies inside one component — and CPython
   threads would serialize the per-component searches anyway.

Soundness of the projection: with single-vertex features included,
every vertex in an embedding image starts at least one matched feature
traversal, so a (connected) query's image lies entirely inside one
marked component.  Disconnected queries fall back to whole-graph
verification.

Reproduces: Grapes (Giugno et al., PLoS One 2013) — reference [9] of
the benchmarked paper.

Feature class: paths — exhaustively enumerated simple label paths of
up to ``max_path_edges`` edges, with per-graph location information.

Known deviations: construction parallelism uses a Python thread pool,
so on CPython the disjoint-trie structure is preserved but CPU-bound
speedup is platform-dependent (the original is native multi-core);
verification searches all viable components of a graph at once rather
than one thread per component; disconnected queries skip
component-wise verification and test the whole graph; the trie is pure
Python rather than the original's C++ structures.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor

from repro.features.paths import path_features
from repro.graphs.csr import as_core_query
from repro.graphs.dataset import DatasetDelta, GraphDataset, removal_remap
from repro.graphs.graph import Graph
from repro.indexes.base import GraphIndex
from repro.indexes.pathtrie import PathTrie
from repro.isomorphism.vf2 import SubgraphMatcher, match_plan
from repro.utils.budget import Budget

__all__ = ["GrapesIndex"]


class GrapesIndex(GraphIndex):
    """Grapes: parallel path trie with start-vertex locations.

    Parameters
    ----------
    max_path_edges:
        Maximum feature size in edges (paper setting: 4).
    workers:
        Worker-pool width for the parallel build (paper setting: 6).
    """

    name = "grapes"

    def __init__(self, max_path_edges: int = 4, workers: int = 6) -> None:
        super().__init__()
        if max_path_edges < 1:
            raise ValueError(f"max_path_edges must be >= 1, got {max_path_edges}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.max_path_edges = max_path_edges
        self.workers = workers
        self._trie = PathTrie(keep_locations=True)
        #: graph id -> union of its viable marked components as a bit
        #: row, computed by the last filter().  Guarded by the query's
        #: identity: verification for any other query must not reuse
        #: another query's masks (that would drop true answers).
        self._masks: dict[int, int] = {}
        self._masks_query: Graph | None = None

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------

    def _build(self, dataset: GraphDataset, budget: Budget | None) -> dict:
        shards = [list(dataset)[i :: self.workers] for i in range(self.workers)]
        shards = [shard for shard in shards if shard]

        def build_shard(shard: list[Graph]) -> PathTrie:
            trie = PathTrie(keep_locations=True)
            for graph in shard:
                if budget is not None:
                    budget.check()
                    # Memory is a whole-index property; each worker
                    # sees its shard's share of the allowance.
                    budget.check_memory(trie.estimated_bytes() * len(shards))
                features = path_features(graph, self.max_path_edges, budget=budget)
                for canonical, occurrences in features.items():
                    trie.insert(
                        canonical,
                        graph.graph_id,
                        occurrences.count,
                        occurrences.starts,
                    )
            return trie

        if not shards:  # empty dataset (e.g. a delete-everything delta)
            tries = [PathTrie(keep_locations=True)]
        elif len(shards) == 1:
            tries = [build_shard(shards[0])]
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                tries = list(pool.map(build_shard, shards))
        self._trie = tries[0]
        for shard_trie in tries[1:]:
            self._trie.merge(shard_trie)
        return {
            "trie_nodes": self._trie.node_count(),
            "features": self._trie.num_features,
            "workers": len(shards),
        }

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------

    def _update(
        self,
        new_dataset: GraphDataset,
        delta: DatasetDelta,
        budget: Budget | None,
    ) -> dict:
        """True incremental maintenance over the per-graph postings.

        Every (feature, graph) payload in the trie is independent of
        every other graph, so a delta is exactly: drop the removed ids,
        re-densify the survivors (:meth:`PathTrie.remap_graphs`), and
        insert the added graphs' features under their new ids.  The
        canonical export then matches a cold build byte for byte.
        """
        assert self._dataset is not None
        remap = removal_remap(len(self._dataset), delta.removed)
        self._trie.remap_graphs(remap)
        first_new = len(new_dataset) - len(delta.added)
        for graph_id in range(first_new, len(new_dataset)):
            if budget is not None:
                budget.check()
                budget.check_memory(self._trie.estimated_bytes())
            graph = new_dataset[graph_id]
            features = path_features(graph, self.max_path_edges, budget=budget)
            for canonical, occurrences in features.items():
                self._trie.insert(
                    canonical, graph_id, occurrences.count, occurrences.starts
                )
        self._masks = {}
        self._masks_query = None
        return {
            "trie_nodes": self._trie.node_count(),
            "features": self._trie.num_features,
            "added": len(delta.added),
            "removed": len(delta.removed),
        }

    # ------------------------------------------------------------------
    # filter
    # ------------------------------------------------------------------

    def _filter(self, query: Graph, budget: Budget | None) -> set[int]:
        assert self._dataset is not None
        self._masks = {}
        self._masks_query = query
        query_paths = path_features(query, self.max_path_edges, budget=budget)

        # Stage 1: occurrence-count dominance, as in GGSX.
        candidates: set[int] | None = None
        matched_nodes = []
        for canonical, occurrences in query_paths.items():
            if budget is not None:
                budget.check()
            node = self._trie.lookup(canonical)
            if node is None:
                return set()
            matched_nodes.append(node)
            matching = {
                graph_id
                for graph_id, count in node.counts.items()
                if count >= occurrences.count
            }
            candidates = matching if candidates is None else candidates & matching
            if not candidates:
                return set()
        if candidates is None:
            return self._dataset.all_ids()

        # Stage 2: location-based refinement.  Mark, per candidate, the
        # vertices starting any matched feature; an embedding must live
        # inside one connected component of the marked projection.
        if not query.is_connected():
            return candidates  # projection argument needs connectivity
        marked: dict[int, set[int]] = {graph_id: set() for graph_id in candidates}
        for node in matched_nodes:
            assert node.starts is not None
            for graph_id, starts in node.starts.items():
                if graph_id in marked:
                    marked[graph_id].update(starts)

        needs = list(query.label_histogram().items())
        for graph_id in candidates:
            mask = _viable_mask(self._dataset[graph_id], marked[graph_id], needs)
            if mask:
                self._masks[graph_id] = mask
        return set(self._masks)

    # ------------------------------------------------------------------
    # verify (one masked search per candidate)
    # ------------------------------------------------------------------

    def _verifier(self, query: Graph) -> Callable[[int, Budget | None], bool]:
        """Test the query inside the marked components of each candidate.

        The components left by :meth:`filter` are one mask per graph,
        and a single VF2 search confined to it stands in for one search
        per component: the query is connected and no edge joins two
        components, so every embedding inside the mask lies inside one
        component.  A graph the last filter did not mask (another
        query, or a disconnected one) is searched whole.
        """
        dataset = self._dataset
        assert dataset is not None
        masks = self._masks if self._masks_query is query else {}

        def contains(graph_id: int, budget: Budget | None) -> bool:
            graph = dataset[graph_id]
            return SubgraphMatcher.with_plan(
                match_plan(query, graph), query, graph, budget,
                masks.get(graph_id, -1),
            ).exists()

        return contains

    def _size_payload(self) -> object:
        return self._trie

    # -- artifact contract ---------------------------------------------

    def _index_params(self) -> dict:
        # ``workers`` shapes build parallelism, not the merged trie's
        # content, but it is a constructor knob the profile fixes —
        # keeping it in the address keeps reuse conservative.
        return {"max_path_edges": self.max_path_edges, "workers": self.workers}

    def _export_payload(self) -> object:
        # Canonical nested tuples, not the live trie: the live dicts
        # remember insertion history (shard interleaving, update order),
        # so only the sorted form satisfies the update == rebuild
        # byte-identity contract.  dedup_structure makes equal exports
        # pickle to equal bytes (pickle memoizes leaves by identity).
        from repro.utils.hashing import dedup_structure

        return dedup_structure(self._trie.to_canonical())

    def _import_payload(self, payload: object) -> None:
        assert isinstance(payload, tuple)
        # from_canonical builds fresh dicts/sets, so several instances
        # can materialize one in-memory payload without sharing state.
        self._trie = PathTrie.from_canonical(payload)
        # Per-query mask state never travels with the payload.
        self._masks = {}
        self._masks_query = None


def _viable_mask(graph: Graph, marked: set[int], needs: list) -> int:
    """The union of the marked components that offer enough vertices
    of every label the query needs, as one bit row of *graph*; label
    dominance is a popcount against each label's row."""
    core = as_core_query(graph)
    rows = core.feasible_rows((lbl, 0, frozenset()) for lbl, _ in needs)
    label_rows = [(row, count) for row, (_, count) in zip(rows, needs)]
    packed = 0
    for vertex in marked:
        packed |= 1 << vertex
    viable = 0
    for component in _marked_components(core.adjacency_rows(), packed):
        if all((component & row).bit_count() >= n for row, n in label_rows):
            viable |= component
    return viable


def _marked_components(adjacency: list[int], marked: int) -> Iterator[int]:
    """Connected components of the subgraph *marked* induces, as bit
    rows, lowest vertex first — each grown by a bitwise frontier walk
    over the *adjacency* rows."""
    while marked:
        component = frontier = marked & -marked
        while frontier:
            reached = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                reached |= adjacency[bit.bit_length() - 1]
            frontier = reached & marked & ~component
            component |= frontier
        marked &= ~component
        yield component
