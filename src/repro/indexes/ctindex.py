"""CT-Index — fingerprints over tree and cycle features [13].

Klein, Kriege & Mutzel, *CT-index: Fingerprint-based graph indexing
combining cycles and trees*, ICDE 2011.  For every graph, CT-Index
exhaustively enumerates all subtrees and all simple cycles up to a size
limit, computes a canonical label per feature, and hashes each label
into a fixed-width bit array — the graph's *fingerprint*.  Filtering
reduces to a bitwise containment test between the query fingerprint and
every graph fingerprint; verification uses a VF2 variant with
fail-fast vertex ordering heuristics.

The benchmark configures 4096-bit fingerprints with trees and cycles of
up to 4 edges (§4.1; the original authors used 6/8, but [9] showed 4
trades a little filtering power for much faster indexing and querying
— our ``feature_edges`` knob reproduces exactly that ablation).

CT-Index occupies the "complex features, exhaustive enumeration,
fixed-size encoding" corner: smallest index by far, weakest filtering
(hash collisions), yet competitive query times thanks to the cheap
filter and tweaked matcher (§5.2.3's "paradox").

Reproduces: CT-Index (Klein, Kriege & Mutzel, ICDE 2011) — reference
[13] of the benchmarked paper.

Feature class: trees and cycles — all subtrees and simple cycles up to
``feature_edges`` edges, canonicalized and hashed into a fixed-width
fingerprint.

Known deviations: feature size defaults to 4 edges (the benchmarked
paper's §4.1 setting, after [9]'s ablation) instead of the original
authors' 6/8; the hash family is our ``hash_positions`` rather than
the original implementation's, so individual collision patterns — not
the collision *rate regime* — differ; the fail-fast matcher reproduces
the original's vertex-ordering heuristics on top of our VF2, not its
exact code.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.canonical.cycles import cycle_canonical
from repro.canonical.trees import tree_canonical
from repro.features.cycles import enumerate_simple_cycles
from repro.features.trees import enumerate_trees
from repro.graphs.dataset import GraphDataset
from repro.graphs.graph import Graph
from repro.indexes.base import GraphIndex
from repro.isomorphism.heuristics import frequency_degree_order, frequency_ranks
from repro.isomorphism.vf2 import MatchPlan, SubgraphMatcher, match_plan
from repro.utils.bitset import Bitset
from repro.utils.budget import Budget
from repro.utils.hashing import hash_positions

__all__ = ["CTIndex"]


class CTIndex(GraphIndex):
    """CT-Index: tree+cycle canonical labels hashed into bit fingerprints.

    Parameters
    ----------
    fingerprint_bits:
        Fingerprint width (paper setting: 4096).
    feature_edges:
        Maximum feature size, in edges, for both trees and cycles
        (paper setting: 4; original CT-Index: trees 6, cycles 8).
    bits_per_feature:
        Bit positions set per feature (Bloom-style; 1 reproduces the
        original's single hash).
    """

    name = "ctindex"

    def __init__(
        self,
        fingerprint_bits: int = 4096,
        feature_edges: int = 4,
        bits_per_feature: int = 1,
    ) -> None:
        super().__init__()
        if fingerprint_bits < 8:
            raise ValueError(f"fingerprint_bits too small: {fingerprint_bits}")
        if feature_edges < 1:
            raise ValueError(f"feature_edges must be >= 1, got {feature_edges}")
        self.fingerprint_bits = fingerprint_bits
        self.feature_edges = feature_edges
        self.bits_per_feature = bits_per_feature
        self._fingerprints: list[Bitset] = []
        self._position_cache: dict[tuple, list[int]] = {}

    # ------------------------------------------------------------------

    def fingerprint(self, graph: Graph, budget: Budget | None = None) -> Bitset:
        """Compute the tree+cycle fingerprint of one graph."""
        bits = Bitset(self.fingerprint_bits)
        for edges in enumerate_trees(graph, self.feature_edges, budget=budget):
            self._set_bits(bits, ("T", tree_canonical(graph, edges)))
        for cycle in enumerate_simple_cycles(graph, self.feature_edges, budget=budget):
            labels = [graph.label(v) for v in cycle]
            self._set_bits(bits, ("C", cycle_canonical(labels)))
        return bits

    def _set_bits(self, bits: Bitset, canonical: tuple) -> None:
        positions = self._position_cache.get(canonical)
        if positions is None:
            positions = hash_positions(
                canonical, self.fingerprint_bits, self.bits_per_feature
            )
            self._position_cache[canonical] = positions
        for position in positions:
            bits.set(position)

    # ------------------------------------------------------------------

    def _build(self, dataset: GraphDataset, budget: Budget | None) -> dict:
        self._fingerprints = []
        per_graph_bytes = self.fingerprint_bits // 8 + 64
        saturation = 0.0
        for graph in dataset:
            if budget is not None:
                budget.check()
                budget.check_memory(len(self._fingerprints) * per_graph_bytes)
            fingerprint = self.fingerprint(graph, budget=budget)
            self._fingerprints.append(fingerprint)
            saturation += fingerprint.saturation()
        return {
            "avg_saturation": saturation / len(dataset) if len(dataset) else 0.0,
            "distinct_features": len(self._position_cache),
        }

    def _filter(self, query: Graph, budget: Budget | None) -> set[int]:
        query_fingerprint = self.fingerprint(query, budget=budget)
        return {
            graph_id
            for graph_id, fingerprint in enumerate(self._fingerprints)
            if fingerprint.contains(query_fingerprint)
        }

    def _verifier(self, query: Graph) -> Callable[[int, Budget | None], bool]:
        """The 'modified VF2': rare-label, high-degree vertices first.

        That order reads a data graph only through the relative order
        of the query labels' frequencies in it, so candidates with the
        same :func:`frequency_ranks` share one plan — memoized for this
        verify call only, never retained past the query.
        """
        dataset = self._dataset
        assert dataset is not None
        labels = tuple(query.label_histogram())
        plans: dict[tuple[int, ...], MatchPlan] = {}

        def contains(graph_id: int, budget: Budget | None) -> bool:
            graph = dataset[graph_id]
            ranks = frequency_ranks(labels, graph)
            plan = plans.get(ranks)
            if plan is None:
                plan = plans[ranks] = match_plan(query, graph, frequency_degree_order)
            return SubgraphMatcher.with_plan(plan, query, graph, budget).exists()

        return contains

    def _size_payload(self) -> object:
        # The index proper is the fingerprint array; the position cache
        # is a build-time memoization, not part of the stored index.
        return self._fingerprints

    # -- artifact contract ---------------------------------------------

    def _index_params(self) -> dict:
        return {
            "fingerprint_bits": self.fingerprint_bits,
            "feature_edges": self.feature_edges,
            "bits_per_feature": self.bits_per_feature,
        }

    def _export_payload(self) -> object:
        return self._fingerprints

    def _import_payload(self, payload: object) -> None:
        self._fingerprints = payload  # type: ignore[assignment]
        # The position cache repopulates lazily as queries hash their
        # own features; it is a memoization, not index content.
        self._position_cache = {}
