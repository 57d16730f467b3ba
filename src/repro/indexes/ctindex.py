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

Canonical forms are computed once per labelled isomorphism class, not
once per occurrence.  Each tree occurrence is read as a *local shape*
(every vertex named by the first position it takes in the flattened
edge list); a shape's plan — its unlabelled class and every isomorphism
onto the class representative (:mod:`repro.canonical.shapes`) — is
computed the first time the shape is seen.  The occurrence's key is
the class plus the minimum, over those isomorphisms, of its interned
label ids in representative order; a cycle's key is the minimum of its
label ids over rotations and reflections.  Equal keys ⇔ isomorphic
labelled features, so one memo maps each key to the bit mask of its
feature: a miss runs :func:`~repro.canonical.trees.tree_canonical` /
:func:`~repro.canonical.cycles.cycle_canonical` on that occurrence and
hashes the form with :func:`~repro.utils.hashing.hash_positions`
exactly as a per-occurrence loop would, so bit positions — and every
fingerprint — are unchanged.  The memo lives on the index: queries hit
the forms the build already saw.

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
from functools import lru_cache
from operator import itemgetter

from repro.canonical.cycles import cycle_canonical
from repro.canonical.shapes import cycle_symmetries, tree_shape_plan
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

#: Entries at which a memo table (feature masks, tree plans) starts
#: over, as :func:`repro.isomorphism.vf2._shared` does.  Keys never
#: depend on what a reset forgot, so a reset costs recomputation only.
_MEMO_LIMIT = 1 << 16


@lru_cache(maxsize=None)
def _cycle_getters(length: int) -> tuple[itemgetter, ...]:
    """One getter per rotation and reflection of a ring of *length*."""
    return tuple(itemgetter(*p) for p in cycle_symmetries(length))


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
        self._reset_memo()

    def _reset_memo(self) -> None:
        """Forget every memoized plan, label id and feature mask."""
        #: ``(type, label)`` → label id, in first-seen order; typed so
        #: that ``1``, ``1.0`` and ``True`` stay apart, as the ``repr``
        #: the hash reads does.  This and the class table grow with the
        #: label alphabet and the tree classes, not with occurrences, and
        #: feature keys are built from their ids, so neither is trimmed.
        self._label_ids: dict[tuple, int] = {}
        #: unlabelled AHU code → class id, in first-seen order.
        self._classes: dict[tuple, int] = {}
        #: local tree shape → ``(class id, representative-order getters)``.
        self._tree_plans: dict[tuple[int, ...], tuple] = {}
        #: feature key → int mask of its fingerprint positions.
        self._masks: dict[tuple, int] = {}

    # ------------------------------------------------------------------

    def fingerprint(self, graph: Graph, budget: Budget | None = None) -> Bitset:
        """Compute the tree+cycle fingerprint of one graph."""
        return Bitset(self.fingerprint_bits, self._mask(graph, self._features(graph, budget)))

    def _features(self, graph: Graph, budget: Budget | None) -> dict[tuple, tuple]:
        """Feature key → first occurrence, one entry per labelled class.

        A tree's key is ``("T", class id, label ids in representative
        order, minimised over the shape's isomorphisms)``; a cycle's is
        ``("C", label ids minimised over rotations and reflections)``.
        Equal keys ⇔ labelled-isomorphic features (see
        :mod:`repro.canonical.shapes`).
        """
        label_ids = self._label_ids
        ids = []
        for label in graph.labels:
            typed = (label.__class__, label)
            label_id = label_ids.get(typed)
            if label_id is None:
                label_id = label_ids[typed] = len(label_ids)
            ids.append(label_id)
        vertex_id = ids.__getitem__

        features: dict[tuple, tuple] = {}
        plans = self._tree_plans
        for edges in enumerate_trees(graph, self.feature_edges, budget=budget):
            # The local shape names each vertex by the first position it
            # takes in the flattened edge list; labels are read per position.
            flat = sum(edges, ())
            shape = tuple(map(flat.index, flat))
            plan = plans.get(shape)
            if plan is None:
                plan = self._tree_plan(shape)
            class_id, getters = plan
            labels = tuple(map(vertex_id, flat))
            features.setdefault(
                ("T", class_id, min([getter(labels) for getter in getters])), edges
            )
        for cycle in enumerate_simple_cycles(graph, self.feature_edges, budget=budget):
            labels = tuple(map(vertex_id, cycle))
            getters = _cycle_getters(len(cycle))
            features.setdefault(("C", min([getter(labels) for getter in getters])), cycle)
        return features

    def _tree_plan(self, shape: tuple[int, ...]) -> tuple:
        """Plan of a local shape: its class id and one getter per
        isomorphism, reading an occurrence's per-position labels in
        representative order."""
        code, isomorphisms = tree_shape_plan(zip(shape[::2], shape[1::2]))
        class_id = self._classes.setdefault(code, len(self._classes))
        plans = self._tree_plans
        if len(plans) >= _MEMO_LIMIT:
            plans.clear()
        plan = plans[shape] = (class_id, tuple(itemgetter(*p) for p in isomorphisms))
        return plan

    def _mask(self, graph: Graph, features: dict[tuple, tuple]) -> int:
        """OR of the features' position masks; a miss hashes the
        feature's canonical form exactly as the per-occurrence loop did."""
        masks = self._masks
        mask = 0
        for key, occurrence in features.items():
            feature_mask = masks.get(key)
            if feature_mask is None:
                if key[0] == "T":
                    canonical = ("T", tree_canonical(graph, occurrence))
                else:
                    labels = [graph.label(v) for v in occurrence]
                    canonical = ("C", cycle_canonical(labels))
                feature_mask = 0
                for position in hash_positions(
                    canonical, self.fingerprint_bits, self.bits_per_feature
                ):
                    feature_mask |= 1 << position
                if len(masks) >= _MEMO_LIMIT:
                    masks.clear()
                masks[key] = feature_mask
            mask |= feature_mask
        return mask

    # ------------------------------------------------------------------

    def _build(self, dataset: GraphDataset, budget: Budget | None) -> dict:
        self._fingerprints = []
        per_graph_bytes = self.fingerprint_bits // 8 + 64
        saturation = 0.0
        distinct: set[tuple] = set()
        for graph in dataset:
            if budget is not None:
                budget.check()
                budget.check_memory(len(self._fingerprints) * per_graph_bytes)
            features = self._features(graph, budget)
            distinct.update(features)
            fingerprint = Bitset(self.fingerprint_bits, self._mask(graph, features))
            self._fingerprints.append(fingerprint)
            saturation += fingerprint.saturation()
        return {
            "avg_saturation": saturation / len(dataset) if len(dataset) else 0.0,
            "distinct_features": len(distinct),
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
        # The index proper is the fingerprint array; the plans and masks
        # are memoization, not part of the stored index.
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
        # The memo repopulates lazily as queries hash their own
        # features; it is not index content.
        self._reset_memo()
