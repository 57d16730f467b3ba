"""STwig-style query decomposition for the single-graph regime.

"Efficient Subgraph Matching on Billion Node Graphs" (Sun et al.,
PVLDB 2012) answers subgraph queries over one massive graph by cutting
the query into **STwigs** — two-level trees, a root plus its leaves —
ordered so that rare, high-degree roots are matched first, and joining
the per-STwig matches.  This module reproduces the decomposition and
ordering as *domain machinery*: the harness here does not ship a join
engine, it feeds the existing Ullmann/VF2 verifiers per-vertex
candidate domains, and the STwig structure is what narrows and orders
those domains.

Three consumers:

* :meth:`repro.indexes.base.GraphIndex.filter_vertices` prunes every
  method's domains with :func:`prune_domains` (a root survives only if
  its data-graph neighborhood covers the STwig's leaf labels);
* :func:`embedding_root` picks the query vertex whose domain is
  enumerated as embedding roots (the first STwig root — the rarest
  anchor, exactly the paper's match-order head);
* the ``cni`` index narrows the same domains further with its
  neighborhood signatures before verification.

Everything is deterministic: selection breaks ties by vertex id, so
two processes decompose one query identically — the property sharded
sweeps rely on.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.graphs.protocol import LabeledGraph

__all__ = [
    "STwig",
    "decompose_query",
    "match_order",
    "embedding_root",
    "initial_domains",
    "prune_domains",
]


@dataclass(frozen=True, slots=True)
class STwig:
    """One two-level tree of the query: a root and its leaf fringe."""

    #: Query vertex anchoring this STwig.
    root: int
    #: Query neighbors of the root covered by this STwig, ascending.
    leaves: tuple[int, ...]


def _frequencies(data: LabeledGraph) -> dict:
    """Label → vertex count in the data graph (rarity ranking)."""
    return data.label_histogram()


def decompose_query(query: LabeledGraph, data: LabeledGraph) -> list[STwig]:
    """Cut *query* into an edge cover of STwigs, rarest-root first.

    Greedy, per the paper's ``STwig-order``: repeatedly pick the vertex
    minimizing ``freq(label) / uncovered-degree`` (rare labels and high
    degrees make selective roots), emit the STwig of its still-uncovered
    incident edges, and mark them covered.  Isolated query vertices get
    leafless STwigs at the end, so every query vertex appears in the
    decomposition.  Ties break by vertex id — the decomposition is a
    pure function of (query, data labels).
    """
    freq = _frequencies(data)
    uncovered: set[frozenset[int]] = {
        frozenset(edge) for edge in query.edges()
    }
    fringe = [
        sum(1 for w in query.neighbors(v)) for v in query.vertices()
    ]
    stwigs: list[STwig] = []
    seen_roots: set[int] = set()
    while uncovered:
        def selectivity(v: int) -> tuple:
            degree = fringe[v]
            return (freq.get(query.label(v), 0) / degree, v)

        root = min(
            (v for v in query.vertices() if fringe[v] > 0), key=selectivity
        )
        leaves = tuple(
            sorted(
                w
                for w in query.neighbors(root)
                if frozenset((root, w)) in uncovered
            )
        )
        for w in leaves:
            uncovered.discard(frozenset((root, w)))
            fringe[w] -= 1
        fringe[root] = 0
        seen_roots.add(root)
        stwigs.append(STwig(root=root, leaves=leaves))
    for v in query.vertices():
        if query.degree(v) == 0:
            stwigs.append(STwig(root=v, leaves=()))
    return stwigs


def match_order(query: LabeledGraph, data: LabeledGraph) -> tuple[int, ...]:
    """Every query vertex once, in STwig exploration order.

    Roots first within each STwig, then its leaves — the order the
    paper's join pipeline binds vertices, reused here to pick
    enumeration anchors deterministically.
    """
    order: list[int] = []
    placed: set[int] = set()
    for stwig in decompose_query(query, data):
        for v in (stwig.root, *stwig.leaves):
            if v not in placed:
                placed.add(v)
                order.append(v)
    return tuple(order)


def embedding_root(query: LabeledGraph, data: LabeledGraph) -> int:
    """The query vertex whose candidates are reported as embedding roots.

    The head of :func:`match_order` — the rarest, best-anchored vertex,
    so the reported root set is as selective as the decomposition can
    make it.  Requires a non-empty query.
    """
    if query.order == 0:
        raise ValueError("an empty query has no embedding root")
    return match_order(query, data)[0]


def initial_domains(query: LabeledGraph, data: LabeledGraph) -> list[set[int]]:
    """Label- and degree-feasible candidate domains per query vertex.

    The generic single-graph filter every index starts from (the twin
    of Ullmann's initial candidate matrix): ``domains[u]`` holds the
    data vertices with ``u``'s label and at least its degree.  Unlike
    the matcher-internal variant, an infeasible vertex yields an
    *empty set* rather than aborting — the caller reports empty
    domains as an empty answer.
    """
    return [
        set(data.candidate_vertices(query.label(u), query.degree(u)))
        for u in query.vertices()
    ]


def prune_domains(
    query: LabeledGraph,
    data: LabeledGraph,
    domains: list[set[int]],
    stwigs: Sequence[STwig] | None = None,
) -> list[set[int]]:
    """Narrow *domains* with the STwig edge cover, superset-preserving.

    A candidate for an STwig root survives only if its data-graph
    neighborhood carries at least as many vertices of each leaf label
    as the STwig demands — any embedding maps the leaves onto distinct
    same-labeled neighbors, so dropped candidates host no embedding.
    Returns fresh sets; the input domains are not mutated.  *stwigs* is
    ``decompose_query(query, data)`` for a caller that already has it.
    """
    pruned = [set(domain) for domain in domains]
    if stwigs is None:
        stwigs = decompose_query(query, data)
    neighbor_counts = data.neighbor_label_counts()
    for stwig in stwigs:
        if not stwig.leaves:
            continue
        need: dict = {}
        for w in stwig.leaves:
            label = query.label(w)
            need[label] = need.get(label, 0) + 1
        keep = set()
        for v in pruned[stwig.root]:
            counts = neighbor_counts[v]
            if all(counts.get(label, 0) >= k for label, k in need.items()):
                keep.add(v)
        pruned[stwig.root] = keep
    return pruned
