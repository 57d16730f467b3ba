"""The read-only graph protocol: what a graph can be asked.

:class:`~repro.graphs.graph.Graph` (the mutable builder — also the type
of generated queries and mined patterns) and
:class:`~repro.graphs.csr.CSRGraph` (the immutable representation every
data graph, admitted query and ``induced_subgraph`` projection of one
runs on) both implement every accessor below, with identical answers
on equal graphs; ``tests/test_graph_core.py::TestAccessorParity`` is
the conformance test.  The matchers, the STwig decomposition and the
vertex-ordering heuristics are written against this protocol alone, so
they accept either class without probing.

Code that needs the flat arrays themselves (the feature enumerations,
Ullmann's adjacency rows and compact hosts, gCode's counters) admits
its input with :func:`repro.graphs.csr.as_core_query` and then uses
``CSRGraph``'s array accessors, which are not part of this protocol.

The class is used in annotations only: nothing subclasses it and
nothing checks it at run time.
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Iterable, Iterator
from typing import Protocol

__all__ = ["LabeledGraph"]

Label = Hashable


class LabeledGraph(Protocol):
    """An undirected graph with dense vertices ``0..n-1``, one label each."""

    @property
    def order(self) -> int:
        """Number of vertices."""

    @property
    def size(self) -> int:
        """Number of edges."""

    def label(self, v: int) -> Label:
        """The label of vertex *v*."""

    @property
    def labels(self) -> tuple[Label, ...]:
        """Labels indexed by vertex."""

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Vertices adjacent to *v*, each once (``CSRGraph``: ascending)."""

    def neighbor_set(self, v: int) -> Collection[int]:
        """The same vertices as a set, for read-only set algebra."""

    def degree(self, v: int) -> int:
        """Number of edges incident to *v*."""

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the undirected edge ``{u, v}`` exists."""

    def vertices(self) -> range:
        """All vertex ids."""

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once, as ``(u, v)`` with ``u < v``."""

    def vertices_by_label(self) -> dict[Label, list[int]]:
        """Label → ascending vertices carrying it (treat as read-only)."""

    def candidate_vertices(self, label: Label, min_degree: int = 0) -> tuple[int, ...]:
        """Ascending vertices with *label* and degree ≥ *min_degree*."""

    def neighbor_label_counts(self) -> list[dict[Label, int]]:
        """Per vertex: label → number of neighbors carrying it."""

    def label_histogram(self) -> dict[Label, int]:
        """Label → number of vertices carrying it."""

    def distinct_labels(self) -> set[Label]:
        """The labels appearing on at least one vertex."""

    def connected_components(self) -> list[list[int]]:
        """Vertex lists of the connected components, each sorted."""

    def is_connected(self) -> bool:
        """True iff exactly one component (the empty graph is not)."""

    def induced_subgraph(
        self, vertices: Iterable[int]
    ) -> tuple["LabeledGraph", list[int]]:
        """The subgraph induced by *vertices*, in this graph's own
        representation, and the ascending map from its vertex ids back
        to this graph's."""
