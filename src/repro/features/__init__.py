"""Exhaustive feature enumeration (paper §2.2, extraction approach (i)).

Grapes, GraphGrepSX, CT-Index and gCode all *exhaustively enumerate*
size-limited substructures of every graph:

* :mod:`~repro.features.paths` — all simple label paths up to a length
  limit, with occurrence counts and start locations (Grapes, GGSX,
  gCode);
* :mod:`~repro.features.trees` — all subtrees up to an edge limit
  (CT-Index), built on a line-graph ESU enumeration of connected edge
  subsets;
* :mod:`~repro.features.cycles` — all simple cycles up to an edge limit
  (CT-Index, Tree+Δ's Δ features).

Feature *size* is the number of edges throughout, as in the paper.
Every enumeration runs over the CSR arrays and converts a builder
:class:`~repro.graphs.graph.Graph` on entry.
"""

from repro.features.cycles import enumerate_simple_cycles
from repro.features.paths import PathOccurrences, path_features
from repro.features.trees import connected_edge_subsets, enumerate_trees

__all__ = [
    "path_features",
    "PathOccurrences",
    "enumerate_trees",
    "connected_edge_subsets",
    "enumerate_simple_cycles",
]
