"""Labeled-graph data model.

Implements the paper's Definition 1: undirected graphs with a label on
every vertex (edge labels are not supported, matching the implementations
the paper benchmarked).  The package provides:

* :class:`~repro.graphs.graph.Graph` — a single graph with dense integer
  vertices and per-vertex labels;
* :class:`~repro.graphs.dataset.GraphDataset` — an ordered collection of
  graphs with stable integer ids (the "transactional" graph database the
  six indexes are built over);
* :mod:`~repro.graphs.statistics` — the dataset characteristics of
  Table 1 (density Eq. 1, average degree Eq. 2, label statistics);
* :mod:`~repro.graphs.io` — a line-oriented text format compatible in
  spirit with the ``.gfd`` files used by Grapes/GGSX;
* :mod:`~repro.graphs.csr` — the immutable flat-array (CSR) graph core
  every data graph and admitted query runs on, with :class:`Graph` kept
  as the mutable builder;
* :mod:`~repro.graphs.protocol` — the read-only accessor set both
  classes implement.
"""

from repro.graphs.csr import CSRDataset, CSRGraph, as_core_dataset
from repro.graphs.dataset import GraphDataset
from repro.graphs.graph import Graph, GraphError
from repro.graphs.statistics import DatasetStatistics, GraphStatistics, dataset_statistics, graph_statistics

__all__ = [
    "Graph",
    "GraphError",
    "GraphDataset",
    "CSRGraph",
    "CSRDataset",
    "GraphStatistics",
    "DatasetStatistics",
    "as_core_dataset",
    "graph_statistics",
    "dataset_statistics",
]
