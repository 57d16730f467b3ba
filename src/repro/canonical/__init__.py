"""Canonical labels for graph features (paper §2.2).

Every index identifies features by a *canonical label*: a representation
that is identical for isomorphic features and distinct for
non-isomorphic ones.  Each feature structure has its own algorithm:

* **paths** — minimum of the label sequence and its reverse
  (:func:`~repro.canonical.paths.path_canonical`);
* **free trees** — AHU encoding rooted at the tree center(s)
  (:func:`~repro.canonical.trees.tree_canonical`);
* **simple cycles** — lexicographically minimal rotation over both
  traversal directions (:func:`~repro.canonical.cycles.cycle_canonical`);
* **general connected graphs** — gSpan minimum DFS code
  (:func:`~repro.canonical.dfscode.min_dfs_code`), also the backbone of
  the frequent-subgraph miner used by gIndex.

:mod:`repro.canonical.shapes` plans small tree and cycle shapes once —
class and isomorphisms onto a representative — so a caller meeting
many occurrences computes one canonical label per labelled class.

All orderings go through :func:`~repro.canonical.order.label_key`, so
mixed label types (e.g. ints and strings) never raise comparison errors.
"""

from repro.canonical.cycles import cycle_canonical
from repro.canonical.dfscode import (
    DfsCode,
    dfs_code_graph,
    is_min_dfs_code,
    min_dfs_code,
)
from repro.canonical.order import label_key
from repro.canonical.paths import path_canonical
from repro.canonical.trees import tree_canonical, tree_canonical_rooted

__all__ = [
    "label_key",
    "path_canonical",
    "tree_canonical",
    "tree_canonical_rooted",
    "cycle_canonical",
    "DfsCode",
    "min_dfs_code",
    "is_min_dfs_code",
    "dfs_code_graph",
]
