"""Discriminative feature selection (gIndex, §3).

gIndex does not index every frequent fragment: a fragment earns a place
only if it *discriminates* — its support set is substantially smaller
than the intersection of the support sets of its already-indexed
subfragments.  Formally, with indexed subfeatures ``f' ⊆ f`` and
discriminative ratio γ, feature ``f`` is selected iff::

    |∩ D(f')|  ≥  γ · |D(f)|

(the candidate set an index of the subfeatures alone would produce is at
least γ times larger than what indexing ``f`` achieves).  Features are
examined in increasing size so subfeatures are always decided first;
size-1 features are measured against the whole dataset.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.canonical.order import label_key
from repro.graphs.csr import CSRGraph, as_core_query
from repro.isomorphism.vf2 import is_subgraph
from repro.mining.gspan import MinedPattern
from repro.utils.budget import Budget

__all__ = ["select_discriminative"]


def select_discriminative(
    patterns: Iterable[MinedPattern],
    gamma: float,
    num_graphs: int,
    budget: Budget | None = None,
) -> list[MinedPattern]:
    """Return the discriminative subset of *patterns* under ratio *gamma*.

    Parameters
    ----------
    patterns:
        Frequent patterns (any order; sorted internally by size).
    gamma:
        Discriminative ratio γ ≥ 1 (gIndex default 2.0).  Larger γ
        selects fewer features.
    num_graphs:
        Dataset size; the base candidate set for size-1 features.
    budget:
        Optional time budget, polled once per examined pattern.

    Notes
    -----
    Finding the indexed subfeatures of a candidate requires subgraph
    tests between pattern graphs.  Two sound prefilters keep this
    affordable: only smaller features can be subfeatures, and a
    subfeature's support set must be a superset of the candidate's —
    so features with smaller support are skipped without a VF2 call.
    """
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1.0, got {gamma}")
    ordered = sorted(
        patterns,
        key=lambda pattern: (pattern.size, _code_key(pattern.code)),
    )
    selected: list[MinedPattern] = []
    # Selected graphs are admitted once, so each caches its VF2 plan and
    # every later subfeature test against it reuses that plan.
    selected_graphs: list[CSRGraph] = []
    selected_supports: list[set[int]] = []
    for pattern in ordered:
        if budget is not None:
            budget.check()
        support = pattern.support_set()
        candidate_pool = _subfeature_intersection(
            pattern, support, selected_graphs, selected_supports, num_graphs
        )
        if candidate_pool >= gamma * len(support):
            selected.append(pattern)
            selected_graphs.append(as_core_query(pattern.graph))
            selected_supports.append(support)
    return selected


def _subfeature_intersection(
    pattern: MinedPattern,
    support: set[int],
    selected: list[CSRGraph],
    selected_supports: list[set[int]],
    num_graphs: int,
) -> int:
    """Size of ``∩ D(f')`` over indexed subfeatures ``f'`` of *pattern*."""
    intersection: set[int] | None = None
    host: CSRGraph | None = None
    for candidate, candidate_support in zip(selected, selected_supports):
        if candidate.size >= pattern.size:
            continue
        if len(candidate_support) < len(support):
            continue  # a subfeature's support is never smaller
        if not support <= candidate_support:
            continue  # same necessary condition, element-wise
        if host is None:
            # Admitted once: its rows serve every candidate tested here.
            host = as_core_query(pattern.graph)
        if not is_subgraph(candidate, host):
            continue
        intersection = (
            set(candidate_support)
            if intersection is None
            else intersection & candidate_support
        )
        if len(intersection) <= len(support):
            break  # cannot shrink below |D(f)|; stop early
    return num_graphs if intersection is None else len(intersection)


def _code_key(code) -> tuple:
    """Deterministic ordering key for DFS codes with arbitrary labels."""
    return tuple(
        (i, j, label_key(li), label_key(lj)) for i, j, li, lj in code
    )
