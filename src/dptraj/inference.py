"""Consistency-restoring post-processing of noisy tree counts.

A noise-free prefix tree satisfies two structural facts: counts never
increase walking down a root-to-leaf path, and a parent's count is at least
the sum of its children's. Noise breaks both. This module restores them in
two passes that only ever read the noisy counts, never the data:

1. per root-to-leaf path, replace the counts by their closest non-decreasing
   (leaf-to-root) sequence in least squares, then average each node's
   per-path estimates into ``fitted_count``;
2. walk the tree top-down and, wherever the children's fitted counts sum to
   more than the parent has, spread the deficit equally among the children --
   counts are only ever decreased -- producing ``adjusted_count``.

After pass 2 every parent's adjusted count dominates the sum of its
children's. The down-path ordering of adjusted counts is not guaranteed once
estimates are averaged across paths; violations are counted by
:func:`order_violations` and logged rather than treated as errors.
"""

from __future__ import annotations

import logging
import numpy as np

from .tree import FlatTree, PrefixTree, flatten_tree

logger = logging.getLogger(__name__)

_ROW_CHUNK = 131072


def _isotonic_rows(rows: np.ndarray) -> np.ndarray:
    """Row-wise non-decreasing least-squares fit of a (paths, length) block."""
    m, n = rows.shape
    csum = np.cumsum(rows, axis=1)
    prefix = np.concatenate([np.zeros((m, 1)), csum], axis=1)
    max_mean = np.empty_like(rows)
    for j in range(n):
        widths = (j + 1) - np.arange(j + 1)
        means = (csum[:, j : j + 1] - prefix[:, : j + 1]) / widths
        max_mean[:, j] = means.max(axis=1)
    return np.minimum.accumulate(max_mean[:, ::-1], axis=1)[:, ::-1]


def _leaf_paths(flat: FlatTree) -> tuple[np.ndarray, np.ndarray]:
    """Leaf-to-root node-index matrix (rows padded with -1) and row lengths."""
    leaf_idx = np.flatnonzero((flat.n_children == 0) & (flat.depth > 0))
    lengths = flat.depth[leaf_idx]
    max_len = int(lengths.max()) if len(lengths) else 0
    paths = np.full((len(leaf_idx), max_len), -1, dtype=np.int64)
    if len(leaf_idx):
        paths[:, 0] = leaf_idx
        cur = leaf_idx
        for step in range(1, max_len):
            nxt = np.where(cur >= 0, flat.parent[np.maximum(cur, 0)], -1)
            nxt = np.where(nxt == 0, -1, nxt)  # stop below the virtual root
            paths[:, step] = nxt
            cur = nxt
    return paths, lengths


def consolidate(tree: PrefixTree, flat: FlatTree | None = None) -> FlatTree:
    """Fill ``fitted_count`` on every non-root node.

    A node sits on one root-to-leaf path per leaf below it; its fitted count
    is the mean of its isotonic estimates over those paths.
    """
    if flat is None:
        flat = flatten_tree(tree)
    n = len(flat)
    paths, lengths = _leaf_paths(flat)
    sums = np.zeros(n)
    hits = np.zeros(n, dtype=np.int64)
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        for start in range(0, len(rows), _ROW_CHUNK):
            block = rows[start : start + _ROW_CHUNK]
            idx = paths[block, :length]
            fits = _isotonic_rows(flat.noisy[idx])
            np.add.at(sums, idx.ravel(), fits.ravel())
            np.add.at(hits, idx.ravel(), 1)
    fitted = np.zeros(n)
    covered = hits > 0
    fitted[covered] = sums[covered] / hits[covered]
    for i in range(1, n):
        flat.order[i].fitted_count = float(fitted[i])
    return flat


def consistent_estimates(tree: PrefixTree, flat: FlatTree | None = None) -> FlatTree:
    """Fill ``adjusted_count`` top-down from the fitted counts.

    Depth-1 nodes keep their fitted counts. Deeper nodes share their parent's
    deficit equally: when the children's fitted counts exceed what the parent
    can account for, each child gives back an equal part; a surplus never
    raises anybody.
    """
    if flat is None:
        flat = flatten_tree(tree)
    n = len(flat)
    if n == 1:
        return flat
    fitted = np.empty(n)
    fitted[0] = 0.0
    for i in range(1, n):
        value = flat.order[i].fitted_count
        if value is None:
            raise ValueError("fitted counts missing; run consolidate() first")
        fitted[i] = value

    child_fitted_sum = np.zeros(n)
    np.add.at(child_fitted_sum, flat.parent[1:], fitted[1:])

    adjusted = np.empty(n)
    adjusted[0] = 0.0
    for depth in range(1, int(flat.depth.max()) + 1):
        level = np.flatnonzero(flat.depth == depth)
        if depth == 1:
            adjusted[level] = fitted[level]
            continue
        parents = flat.parent[level]
        deficit = np.minimum(
            0.0, (adjusted[parents] - child_fitted_sum[parents]) / flat.n_children[parents]
        )
        adjusted[level] = fitted[level] + deficit
    for i in range(1, n):
        flat.order[i].adjusted_count = float(adjusted[i])
    return flat


def order_violations(tree: PrefixTree, tolerance: float = 1e-9) -> int:
    """Count child nodes whose adjusted count exceeds their parent's.

    Down-path monotonicity is not enforced by the two passes; callers get a
    log line when it is broken in practice.
    """
    violations = 0
    for node in tree.nodes():
        if node.parent is None or node.parent.parent is None:
            continue
        child = node.adjusted_count
        parent = node.parent.adjusted_count
        if child is not None and parent is not None and child > parent + tolerance:
            violations += 1
    if violations:
        logger.warning("adjusted counts break down-path ordering at %d nodes", violations)
    return violations
