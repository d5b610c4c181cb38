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
estimates are averaged across paths; :func:`order_violations` counts the
violations as a run statistic rather than treating them as errors.
"""

from __future__ import annotations

import numpy as np

from .tree import PrefixTree

#: Path cells fitted per block. A block of ``rows`` paths of one length
#: holds about six float64 arrays of that many cells (the gathered counts,
#: the isotonic fit's running sums and maxima, and the fit), so this bounds
#: them to about 6 MB together, whatever the leaf count.
_BLOCK_CELLS = 1 << 17


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


def consolidate(tree: PrefixTree) -> PrefixTree:
    """Fill ``tree.fitted`` for every non-root node; return the tree.

    A node sits on one root-to-leaf path per leaf below it; its fitted count
    is the mean of its isotonic estimates over those paths.
    """
    n = len(tree)
    leaves = np.flatnonzero((tree.n_children == 0) & (tree.depth > 0))
    paths, lengths = tree.paths(leaves), tree.depth[leaves]
    sums = np.zeros(n)
    hits = np.zeros(n, dtype=np.int64)
    for length in np.flatnonzero(np.bincount(lengths)):
        rows = np.flatnonzero(lengths == length)
        step = max(1, _BLOCK_CELLS // length)
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            idx = paths[block, length - 1 :: -1]  # leaf first
            fits = _isotonic_rows(tree.noisy[idx])
            np.add.at(sums, idx.ravel(), fits.ravel())
            np.add.at(hits, idx.ravel(), 1)
    fitted = np.zeros(n)
    covered = hits > 0
    fitted[covered] = sums[covered] / hits[covered]
    tree.fitted = fitted
    return tree


def consistent_estimates(tree: PrefixTree, flat: PrefixTree | None = None) -> PrefixTree:
    """Fill ``tree.adjusted`` top-down from the fitted counts; return the tree.

    Depth-1 nodes keep their fitted counts. Deeper nodes share their parent's
    deficit equally: when the children's fitted counts exceed what the parent
    can account for, each child gives back an equal part; a surplus never
    raises anybody.

    ``flat`` is ignored; callers may pass on what :func:`consolidate` returns.
    """
    if tree.fitted is None or np.isnan(tree.fitted[1:]).any():
        raise ValueError("fitted counts missing; run consolidate() first")
    # Starts as the fitted counts; each level from depth 2 on then takes its deficit.
    adjusted = tree.fitted.copy()
    adjusted[0] = 0.0

    child_fitted_sum = np.bincount(tree.parent[1:], adjusted[1:], minlength=len(tree))

    for depth in range(2, int(tree.depth.max()) + 1):
        level = np.flatnonzero(tree.depth == depth)
        parents = tree.parent[level]
        adjusted[level] += np.minimum(
            0.0, (adjusted[parents] - child_fitted_sum[parents]) / tree.n_children[parents]
        )
    tree.adjusted = adjusted
    return tree


def order_violations(tree: PrefixTree) -> int:
    """Count child nodes whose adjusted count exceeds their parent's by more than 1e-9.

    Down-path monotonicity is not enforced by the two passes. Nodes without an
    adjusted count are not counted.
    """
    if tree.adjusted is None:
        return 0
    child = np.flatnonzero(tree.depth >= 2)
    adjusted = tree.adjusted
    return int(np.count_nonzero(adjusted[child] > adjusted[tree.parent[child]] + 1e-9))
