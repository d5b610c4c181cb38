"""Materialize a sanitized trajectory database from a prefix tree.

The release holds one entry per node that terminates records, weighted by
how many it terminates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import TrajectoryDb
from .tree import PrefixTree


def generate_release(
    tree: PrefixTree, use_inference: bool, flat: PrefixTree | None = None
) -> TrajectoryDb:
    """Emit the database encoded by the tree's counts.

    Each non-root node terminates ``round(count - sum of child counts)``
    trajectories (clamped at zero, halves rounded to even): its prefix becomes
    one entry standing for that many records, nodes taken in postorder. With
    ``use_inference`` the adjusted counts are read, otherwise the raw noisy
    counts ("basic" variant); both run on the same tree so the two variants
    share one set of random draws.

    ``flat`` is ignored; callers may pass on what ``consolidate`` returns.
    """
    n = len(tree)
    if use_inference:
        if tree.adjusted is None or np.isnan(tree.adjusted[1:]).any():
            raise ValueError("adjusted counts missing; run the inference passes first")
        counts = tree.adjusted.copy()
    else:
        counts = tree.noisy.copy()
    counts[0] = 0.0

    child_sum = np.zeros(n)
    np.add.at(child_sum, tree.parent[1:], counts[1:])
    terminated = np.maximum(np.rint(counts - child_sum), 0.0).astype(np.int64)
    terminated[0] = 0

    # Prefixes of the internal nodes, parents first (preorder); a released
    # node's prefix is its parent's plus its own location.
    prefix: dict[int, tuple[int, ...]] = {0: ()}
    internal = np.flatnonzero(tree.n_children[1:]) + 1
    for i, up, loc in zip(
        internal.tolist(), tree.parent[internal].tolist(), tree.location[internal].tolist()
    ):
        prefix[i] = prefix[up] + (loc,)
    emitting = np.flatnonzero(terminated)[::-1]  # postorder
    entries = [
        prefix[up] + (loc,)
        for up, loc in zip(tree.parent[emitting].tolist(), tree.location[emitting].tolist())
    ]
    return TrajectoryDb(entries, np.repeat(np.arange(len(entries)), terminated[emitting]))


@dataclass(frozen=True)
class ReleaseStats:
    records: int
    length_histogram: dict[int, int]
    distinct_locations: int


def release_stats(db: TrajectoryDb) -> ReleaseStats:
    lengths = np.fromiter(map(len, db.entries), dtype=np.intp, count=len(db.entries))
    histogram = np.bincount(lengths, weights=db.weights).astype(np.int64)
    return ReleaseStats(
        records=len(db),
        length_histogram={n: c for n, c in enumerate(histogram.tolist()) if c},
        distinct_locations=len(set().union(*db.entries)),
    )
