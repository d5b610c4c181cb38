"""End-to-end sanitization: noisy tree, optional inference, release.

:func:`sanitize` builds the tree and hands it to :func:`release_tree`, which
runs the other two steps and reads nothing but the tree, so a caller that
builds the tree itself can drop the input first; :func:`generate_release`
materializes the sanitized database from the tree, one entry per node that
terminates records, weighted by how many it terminates.
"""

from __future__ import annotations

import numpy as np

from . import VARIANTS
from .inference import consistent_estimates, consolidate
from .model import LocationUniverse, TrajectoryDb
from .privacy import PrivacyParams, RandomSource
from .tree import PrefixTree, build_noisy_tree


def sanitize(
    db: TrajectoryDb,
    universe: LocationUniverse,
    params: PrivacyParams,
    source: RandomSource,
    variant: str = "full",
) -> tuple[TrajectoryDb, PrefixTree]:
    """Sanitize ``db`` and return the release together with the tree behind it.

    ``variant="basic"`` releases straight from the noisy counts;
    ``variant="full"`` runs the consistency passes first.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    tree = build_noisy_tree(db, universe, params, source)
    return release_tree(tree, use_inference=(variant == "full")), tree


def release_tree(tree: PrefixTree, use_inference: bool) -> TrajectoryDb:
    """The release of a built tree, after the consistency passes with ``use_inference``."""
    if use_inference:
        consolidate(tree)
        consistent_estimates(tree)
    return generate_release(tree, use_inference)


def generate_release(
    tree: PrefixTree, use_inference: bool, flat: PrefixTree | None = None
) -> TrajectoryDb:
    """Emit the database encoded by the tree's counts.

    Each non-root node terminates ``round(count - sum of child counts)``
    trajectories (clamped at zero, halves rounded to even): its prefix becomes
    one entry standing for that many records, nodes taken in
    :meth:`PrefixTree.preorder`, so prefixes sort before extensions. With
    ``use_inference`` the adjusted counts are read, otherwise the raw noisy
    counts ("basic" variant); both run on the same tree so the two variants
    share one set of random draws.

    ``flat`` is ignored; callers may pass on what ``consolidate`` returns.
    """
    if use_inference and (tree.adjusted is None or np.isnan(tree.adjusted[1:]).any()):
        raise ValueError("adjusted counts missing; run the inference passes first")
    counts = (tree.adjusted if use_inference else tree.noisy).copy()
    counts[0] = 0.0

    child_sum = np.bincount(tree.parent[1:], counts[1:], minlength=len(tree))
    terminated = np.maximum(np.rint(counts - child_sum), 0.0).astype(np.int64)
    terminated[0] = 0

    emitting, paths = tree.preorder(np.flatnonzero(terminated))
    return TrajectoryDb(
        paths[paths >= 0],  # in the universe's id type: no recopy unless a narrower one fits
        np.concatenate(([0], np.cumsum(tree.depth[emitting]))),
        terminated[emitting],
    )
