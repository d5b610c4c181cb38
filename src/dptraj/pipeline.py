"""End-to-end sanitization: noisy tree, optional inference, release."""

from __future__ import annotations

from .inference import consistent_estimates, consolidate
from .model import LocationUniverse, TrajectoryDb
from .privacy import PrivacyParams, RandomSource
from .release import generate_release
from .tree import PrefixTree, build_noisy_tree

VARIANTS = ("basic", "full")


def sanitize(
    db: TrajectoryDb,
    universe: LocationUniverse,
    params: PrivacyParams,
    source: RandomSource,
    variant: str = "full",
    expand_empty: bool = False,
) -> tuple[TrajectoryDb, PrefixTree]:
    """Sanitize ``db`` and return the release together with the tree behind it.

    ``variant="basic"`` releases straight from the noisy counts;
    ``variant="full"`` runs the consistency passes first.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    tree = build_noisy_tree(db, universe, params, source, expand_empty=expand_empty)
    if variant == "full":
        consolidate(tree)
        consistent_estimates(tree)
    release = generate_release(tree, use_inference=(variant == "full"))
    return release, tree
