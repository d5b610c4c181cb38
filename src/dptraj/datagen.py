"""Synthetic trajectory corpora with transit-like shape.

Record lengths follow a truncated geometric law (heavy tail, configurable
mean) and background locations follow a Zipf law over the universe. An
optional set of planted routes gives the corpus sequential structure and
gives frequent-pattern evaluations a known ground truth: a planted record
rides its route from the first stop for as many stops as its drawn length
allows, and records longer than the route wander on with background
locations. Route popularity can be skewed so supports spread out instead of
piling up on one value. Routes are pairwise disjoint location runs whenever
the universe is big enough, like distinct transit lines.
"""

from __future__ import annotations

import numpy as np

from .model import LocationUniverse, TrajectoryDb, id_type
from .params import GenConfig


def _location_weights(n_locations: int, skew: float) -> np.ndarray:
    weights = (np.arange(1, n_locations + 1, dtype=float)) ** (-skew)
    return weights / weights.sum()


def planted_routes(config: GenConfig) -> list[tuple[int, ...]]:
    """The routes :func:`generate` plants for this config, drawn from a
    route-only stream so the list can be recovered without regenerating the
    corpus.

    When the universe can hold them, routes are disjoint runs carved from one
    permutation; otherwise each route is an independent draw of distinct
    locations (distinct routes guaranteed either way).
    """
    if not config.n_planted_routes:
        return []
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    total = config.n_planted_routes * config.route_length
    if total <= config.n_locations:
        carved = rng.permutation(config.n_locations)[:total]
        return [
            tuple(carved[i : i + config.route_length].tolist())
            for i in range(0, total, config.route_length)
        ]
    routes: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(routes) < config.n_planted_routes:
        route = tuple(
            rng.choice(config.n_locations, size=config.route_length, replace=False).tolist()
        )
        if route not in seen:
            seen.add(route)
            routes.append(route)
    return routes


def generate(config: GenConfig) -> tuple[TrajectoryDb, LocationUniverse]:
    """Build a corpus and its universe deterministically from the config."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    width = len(str(max(config.n_locations - 1, 1)))
    universe = LocationUniverse(tuple(f"L{i:0{width}d}" for i in range(config.n_locations)))
    lengths = np.minimum(
        rng.geometric(1.0 / config.avg_len, size=config.n_records), config.max_len
    )
    weights = _location_weights(config.n_locations, config.zipf_skew)

    routes = planted_routes(config)
    # The index of the route each record rides, or -1.
    route_of = np.full(config.n_records, -1, dtype=np.min_scalar_type(-1 - len(routes)))
    if routes:
        planted_count = round(config.n_records * config.planted_fraction)
        chosen = rng.choice(config.n_records, size=planted_count, replace=False)
        popularity = _location_weights(len(routes), config.route_skew)
        route_of[chosen] = rng.choice(len(routes), size=planted_count, p=popularity)

    flat = rng.choice(config.n_locations, size=int(lengths.sum()), p=weights)
    flat = flat.astype(id_type(config.n_locations))
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    # A planted record rides its line for the trip length and wanders on past the terminus.
    riders = np.flatnonzero(route_of >= 0)
    for stop, located in enumerate(np.array(routes).T):
        riders = riders[lengths[riders] > stop]
        flat[offsets[riders] + stop] = located[route_of[riders]]
    return TrajectoryDb(flat, offsets, np.ones(config.n_records, dtype=np.int32)), universe
