"""The parameters of a corpus and of a sanitization, checked on construction.

They load no numpy, so the CLI checks them before it reads any input.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class GenConfig:
    n_locations: int
    n_records: int
    avg_len: float
    max_len: int
    n_planted_routes: int = 0
    planted_fraction: float = 0.25
    route_length: int = 3
    route_skew: float = 0.0
    zipf_skew: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_locations < 1:
            raise ValueError("need at least one location")
        if self.n_records < 0:
            raise ValueError("record count must be >= 0")
        if not 1 <= self.avg_len <= self.max_len:
            raise ValueError(
                f"need 1 <= avg_len <= max_len, got avg_len={self.avg_len}, max_len={self.max_len}"
            )
        if self.n_planted_routes < 0:
            raise ValueError("route count must be >= 0")
        if not 0 <= self.planted_fraction <= 1:
            raise ValueError("planted fraction must be in [0, 1]")
        if self.n_planted_routes:
            if self.route_length < 1:
                raise ValueError("route length must be >= 1")
            if self.route_length > self.n_locations:
                raise ValueError("route length exceeds universe size")
        if self.route_skew < 0:
            raise ValueError("route skew must be >= 0")
        if self.zipf_skew < 0:
            raise ValueError("zipf skew must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


#: Adding or removing one record changes any prefix count by at most one.
COUNT_SENSITIVITY = 1.0


#: Expected empty-born children of an expanded node, whatever the universe's size:
#: a zero-count candidate passes the pruning threshold with probability KAPPA/|U|.
#: At |U| = 1,012 it puts the threshold three noise standard deviations up.
KAPPA = 7.27


@dataclass(frozen=True)
class PrivacyParams:
    """Total budget, tree height, and the derived per-level quantities.

    Both thresholds take one form, max(0, ln x) noise scales (max(0, ln x) /
    per_level), and read only public values: candidates whose noisy count is
    below :meth:`threshold`, at x = |U| / (2 KAPPA), are dropped, and a kept
    node is expanded iff its noisy count reaches :meth:`expand_threshold`, at
    x = |U|, where an empty-born node has half an expanded child on average.
    The tree's shape thus depends only on noisy counts. No setting turns the
    thresholds off: with real noise and none, each kept node would bear about
    |U|/2 children.
    """

    epsilon: float
    height: int

    def __post_init__(self) -> None:
        if not (
            isinstance(self.epsilon, (int, float))
            and math.isfinite(self.epsilon)
            and self.epsilon > 0
        ):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        if not (isinstance(self.height, int) and self.height >= 1):
            raise ValueError(f"height must be an integer >= 1, got {self.height!r}")
        if self.per_level < sys.float_info.min:  # a subnormal share makes the noise scale overflow
            raise ValueError(
                f"epsilon {self.epsilon!r} is too small to split over {self.height} levels"
            )

    @property
    def per_level(self) -> float:
        """Budget spent on each tree level."""
        return self.epsilon / self.height

    @property
    def noise_scale(self) -> float:
        """Laplace scale for one noisy count at one level."""
        return COUNT_SENSITIVITY / self.per_level

    def threshold(self, universe_size: int) -> float:
        """Noisy count that keeps a candidate: max(0, ln(|U| / (2 KAPPA))) / per_level."""
        return math.log(max(universe_size / (2.0 * KAPPA), 1.0)) * self.noise_scale

    def expand_threshold(self, universe_size: int) -> float:
        """Noisy count that expands a kept node: max(0, ln|U|) / per_level."""
        return math.log(max(universe_size, 1.0)) * self.noise_scale

    def pass_probability(self, universe_size: int) -> float:
        """Probability that a zero-count candidate clears the threshold: min(1/2, KAPPA / |U|)."""
        return math.exp(-self.threshold(universe_size) / self.noise_scale) / 2.0
