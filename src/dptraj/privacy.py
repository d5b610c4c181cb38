"""Seeded noise samplers and budget bookkeeping.

The tree builder consumes a fixed budget per tree level: levels compose
sequentially while sibling candidate counts at one level live on disjoint
record sets and therefore share the level budget. All randomness flows
through a :class:`RandomSource` so runs are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

try:  # hashlib's would load OpenSSL's _hashlib, about 3.7 MB of RSS
    from _sha3 import shake_256
except ImportError:  # a Python built without its own SHA-3
    from hashlib import shake_256

from .params import COUNT_SENSITIVITY, KAPPA, PrivacyParams  # noqa: F401  (exported here too)


@dataclass(frozen=True)
class BudgetLedger:
    """Per-level budget assignment, kept in exact rational arithmetic.

    Each level gets epsilon/height; the sum over levels reconstructs epsilon
    exactly, which :attr:`conserved` asserts without floating-point slack.
    """

    epsilon: float
    levels: tuple[Fraction, ...]

    @property
    def height(self) -> int:
        return len(self.levels)

    @property
    def total(self) -> Fraction:
        return sum(self.levels, Fraction(0))

    @property
    def conserved(self) -> bool:
        return self.total == Fraction(self.epsilon)

    def describe(self) -> list[str]:
        lines = [
            f"budget.level.{i} epsilon={float(share):.10g}"
            for i, share in enumerate(self.levels, start=1)
        ]
        lines.append(
            f"budget.total epsilon={float(self.total):.10g} conserved={str(self.conserved).lower()}"
        )
        return lines


def budget_ledger(params: PrivacyParams) -> BudgetLedger:
    share = Fraction(params.epsilon) / params.height
    return BudgetLedger(epsilon=params.epsilon, levels=(share,) * params.height)


class RandomSource:
    """Deterministic factory of keyed noise streams, one per depth.

    Call i of ``stream(depth).randbytes(n)`` returns the first n bytes of SHAKE-256 of
    the text ``dptraj/{seed}/{depth}/{i}``, which no two (seed, depth, i) share. SHAKE-256
    is no linear generator: noise values that a release or a dump shows give away
    none of the stream's other draws, as MT19937's outputs give away its state.
    The tree builder hands each depth's draws out in a canonical order, so a
    tree's draws do not depend on the order of the records.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = seed

    def stream(self, depth: int) -> NoiseStream:
        return NoiseStream(f"dptraj/{self.seed}/{depth}")


class NoiseStream:
    """One depth's key and how many draws it has made; see :class:`RandomSource`."""

    def __init__(self, key: str):
        self.key, self.calls = key, 0

    def randbytes(self, n: int) -> bytes:
        self.calls += 1
        return shake_256(f"{self.key}/{self.calls - 1}".encode()).digest(n)


def uniforms(rng: NoiseStream, size: int) -> np.ndarray:
    """``size`` doubles uniform on the 2**-53 grid of [0, 1): the top 53 bits of 64-bit words."""
    return (np.frombuffer(rng.randbytes(8 * size), dtype="<u8") >> 11) * 2.0**-53


def laplace_noise(scale: float, rng: NoiseStream, size: int) -> np.ndarray:
    """``size`` Laplace(scale) samples by inverse transform, u uniform in (-1/2, 1/2]."""
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale!r}")
    u = 0.5 - uniforms(rng, size)
    while True:
        degenerate = u == 0.5  # a uniform of exactly 0.0; would map to +inf
        if not degenerate.any():
            break
        u[degenerate] = 0.5 - uniforms(rng, int(degenerate.sum()))
    # -scale * sign(u) * log1p(-2|u|), in place; the sign only negates, so no bit changes.
    negative = u < 0
    np.log1p(np.multiply(np.abs(u, out=u), -2.0, out=u), out=u)
    return np.negative(np.multiply(u, -scale, out=u), out=u, where=negative)


def sample_passing_noisy_count(
    params: PrivacyParams, universe_size: int, rng: NoiseStream, size: int
) -> np.ndarray:
    """``size`` noisy counts for zero-count candidates conditioned on clearing the threshold.

    The conditional law is ``params.threshold(universe_size)`` plus an exponential
    with rate equal to the per-level budget; sampled as ``threshold - log(1 - u) / rate``.
    """
    return params.threshold(universe_size) - np.log1p(-uniforms(rng, size)) / params.per_level
