"""Utility measurements for sanitized releases.

Two views of fidelity: how well location-set count queries are answered
(relative error against the raw answers, floored by a sanity bound), and how
much of the raw database's top-k most frequent sequential patterns survive
into the release.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .model import LocationUniverse, Trajectory, TrajectoryDb

logger = logging.getLogger(__name__)

CountQuery = frozenset  # of location ids

#: Default sanity bound as a fraction of the raw database size.
DEFAULT_SANITY_FRACTION = 0.001


def eval_count_query(db: TrajectoryDb, query: CountQuery) -> int:
    """Number of records whose location set covers the query set.

    Order and multiplicity inside a record are ignored; only presence counts.
    """
    if not query:
        raise ValueError("count query needs at least one location")
    wanted = frozenset(query)
    return sum(w for t, w in zip(db.entries, db.weights.tolist()) if wanted.issubset(t))


def relative_error(true_count: int, noisy_count: int, sanity: float) -> float:
    """|noisy - true| over max(true, sanity); the bound tames tiny selectivities."""
    if not (math.isfinite(sanity) and sanity > 0):
        raise ValueError(f"sanity bound must be finite and > 0, got {sanity!r}")
    return abs(noisy_count - true_count) / max(true_count, sanity)


@dataclass(frozen=True)
class QueryWorkload:
    """Four query subsets of increasing maximum length."""

    subsets: tuple[tuple[CountQuery, ...], ...]
    max_lengths: tuple[int, ...]


def generate_workload(
    universe: LocationUniverse, height: int, per_subset: int, seed: int
) -> QueryWorkload:
    """Random location-set queries in 4 groups; group i draws lengths from [1, i*height/4].

    Lengths are additionally capped by the universe size since locations are
    drawn without replacement.
    """
    if per_subset < 1:
        raise ValueError(f"per_subset must be >= 1, got {per_subset!r}")
    if height // 4 < 1:
        raise ValueError(f"height {height} too small: the first subset would have max length 0")
    size = len(universe)
    rng = np.random.default_rng(seed)
    subsets: list[tuple[CountQuery, ...]] = []
    max_lengths: list[int] = []
    for group in range(1, 5):
        max_len = min(group * height // 4, size)
        queries = []
        for _ in range(per_subset):
            length = int(rng.integers(1, max_len + 1))
            queries.append(frozenset(rng.choice(size, size=length, replace=False).tolist()))
        subsets.append(tuple(queries))
        max_lengths.append(max_len)
    return QueryWorkload(subsets=tuple(subsets), max_lengths=tuple(max_lengths))


class PresenceIndex:
    """Bit-packed location -> entry presence matrix for bulk query answering.

    Equivalent to :func:`eval_count_query` record scans, after one indexing
    pass over the database's entries: a query is an AND of its locations' bit
    rows, and the answer is the summed weight of the entries whose bit
    survives.
    """

    def __init__(self, db: TrajectoryDb, universe_size: int):
        self.weights = db.weights
        ids = np.repeat(np.arange(len(db.weights)), np.diff(db.offsets))
        self._bits = np.zeros((universe_size, (len(db.weights) + 7) // 8), dtype=np.uint8)
        # Entry i is bit i % 8, counted from the top, of byte i // 8: unpackbits's
        # order. uint8 values keep ``at`` off its slower casting path.
        masks = (128 >> (ids & 7)).astype(np.uint8)
        np.bitwise_or.at(self._bits, (db.tokens, ids >> 3), masks)

    def count(self, query: CountQuery) -> int:
        if not query:
            raise ValueError("count query needs at least one location")
        ids = iter(query)
        acc = self._bits[next(ids)]
        for loc in ids:
            acc = acc & self._bits[loc]
        present = np.unpackbits(acc, count=len(self.weights)).view(bool)
        return int(self.weights[present].sum())


def evaluate_workload(
    raw: TrajectoryDb,
    sanitized: TrajectoryDb,
    workload: QueryWorkload,
    universe_size: int,
    sanity: float | None = None,
) -> list[float]:
    """Average relative error per workload subset.

    The sanity bound defaults to 0.1% of the raw database size.
    """
    if sanity is None:
        sanity = DEFAULT_SANITY_FRACTION * len(raw)
    raw_index = PresenceIndex(raw, universe_size)
    sanitized_index = PresenceIndex(sanitized, universe_size)

    averages = []
    for queries in workload.subsets:
        errors = [
            relative_error(raw_index.count(q), sanitized_index.count(q), sanity) for q in queries
        ]
        averages.append(sum(errors) / len(errors))
    return averages


@dataclass(frozen=True)
class SeqPattern:
    """A sequential pattern and the number of records containing it in order."""

    locations: Trajectory
    support: int


def mine_top_k(db: TrajectoryDb, k: int, max_len: int | None = None) -> list[SeqPattern]:
    """The k most frequent sequential patterns, mined best-first over projections.

    A record supports a pattern when the pattern occurs in it as an
    order-preserving (not necessarily contiguous) subsequence; each record
    counts once. Ties break deterministically: higher support, then shorter
    pattern, then lexicographically smaller location ids. If fewer than k
    patterns occur at all, all of them are returned and a warning is logged.

    Candidates wait in one heap keyed by that order. A pattern's one-location
    extensions have at most its support and are one location longer, so none
    sorts before it: popping in key order yields the result in order, and the
    first k pops are the top k. A candidate carries its parent's projection
    (the records that hold the parent, each with the position just past the
    parent's earliest occurrence) and is projected only when popped. With p
    patterns popped, only the k - p best candidates can still be popped, so
    the heap is cut to those whenever it grows past twice that many.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    if max_len is not None and max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len!r}")
    sequences = db.entries
    weights = db.weights.tolist()

    def project(rows: list[int], starts: list[int], loc: int) -> tuple[list[int], list[int]]:
        kept_rows, kept_starts = [], []
        for rec, pos in zip(rows, starts):
            seq = sequences[rec]
            if loc in seq[pos:]:
                kept_rows.append(rec)
                kept_starts.append(seq.index(loc, pos) + 1)
        return kept_rows, kept_starts

    heap: list = []
    patterns: list[SeqPattern] = []
    pattern: Trajectory = ()
    rows, starts = list(range(len(sequences))), [0] * len(sequences)
    while True:
        if max_len is None or len(pattern) < max_len:
            counts: Counter = Counter()
            for rec, pos in zip(rows, starts):
                weight = weights[rec]
                for loc in set(sequences[rec][pos:]):
                    counts[loc] += weight
            for loc, support in counts.items():
                heapq.heappush(heap, (-support, len(pattern) + 1, pattern + (loc,), rows, starts))
            left = k - len(patterns)
            if len(heap) > 2 * left:
                heap = heapq.nsmallest(left, heap)
        if not heap:
            break
        neg_support, _, pattern, parent_rows, parent_starts = heapq.heappop(heap)
        patterns.append(SeqPattern(locations=pattern, support=-neg_support))
        if len(patterns) == k:
            break
        rows, starts = project(parent_rows, parent_starts, pattern[-1])
    if len(patterns) < k:
        logger.warning("only %d patterns with support >= 1; requested top %d", len(patterns), k)
    return patterns


def fsp_metrics(
    true_patterns: list[SeqPattern], sanitized_patterns: list[SeqPattern], k: int
) -> tuple[int, int, int]:
    """(true positives, false positives, false drops) between two top-k sets.

    With both sets of size k the false positives always equal the false
    drops; short sets (fewer patterns than k existed) are compared as-is.
    """
    true_set = {p.locations for p in true_patterns}
    sanitized_set = {p.locations for p in sanitized_patterns}
    tp = len(true_set & sanitized_set)
    return tp, len(sanitized_set) - tp, len(true_set) - tp
