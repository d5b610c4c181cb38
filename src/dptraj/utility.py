"""Utility measurements for sanitized releases.

Two views of fidelity: how well location-set count queries are answered
(relative error against the raw answers, floored by a sanity bound), and how
much of the raw database's top-k most frequent sequential patterns survive
into the release.
"""

from __future__ import annotations

import heapq
import itertools
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
    return sum(1 for t in db if wanted.issubset(t))


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
    seed: int


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
    return QueryWorkload(subsets=tuple(subsets), max_lengths=tuple(max_lengths), seed=seed)


class PresenceIndex:
    """Bit-packed location -> distinct-record presence matrix for bulk query answering.

    Equivalent to :func:`eval_count_query` record scans, after one indexing
    pass over the database's distinct records: a query is an AND of its
    locations' bit rows, and the answer is the summed multiplicity of the
    records whose bit survives.
    """

    _CHUNK = 65536  # records per packing block; multiple of 8 keeps bytes aligned

    def __init__(self, db: TrajectoryDb, universe_size: int):
        multiplicity = Counter(db.trajectories)
        distinct = list(multiplicity)
        n = len(distinct)
        self.records = len(db)
        self.weights = np.fromiter(multiplicity.values(), dtype=np.int64, count=n)
        self._bits = np.zeros((universe_size, (n + 7) // 8), dtype=np.uint8)
        for start in range(0, n, self._CHUNK):
            chunk = distinct[start : start + self._CHUNK]
            lengths = np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk))
            locations = np.fromiter(
                itertools.chain.from_iterable(chunk), dtype=np.int64, count=int(lengths.sum())
            )
            block = np.zeros((universe_size, len(chunk)), dtype=bool)
            block[locations, np.repeat(np.arange(len(chunk)), lengths)] = True
            packed = np.packbits(block, axis=1)
            self._bits[:, start // 8 : start // 8 + packed.shape[1]] = packed

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


def _pattern_sort_key(pattern: SeqPattern):
    return (-pattern.support, len(pattern.locations), pattern.locations)


def mine_top_k(db: TrajectoryDb, k: int, max_len: int | None = None) -> list[SeqPattern]:
    """The k most frequent sequential patterns, mined by projected-database search.

    A record supports a pattern when the pattern occurs in it as an
    order-preserving (not necessarily contiguous) subsequence; each record
    counts once. Ties break deterministically: higher support, then shorter
    pattern, then lexicographically smaller location ids. If fewer than k
    patterns occur at all, all of them are returned and a warning is logged.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    if max_len is not None and max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len!r}")
    # Identical records share one projection entry with a multiplicity weight.
    multiplicity = Counter(db.trajectories)
    sequences = list(multiplicity.keys())
    weights = list(multiplicity.values())

    # Min-heap of the current best k; entries ordered worst-first. Within
    # equal support and length, lexicographically larger patterns must pop
    # first, hence the negated location tuple (lengths tie, so element-wise
    # negation reverses the order safely).
    heap: list[tuple[int, int, tuple[int, ...], Trajectory]] = []

    def admit(support: int, locations: Trajectory) -> None:
        entry = (support, -len(locations), tuple(-x for x in locations), locations)
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry[:3] > heap[0][:3]:
            heapq.heapreplace(heap, entry)

    def extension_counts(projection: list[tuple[int, int]]) -> Counter:
        counts: Counter = Counter()
        for rec, pos in projection:
            weight = weights[rec]
            for loc in set(sequences[rec][pos:]):
                counts[loc] += weight
        return counts

    def project(
        projection: list[tuple[int, int]], loc: int
    ) -> list[tuple[int, int]]:
        result = []
        for rec, pos in projection:
            try:
                found = sequences[rec].index(loc, pos)
            except ValueError:
                continue
            result.append((rec, found + 1))
        return result

    def search(projection: list[tuple[int, int]], pattern: Trajectory) -> None:
        counts = extension_counts(projection)
        for loc, support in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            candidate = pattern + (loc,)
            if len(heap) == k and support < heap[0][0]:
                break  # later extensions only have lower support
            admit(support, candidate)
            if max_len is not None and len(candidate) >= max_len:
                continue
            # Descend only if a longer pattern could still displace the worst
            # kept one: longer means it loses support/length ties.
            if len(heap) == k:
                worst_support, worst_neg_len = heap[0][0], heap[0][1]
                if support < worst_support:
                    break
                if support == worst_support and -(len(candidate) + 1) < worst_neg_len:
                    continue
            search(project(projection, loc), candidate)

    root_projection = [(rec, 0) for rec in range(len(sequences))]
    search(root_projection, ())
    result = sorted(heap, key=lambda e: (-e[0], -e[1], e[3]))
    patterns = [SeqPattern(locations=e[3], support=e[0]) for e in result]
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
