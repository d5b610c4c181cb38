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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import LocationUniverse, Trajectory, TrajectoryDb, _spans

logger = logging.getLogger(__name__)

CountQuery = frozenset  # of location ids

#: The sanity bound as a fraction of the raw database size.
DEFAULT_SANITY_FRACTION = 0.001


def eval_count_query(db: TrajectoryDb, query: CountQuery) -> int:
    """Number of records whose location set covers the query set.

    Order and multiplicity inside a record are ignored; only presence counts.
    """
    if not query:
        raise ValueError("count query needs at least one location")
    wanted = frozenset(query)
    flat, bounds = db.tokens.tolist(), db.offsets.tolist()
    spans = zip(bounds, bounds[1:], db.weights.tolist())
    return sum(w for lo, hi, w in spans if wanted.issubset(flat[lo:hi]))


def relative_error(true_count, noisy_count, sanity: float):
    """|noisy - true| over max(true, sanity), elementwise; the bound tames tiny selectivities."""
    if not (math.isfinite(sanity) and sanity > 0):
        raise ValueError(f"sanity bound must be finite and > 0, got {sanity!r}")
    return np.abs(noisy_count - true_count) / np.maximum(true_count, sanity)


@dataclass(frozen=True, eq=False)
class QueryWorkload:
    """Four query subsets of increasing maximum length: per subset, the
    queries' lengths (``sizes``) and their locations end to end (``locations``)."""

    sizes: tuple[np.ndarray, ...]
    locations: tuple[np.ndarray, ...]
    max_lengths: tuple[int, ...]

    @cached_property
    def subsets(self) -> tuple[tuple[CountQuery, ...], ...]:
        """Each subset's queries as frozensets, built on first read; nothing in the CLI reads it."""
        return tuple(
            tuple(frozenset(q.tolist()) for q in np.split(locations, np.cumsum(sizes)[:-1]))
            for sizes, locations in zip(self.sizes, self.locations)
        )


def generate_workload(
    universe: LocationUniverse, height: int, per_subset: int, seed: int
) -> QueryWorkload:
    """Random location-set queries in 4 groups; group i draws lengths from [1, i*height/4].

    Lengths are additionally capped by the universe size. Each query is a uniform
    subset of its length L, drawn by Floyd's algorithm (Bentley & Floyd, CACM 1987)
    for the whole group at once: at step c, every query longer than c draws t
    from [0, j] with j = |U| - L + c, and takes t unless it holds t already, j if so.
    """
    if per_subset < 1:
        raise ValueError(f"per_subset must be >= 1, got {per_subset!r}")
    if height // 4 < 1:
        raise ValueError(f"height {height} too small: the first subset would have max length 0")
    size = len(universe)
    rng = np.random.default_rng(seed)
    sizes, locations = [], []
    max_lengths = tuple(min(group * height // 4, size) for group in range(1, 5))
    for max_len in max_lengths:
        lengths = rng.integers(1, max_len + 1, size=per_subset)
        # Query q's locations fill the first lengths[q] places of row q.
        picks = np.full((per_subset, max_len), -1, dtype=np.int64)
        for c in range(max_len):
            rows = np.flatnonzero(lengths > c)
            j = size - lengths[rows] + c
            t = rng.integers(0, j + 1)
            held = (picks[rows, :c] == t[:, None]).any(axis=1)
            picks[rows, c] = np.where(held, j, t)
        sizes.append(lengths)
        locations.append(picks[picks >= 0])
    return QueryWorkload(tuple(sizes), tuple(locations), max_lengths)


#: Candidate entries gathered at once when answering many queries; a larger
#: batch only holds more memory while it is tested.
_BATCH_CANDIDATES = 1 << 14


class PresenceIndex:
    """One sorted key per (location, entry) visit, for bulk count queries.

    Equivalent to :func:`eval_count_query` record scans, after one indexing
    pass over the database's tokens. Over ``n`` entries, entry ``e``'s visit
    to location ``l`` is the key ``l * n + e``, kept once, so location
    ``l``'s keys fill ``[l * n, (l + 1) * n)`` in ascending entry order. A
    query takes its rarest location's keys, modulo ``n``, as candidates,
    keeps a candidate ``e`` while ``l * n + e`` is found in the keys for each
    of its other locations ``l``, and sums the weights of the survivors.
    """

    def __init__(self, db: TrajectoryDb, universe_size: int):
        if db.tokens.max(initial=-1) >= universe_size:  # ids are never negative
            raise ValueError(
                f"location id {db.tokens.max()} outside universe of size {universe_size}"
            )
        self.weights = db.weights
        n = len(db.weights)
        keys = db.tokens.astype(np.int64)
        keys *= n
        keys += np.repeat(np.arange(n), np.diff(db.offsets))
        keys.sort()
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]  # a repeated visit equals the key before it
        self._keys = keys[first]
        self._bounds = np.searchsorted(self._keys, np.arange(universe_size + 1) * n)

    def count(self, query: CountQuery) -> int:
        """One query's count, answered as a batch of one."""
        return int(self.counts(np.array([len(query)]), np.fromiter(query, np.intp, len(query)))[0])

    def counts(self, sizes: np.ndarray, locations: np.ndarray) -> np.ndarray:
        """Every query's count, answered in batches; query q is the next sizes[q] locations."""
        if not sizes.all():
            raise ValueError("count query needs at least one location")
        size = len(self._bounds) - 1
        if len(outside := locations[(locations < 0) | (locations >= size)]):
            raise ValueError(f"query location {outside[0]} outside universe of size {size}")
        n = len(self.weights)
        lengths = self._bounds[locations + 1] - self._bounds[locations]
        # Each query's locations, rarest first.
        order = np.lexsort((lengths, np.repeat(np.arange(len(sizes)), sizes)))
        locations, lengths = locations[order], lengths[order]
        firsts = np.cumsum(sizes) - sizes
        gathered = np.cumsum(lengths[firsts])  # candidates up to and including each query
        answers = np.zeros(len(sizes), dtype=np.int64)
        lo = 0
        while lo < len(sizes):
            budget = (gathered[lo - 1] if lo else 0) + _BATCH_CANDIDATES
            hi = max(int(np.searchsorted(gathered, budget, "right")), lo + 1)
            rarest = locations[firsts[lo:hi]]
            query, at = _spans(self._bounds[rarest], lengths[firsts[lo:hi]])
            entries = self._keys[at] % max(n, 1)
            query += lo
            for column in range(1, int(sizes[lo:hi].max())):
                if not len(query):
                    break
                tested = np.flatnonzero(sizes[query] > column)
                wanted = locations[firsts[query[tested]] + column] * n + entries[tested]
                # A wanted key can sort after every key, so its index is clamped.
                at = np.searchsorted(self._keys, wanted).clip(max=len(self._keys) - 1)
                keep = np.ones(len(query), dtype=bool)
                keep[tested[self._keys[at] != wanted]] = False
                query, entries = query[keep], entries[keep]
            totals = np.bincount(query - lo, weights=self.weights[entries], minlength=hi - lo)
            answers[lo:hi] = totals.astype(np.int64)
            lo = hi
        return answers


def evaluate_workload(
    raw: TrajectoryDb,
    sanitized: TrajectoryDb,
    workload: QueryWorkload,
    universe_size: int,
) -> list[float]:
    """Average relative error per workload subset.

    The sanity bound is 0.1% of the raw database size. Each subset's queries
    are answered together on each database.
    """
    sanity = DEFAULT_SANITY_FRACTION * len(raw)
    raw_index = PresenceIndex(raw, universe_size)
    sanitized_index = PresenceIndex(sanitized, universe_size)

    return [
        float(relative_error(raw_index.counts(*q), sanitized_index.counts(*q), sanity).mean())
        for q in zip(workload.sizes, workload.locations)
    ]


@dataclass(frozen=True)
class SeqPattern:
    """A sequential pattern and the number of records containing it in order."""

    locations: Trajectory
    support: int


def _extensions(
    db: TrajectoryDb, ids: np.ndarray, skips: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Every one-location extension of a projected pattern, by location.

    The projection is ``ids``, the entries that hold the pattern, and
    ``skips``, how many of each entry's tokens its earliest occurrence ends
    after. Returns every location's support and run length, and the
    extensions' projections as one ``family`` of two arrays, location by
    location: each run is one extension's projection.
    """
    starts = db.offsets[ids] + skips
    lengths = db.offsets[ids + 1] - starts
    rows, at = _spans(starts, lengths)
    keys = db.tokens[at].astype(np.int64)
    del at
    # Unique keys: by location, then by (row, position) as gathered. The
    # arrays are as long as every remaining token, so they are reused in
    # place and dropped as soon as they are spent.
    total = max(len(keys), 1)
    keys *= total
    keys += np.arange(len(keys))
    keys.sort()
    flat = keys % total
    keys //= total
    rows = rows[flat]
    # A (location, row) pair's first key is the location's earliest occurrence in the row.
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]) | (rows[1:] != rows[:-1])
    rows = rows[first]
    after = flat[first]
    del flat
    locs = keys[first]
    del keys
    after -= (np.cumsum(lengths) - lengths)[rows]
    after += skips[rows]
    after += 1
    support = np.bincount(locs, weights=db.weights[ids[rows]]).astype(np.int64)
    return support, np.bincount(locs), (ids[rows], after.astype(np.int32))


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
    first k pops are the top k. With p patterns popped, only the k - p best
    candidates can still be popped, so the heap is cut to those whenever it
    grows past twice that many, and a popped pattern pushes only its k - p
    best extensions.

    A pattern's projection (PrefixSpan's pseudo-projection) is the entries
    that hold it, each with the position just past its earliest occurrence;
    both fit int32. A popped pattern sorts the tokens after those positions
    by (location, entry) and keeps each pair's first: one weighted
    ``bincount`` gives every extension's support, and each location's run is
    that extension's projection. Each pushed extension holds a copy of its
    run, so the whole family is freed once its best extensions are pushed.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    if max_len is not None and max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len!r}")
    heap: list = []
    patterns: list[SeqPattern] = []
    pattern: Trajectory = ()
    ids, skips = np.arange(len(db.weights), dtype=np.int32), np.zeros(len(db.weights), np.int32)
    while True:
        left = k - len(patterns)
        if max_len is None or len(pattern) < max_len:
            support, runs, (family_ids, family_skips) = _extensions(db, ids, skips)
            run_ends = np.cumsum(runs)
            children = np.flatnonzero(runs)
            children = children[np.lexsort((children, -support[children]))[:left]]
            for loc, count, lo, hi in zip(
                children.tolist(),
                support[children].tolist(),
                (run_ends - runs)[children].tolist(),
                run_ends[children].tolist(),
            ):
                projection = family_ids[lo:hi].copy(), family_skips[lo:hi].copy()
                heapq.heappush(heap, (-count, len(pattern) + 1, pattern + (loc,), projection))
            del family_ids, family_skips  # freed now: no pushed extension holds a view
            if len(heap) > 2 * left:
                heap = heapq.nsmallest(left, heap)
        if not heap:
            break
        neg_support, _, pattern, (ids, skips) = heapq.heappop(heap)
        patterns.append(SeqPattern(locations=pattern, support=-neg_support))
        if len(patterns) == k:
            break
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
