"""Utility measurements for sanitized releases.

Two views of fidelity: how well location-set count queries are answered
(relative error against the raw answers, floored by a sanity bound), and how
much of the raw database's top-k most frequent sequential patterns survive
into the release.
"""

from __future__ import annotations

import bisect
import logging
import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import LocationUniverse, Trajectory, TrajectoryDb, narrowest

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


def _below(rng: random.Random, bounds: np.ndarray) -> np.ndarray:
    """One uniform integer in ``[0, b)`` for each bound ``b`` in ``[1, 2**32]``.

    Lemire's multiply-and-reject method (ACM TOMACS 2019): a 32-bit word ``x``
    gives ``x * b >> 32``, unless the product's low word is below
    ``2**32 % b``; such a word is rejected and a fresh one drawn. The words
    are ``rng``'s bytes read as little-endian uint32.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    threshold = (2**32 - bounds) % bounds
    drawn = np.empty(len(bounds), dtype=np.int64)
    todo = np.arange(len(bounds))
    while len(todo):
        words = np.frombuffer(rng.randbytes(4 * len(todo)), dtype="<u4")
        product = words * bounds[todo]
        kept = (product & 0xFFFFFFFF) >= threshold[todo]
        drawn[todo[kept]] = product[kept] >> 32
        todo = todo[~kept]
    return drawn


def generate_workload(
    universe: LocationUniverse, height: int, per_subset: int, seed: int
) -> QueryWorkload:
    """Random location-set queries in 4 groups; group i draws lengths from [1, i*height/4].

    Lengths are additionally capped by the universe size. Each query is a uniform
    subset of its length L, drawn by Floyd's algorithm (Bentley & Floyd, CACM 1987)
    for the whole group at once: at step c, every query longer than c draws t
    from [0, j] with j = |U| - L + c, and takes t unless it holds t already, j if so.
    Every draw comes from ``random.Random(seed)`` (MT19937) through :func:`_below`.
    """
    if per_subset < 1:
        raise ValueError(f"per_subset must be >= 1, got {per_subset!r}")
    if height // 4 < 1:
        raise ValueError(f"height {height} too small: the first subset would have max length 0")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    size = len(universe)
    rng = random.Random(seed)
    sizes, locations = [], []
    max_lengths = tuple(min(group * height // 4, size) for group in range(1, 5))
    for max_len in max_lengths:
        lengths = _below(rng, np.full(per_subset, max_len)) + 1
        # Query q's locations fill the first lengths[q] places of row q.
        picks = np.full((per_subset, max_len), -1, dtype=np.int64)
        for c in range(max_len):
            rows = np.flatnonzero(lengths > c)
            j = size - lengths[rows] + c
            t = _below(rng, j + 1)
            held = (picks[rows, :c] == t[:, None]).any(axis=1)
            picks[rows, c] = np.where(held, j, t)
        sizes.append(lengths)
        locations.append(picks[picks >= 0])
    return QueryWorkload(tuple(sizes), tuple(locations), max_lengths)


#: Candidate entries gathered at once when answering many queries; a larger
#: batch only holds more memory while it is tested.
_BATCH_CANDIDATES = 1 << 14

#: Keys handled at once by the passes that build key arrays in place; a larger
#: block only holds more memory in its temporaries.
_BLOCK = 1 << 13


def _row_blocks(bounds: np.ndarray) -> list[tuple[int, int]]:
    """Ranges ``[lo, hi)`` of rows holding about ``_BLOCK`` tokens each, in order.

    Row ``r``'s tokens are ``bounds[r]:bounds[r + 1]``.
    """
    # Sought in the bounds' own type: a wider one would have them copied to it.
    cuts = np.searchsorted(bounds, np.arange(_BLOCK, bounds[-1], _BLOCK, dtype=bounds.dtype))
    cuts = cuts.tolist()
    edges = sorted({0, *cuts, len(bounds) - 1}) if cuts else [0, len(bounds) - 1]
    return list(zip(edges, edges[1:]))


def _spans(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``[starts[i], starts[i] + lengths[i])`` laid end to end.

    Returns ``(owner, index)``: ``index`` runs through every range in order,
    and ``owner[j]`` (int32) is the ``i`` whose range ``index[j]`` belongs to.
    """
    owner = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    index = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    index += np.arange(len(index))
    return owner, index


def _keep_first(keys: np.ndarray, group) -> np.ndarray:
    """``keys`` sorted and then cut to the first key of each run of equal
    ``group(keys)``, both in place; ``keys`` must own its data and have no views.

    The cut is a ``resize``, so the memory past the kept keys is given back.
    """
    keys.sort()
    kept, last = 0, -1
    for lo in range(0, len(keys), _BLOCK):
        ids = group(keys[lo:lo + _BLOCK])
        first = np.empty(len(ids), dtype=bool)
        first[0] = ids[0] != last
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        last = ids[-1]
        chosen = keys[lo:lo + _BLOCK][first]
        keys[kept:kept + len(chosen)] = chosen
        kept += len(chosen)
    ids = None  # ``group`` may return a view of ``keys``
    keys.resize(kept, refcheck=False)
    return keys


class PresenceIndex:
    """One sorted key per (location, entry) visit, for bulk count queries.

    Equivalent to :func:`eval_count_query` record scans, after one indexing
    pass over the database's tokens. Over ``n`` entries, entry ``e``'s visit
    to location ``l`` is the key ``l * n + e``, kept once, so location
    ``l``'s keys fill ``[l * n, (l + 1) * n)`` in ascending entry order. A
    query takes its rarest location's keys, modulo ``n``, as candidates,
    keeps a candidate ``e`` while ``l * n + e`` is found in the keys for each
    of its other locations ``l``, and sums the weights of the survivors. The
    keys are made, sorted and de-duplicated in one array, a block at a time,
    so the build holds little more than one key per token. Keys and the
    bounds of each location's keys are int32 when ``universe_size * n`` fits,
    else int64, and each query's keys are made in the same type, so a search
    never copies the keys to a wider one.
    """

    def __init__(self, db: TrajectoryDb, universe_size: int):
        if db.tokens.max(initial=-1) >= universe_size:  # ids are never negative
            raise ValueError(
                f"location id {db.tokens.max()} outside universe of size {universe_size}"
            )
        self.weights = db.weights
        n = len(db.weights)
        keys = np.empty(len(db.tokens), dtype=narrowest(universe_size * n, np.int32, np.int64))
        for lo, hi in _row_blocks(db.offsets):
            a, b = db.offsets[lo], db.offsets[hi]
            keys[a:b] = db.tokens[a:b]
            keys[a:b] *= n
            keys[a:b] += np.repeat(np.arange(lo, hi), np.diff(db.offsets[lo:hi + 1]))
        self._keys = _keep_first(keys, lambda block: block)  # a repeated visit's key repeats
        starts = (np.arange(universe_size + 1) * n).astype(keys.dtype)
        self._bounds = np.searchsorted(self._keys, starts).astype(keys.dtype)

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
                wanted = locations[firsts[query[tested]] + column].astype(self._keys.dtype)
                wanted *= n
                wanted += entries[tested]
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
    db: TrajectoryDb, ids: np.ndarray, skips: np.ndarray, best: int, floor: int, loc_bits: int
) -> list[tuple[int, int, np.ndarray]]:
    """The ``best`` one-location extensions of a projected pattern with a
    support of at least ``floor``, best first.

    The projection is ``ids``, the entries that hold the pattern, and
    ``skips``, how many of each entry's tokens its earliest occurrence ends
    after; ``loc_bits`` is the bit width of the database's largest location.
    Returns each extension's location, support and projection.

    Token ``p`` after the pattern in row ``r`` (entry ``ids[r]``), at location
    ``l``, is one int64 key holding ``l``, ``r`` and ``p`` in bit fields, in
    that order. Sorted and cut to the first key of each (location, row), the
    keys are the visits: each location's earliest token in each row. The
    supports are weighted counts of the visits, and only the best locations'
    visits become projections, a block of locations at a time from the
    highest, each block's keys given back once its projections are made. So
    the step holds one key per token, a few numbers per row, and the
    projections.
    """
    starts = np.add(db.offsets[ids], skips, dtype=np.int64)
    lengths = db.offsets[1:][ids] - starts
    bounds = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    if not bounds[-1]:
        return []
    pos_bits = int(lengths.max() - 1).bit_length()
    row_bits = (len(ids) - 1).bit_length()
    loc_shift = row_bits + pos_bits
    if loc_bits + loc_shift > 63:
        raise ValueError(f"{len(ids)} rows of up to 2**{pos_bits} tokens overflow a 64-bit key")
    # Token j, counted over all rows, is database token j + starts[r], and
    # j + to_fields holds its row and place fields.
    starts -= bounds[:-1]
    keys = np.empty(int(bounds[-1]), dtype=np.int64)
    for lo, hi in _row_blocks(bounds):
        a, b = bounds[lo], bounds[hi]
        j = np.arange(a, b)
        keys[a:b] = db.tokens[np.repeat(starts[lo:hi], lengths[lo:hi]) + j]
        keys[a:b] <<= loc_shift
        to_fields = np.arange(lo, hi) << pos_bits
        to_fields -= bounds[lo:hi]
        j += np.repeat(to_fields, lengths[lo:hi])
        keys[a:b] |= j
    del starts, lengths, to_fields, j
    keys = _keep_first(keys, lambda block: block >> pos_bits)
    size = int(keys[-1] >> loc_shift) + 1
    row_mask = (1 << row_bits) - 1
    row_weights = db.weights[ids]
    support = np.zeros(size)
    for lo in range(0, len(keys), _BLOCK):
        rows = keys[lo:lo + _BLOCK] >> pos_bits
        rows &= row_mask
        support += np.bincount(keys[lo:lo + _BLOCK] >> loc_shift, row_weights[rows], size)
    support = support.astype(np.int64)
    children = np.flatnonzero(support >= floor)
    children = children[np.lexsort((children, -support[children]))[:best]]
    if not len(children):
        return []

    # Projections, in blocks of about _BLOCK visits from the highest location down.
    chosen = np.sort(children)[::-1]
    run_starts = np.searchsorted(keys, chosen << loc_shift)
    runs = np.searchsorted(keys, (chosen + 1) << loc_shift) - run_starts
    cuts = (np.flatnonzero(np.diff(np.cumsum(runs) // _BLOCK)) + 1).tolist()
    projections = {}
    for lo, hi in zip([0, *cuts], [*cuts, len(chosen)]):
        _, at = _spans(run_starts[lo:hi], runs[lo:hi])
        place = keys[at]
        rows = place >> pos_bits
        rows &= row_mask
        place &= (1 << pos_bits) - 1
        place += skips[rows]
        place += 1
        held = np.empty((len(at), 2), dtype=ids.dtype)  # each visit's entry and skip
        held[:, 0] = ids[rows]
        held[:, 1] = place
        ends = np.cumsum(runs[lo:hi]).tolist()
        for loc, a, b in zip(chosen[lo:hi].tolist(), [0, *ends], ends):
            projections[loc] = held[a:b].copy()
        keys.resize(run_starts[hi - 1], refcheck=False)  # the block's locations and above
    return [(loc, int(support[loc]), projections[loc]) for loc in children.tolist()]


def mine_top_k(db: TrajectoryDb, k: int, max_len: int | None = None) -> list[SeqPattern]:
    """The k most frequent sequential patterns, mined best-first over projections.

    A record supports a pattern when the pattern occurs in it as an
    order-preserving (not necessarily contiguous) subsequence; each record
    counts once. Ties break deterministically: higher support, then shorter
    pattern, then lexicographically smaller location ids. If fewer than k
    patterns occur at all, all of them are returned and a warning is logged.

    Candidates wait in one list sorted by that order. A pattern's
    one-location extensions have at most its support and are one location
    longer, so none sorts before it: taking the first candidate each time
    yields the result in order, and the first k taken are the top k. With p
    patterns taken, only the k - p first candidates can still be taken, so
    the list is cut to those after every step, and a taken pattern adds only
    its k - p best extensions with at least the support of the (k - p)-th
    candidate.

    A pattern's projection (PrefixSpan's pseudo-projection) is the entries
    that hold it, each with the position just past its earliest occurrence:
    one row of (entry, position) per entry, of the narrowest unsigned type
    that holds every entry id and record length. A taken pattern sorts the
    tokens after those positions by (location, entry) and keeps each pair's
    first: a weighted ``bincount`` gives every extension's support, and each
    location's run is that extension's projection, made only for the
    extensions it adds (see :func:`_extensions`).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    if max_len is not None and max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len!r}")
    waiting: list = []
    patterns: list[SeqPattern] = []
    pattern: Trajectory = ()
    # A projection's rows are (entry, position) pairs, in the narrowest type that holds both.
    n = len(db.weights)
    longest = int(np.diff(db.offsets).max(initial=0))
    projection = np.zeros((n, 2), np.min_scalar_type(max(n, longest)))
    projection[:, 0] = np.arange(n)
    ids, skips = projection.T
    loc_bits = int(db.tokens.max(initial=0)).bit_length()
    while True:
        left = k - len(patterns)
        if max_len is None or len(pattern) < max_len:
            floor = -waiting[left - 1][0] if len(waiting) >= left else 1
            for loc, count, projection in _extensions(db, ids, skips, left, floor, loc_bits):
                bisect.insort(waiting, (-count, len(pattern) + 1, pattern + (loc,), projection))
            del waiting[left:]
        if not waiting:
            break
        neg_support, _, pattern, projection = waiting.pop(0)
        ids, skips = projection.T
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
