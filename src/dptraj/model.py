"""Core trajectory-database types and the plain-text file format.

A trajectory is an ordered list of location ids (repeats allowed, including
consecutive ones); a database is a multiset of trajectories, held as weighted
entries whose location ids lie end to end in one token array. Locations are
opaque string tokens, and a token's id is its position in a universe file, a
fixed public list that every trajectory file is read against. A trajectory
file holds one record per line, and reading and writing it round-trips a
database as a multiset: the lines' order is not kept. The universe and the
reader are in :mod:`dptraj.reader`, which loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .reader import (  # noqa: F401  (exported here too)
    DataFormatError, LocationUniverse, Records, UnknownLocationError, load_db, load_universe,
)

Trajectory = tuple[int, ...]


def narrowest(largest: int, narrow: type, wide: type) -> np.dtype:
    """``narrow`` if it holds ``largest``, else ``wide``: the type that holds values up to ``largest``.

    Raises if ``wide`` does not hold it either.
    """
    for dtype in (narrow, wide):
        if largest <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise ValueError(f"value {largest} does not fit {np.dtype(wide)}")


def id_type(universe_size: int) -> np.dtype:
    """The type a database over ``universe_size`` locations holds its ids in."""
    return narrowest(universe_size - 1, np.int16, np.int32)


def _narrowed(values: np.ndarray, narrow: type, wide: type) -> np.ndarray:
    """Non-negative ``values`` in :func:`narrowest` of the two types; no copy if they are so already."""
    return values.astype(narrowest(int(values.max(initial=0)), narrow, wide), copy=False)


@dataclass(frozen=True, eq=False)
class TrajectoryDb:
    """Multiset of trajectories, held as weighted entries.

    Entry ``e`` is ``tokens[offsets[e]:offsets[e + 1]]``: the entries' location
    ids lie end to end in one array, and ``offsets`` (one longer than the entry
    count) marks where each starts. ``weights[e]`` (at least one) is how many
    records entry ``e`` stands for, and the records are the entries in order,
    each repeated by its weight. Entries need not be distinct: readers sum
    weights, so a record split over two equal entries reads as one entry
    carrying both.

    Each array is held in the narrower of two signed types when its largest
    value fits (:func:`narrowest`): tokens in int16 when every id is below
    2**15, else int32; offsets and weights in int32 when the largest is below
    2**31, else int64. So a reader widens before it sums, multiplies or adds
    past the array's own values.
    """

    tokens: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        tokens, offsets, weights = map(np.asarray, (self.tokens, self.offsets, self.weights))
        if not len(offsets) or offsets[0] != 0 or offsets[-1] != len(tokens):
            raise ValueError(f"offsets must run from 0 to the {len(tokens)} tokens")
        if (np.diff(offsets) < 1).any():
            raise ValueError("trajectories must have at least one location")
        if len(tokens) and tokens.min() < 0:
            raise ValueError("location ids must be >= 0")
        n = len(offsets) - 1
        if len(weights) != n or (weights < 1).any():
            raise ValueError(f"weights must give each of the {n} entries at least 1")
        vars(self).update(  # frozen; checked first, so no value is negative
            tokens=_narrowed(tokens, np.int16, np.int32),
            offsets=_narrowed(offsets, np.int32, np.int64),
            weights=_narrowed(weights, np.int32, np.int64),
        )

    def __len__(self) -> int:
        return int(self.weights.sum(dtype=np.int64))

    @property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """Every record: the entries in order, each repeated by its weight."""
        flat, bounds = self.tokens.tolist(), self.offsets.tolist()
        entries = (tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
        return tuple(chain.from_iterable(map(repeat, entries, self.weights.tolist())))


def as_db(records: Records) -> TrajectoryDb:
    """The database that ``records`` hold, on their arrays without a copy."""
    offsets = np.asarray(records.offsets)
    for lo, hi, base in records.shifts:
        offsets[lo:hi] += base
    return TrajectoryDb(records.tokens, offsets, records.weights)


@dataclass(frozen=True)
class ReleaseStats:
    records: int
    length_histogram: dict[int, int]
    distinct_locations: int


def release_stats(db: TrajectoryDb) -> ReleaseStats:
    histogram = np.bincount(np.diff(db.offsets), weights=db.weights).astype(np.int64)
    return ReleaseStats(
        records=len(db),
        length_histogram={n: c for n, c in enumerate(histogram.tolist()) if c},
        distinct_locations=np.count_nonzero(np.bincount(db.tokens)),
    )


def write_universe(universe: LocationUniverse, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for tok in universe.tokens:
            fh.write(tok + "\n")


#: Entries that ``write_db`` formats at a time, and lines of a run it joins into one string.
_WRITE_ENTRIES = 1 << 16
_WRITE_LINES = 1 << 12


def write_db(db: TrajectoryDb, universe: LocationUniverse, path: str) -> None:
    """Write one trajectory per line, tokens space-separated, LF endings.

    Round-trips with :func:`load_db` as a multiset: each entry's records are
    written as one run, in entry order, so a database that holds its records
    in order, as :func:`~dptraj.datagen.generate` makes them (one entry per
    record), is written in that order. Entries are formatted
    ``_WRITE_ENTRIES`` at a time, each once, and a run is written
    ``_WRITE_LINES`` repeated lines at a time.
    """
    if db.tokens.max(initial=-1) >= len(universe):  # ids are never negative
        raise ValueError(f"location id {db.tokens.max()} outside universe of size {len(universe)}")
    # Each token with what follows it on its line: a space, or the line's end.
    spaced, ending = (np.array([t + end for t in universe.tokens], dtype=object) for end in " \n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(db.weights), _WRITE_ENTRIES):
            bounds = db.offsets[start : start + _WRITE_ENTRIES + 1]
            ids = db.tokens[bounds[0] : bounds[-1]]
            bounds = bounds - bounds[0]
            words = spaced[ids]
            words[bounds[1:] - 1] = ending[ids[bounds[1:] - 1]]
            words, weights = words.tolist(), db.weights[start : start + _WRITE_ENTRIES].tolist()
            if max(weights) == 1:  # each line once, as ``generate`` makes them
                fh.write("".join(words))
                continue
            for lo, hi, weight in zip(bounds.tolist(), bounds[1:].tolist(), weights):
                line = "".join(words[lo:hi])
                while weight > _WRITE_LINES:
                    fh.write(line * _WRITE_LINES)
                    weight -= _WRITE_LINES
                fh.write(line * weight)
