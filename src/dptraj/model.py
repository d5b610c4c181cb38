"""Core trajectory-database types and the plain-text file format.

A trajectory is an ordered list of location ids (repeats allowed, including
consecutive ones); a database is a multiset of trajectories, held as weighted
entries whose location ids lie end to end in one token array. Locations are
opaque string tokens, and a token's id is its position in a universe file, a
fixed public list that every trajectory file is read against. A trajectory
file holds one record per line, and reading and writing it round-trips a
database as a multiset: the lines' order is not kept.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

Trajectory = tuple[int, ...]


class DataFormatError(ValueError):
    """Malformed trajectory or universe file."""


class UnknownLocationError(ValueError):
    """Token not present in the supplied location universe."""


@dataclass(frozen=True)
class LocationUniverse:
    """Fixed, ordered set of distinct location tokens; a token's id is its position."""

    tokens: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if tok in index:
                raise DataFormatError(f"duplicate universe token: {tok!r}")
            index[tok] = i
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True, eq=False)
class TrajectoryDb:
    """Multiset of trajectories, held as weighted entries.

    Entry ``e`` is ``tokens[offsets[e]:offsets[e + 1]]``: the entries' location
    ids lie end to end in one int32 array, and ``offsets`` (int64, one longer
    than the entry count) marks where each starts. ``weights[e]`` (int64, at
    least one) is how many records entry ``e`` stands for, and the records are
    the entries in order, each repeated by its weight. Entries need not be
    distinct: readers sum weights, so a record split over two equal entries
    reads as one entry carrying both.
    """

    tokens: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        tokens = np.asarray(self.tokens, dtype=np.int32)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        if not len(offsets) or offsets[0] != 0 or offsets[-1] != len(tokens):
            raise ValueError(f"offsets must run from 0 to the {len(tokens)} tokens")
        if (np.diff(offsets) < 1).any():
            raise ValueError("trajectories must have at least one location")
        if len(tokens) and tokens.min() < 0:
            raise ValueError("location ids must be >= 0")
        weights, n = np.asarray(self.weights, dtype=np.int64), len(offsets) - 1
        if len(weights) != n or (weights < 1).any():
            raise ValueError(f"weights must give each of the {n} entries at least 1")
        vars(self).update(tokens=tokens, offsets=offsets, weights=weights)  # frozen

    def __len__(self) -> int:
        return int(self.weights.sum())

    @property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """Every record: the entries in order, each repeated by its weight."""
        flat, bounds = self.tokens.tolist(), self.offsets.tolist()
        entries = (tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
        return tuple(chain.from_iterable(map(repeat, entries, self.weights.tolist())))


def _spans(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``[starts[i], starts[i] + lengths[i])`` laid end to end.

    Returns ``(owner, index)``: ``index`` runs through every range in order,
    and ``owner[j]`` (int32) is the ``i`` whose range ``index[j]`` belongs to.
    """
    owner = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    index = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    index += np.arange(len(index))
    return owner, index


@contextmanager
def _open_text(path: str):
    """Open a UTF-8 text file for reading; undecodable bytes are a format error.

    ``UnicodeDecodeError`` is a ``ValueError``, which callers would otherwise
    mistake for a bad parameter.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_universe(path: str) -> LocationUniverse:
    """Read a universe file: one token per line, no blanks."""
    tokens: list[str] = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tok = line.strip()
            if not tok:
                raise DataFormatError(f"{path}:{lineno}: blank line in universe file")
            if len(tok.split()) > 1:
                raise DataFormatError(f"{path}:{lineno}: more than one token on a universe line")
            tokens.append(tok)
    return LocationUniverse(tuple(tokens))


def write_universe(universe: LocationUniverse, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for tok in universe.tokens:
            fh.write(tok + "\n")


#: Distinct lines the loader's line cache holds before it starts afresh.
_CACHE_LINES = 1 << 15


def load_db(path: str, universe_path: str) -> tuple[TrajectoryDb, LocationUniverse]:
    """Read a trajectory file: one trajectory per line, whitespace-separated tokens.

    Every token must belong to the universe file, whose order gives the ids.
    Repeats of a line share its entry while the line cache, cleared when full,
    holds the line.
    """
    universe = load_universe(universe_path)
    lookup = universe._index.__getitem__
    # Each grows in place; tokens and offsets become numpy arrays without a copy.
    tokens, offsets, weights = array("i"), array("q", [0]), []
    cache: dict[str, int] = {}
    with _open_text(path) as fh:
        for line in fh:
            entry = cache.get(line)
            if entry is None:
                words = line.split()
                if not words:
                    raise DataFormatError(f"{path}:{sum(weights) + 1}: blank line")
                try:
                    tokens.extend(map(lookup, words))
                except KeyError as exc:
                    msg = f"{path}:{sum(weights) + 1}: unknown location {exc.args[0]!r}"
                    raise UnknownLocationError(msg) from None
                if len(cache) == _CACHE_LINES:
                    cache.clear()
                entry = cache[line] = len(weights)
                offsets.append(len(tokens))
                weights.append(0)
            weights[entry] += 1
    return TrajectoryDb(tokens, offsets, weights), universe


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
