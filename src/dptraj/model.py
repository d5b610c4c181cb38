"""Core trajectory-database types and the plain-text file format.

A trajectory is an ordered list of location ids (repeats allowed, including
consecutive ones); a database is a multiset of trajectories. Locations are
opaque string tokens interned against a fixed universe.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Iterable, Iterator

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

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def id_of(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise UnknownLocationError(f"unknown location {token!r}") from None

    def token_of(self, loc_id: int) -> str:
        if not 0 <= loc_id < len(self.tokens):
            raise ValueError(f"location id {loc_id} outside universe of size {len(self.tokens)}")
        return self.tokens[loc_id]


@dataclass(frozen=True)
class TrajectoryDb:
    """Multiset of trajectories; duplicates are kept with their multiplicity."""

    trajectories: tuple[Trajectory, ...]

    def __post_init__(self) -> None:
        trajectories = tuple(self.trajectories)
        if any(not t for t in trajectories):
            raise ValueError("trajectories must have at least one location")
        object.__setattr__(self, "trajectories", trajectories)

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self.trajectories)


def encode_timestamped(pairs: Iterable[tuple[str, object]]) -> list[str]:
    """Fold one record of (location, timestamp) pairs into composite tokens.

    Each pair becomes the single token ``loc@ts`` so that timestamped records
    flow through the ordinary interning and sanitization pipeline unchanged.
    Timestamps must already be discretized by the caller and non-decreasing
    within the record.
    """
    tokens: list[str] = []
    prev: object | None = None
    for loc, ts in pairs:
        if prev is not None and ts < prev:  # type: ignore[operator]
            raise DataFormatError(f"timestamps decrease within record: {prev!r} -> {ts!r}")
        prev = ts
        tokens.append(f"{loc}@{ts}")
    if not tokens:
        raise DataFormatError("record has no location-timestamp pairs")
    return tokens


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
            tokens.append(tok)
    return LocationUniverse(tuple(tokens))


def write_universe(universe: LocationUniverse, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for tok in universe.tokens:
            fh.write(tok + "\n")


#: Size hint, in characters, for each ``readlines`` call: lines are read in
#: blocks of whole lines rather than one at a time.
_READ_BLOCK = 1 << 22


def _read_records(path: str, parse: Callable[[list[str]], Trajectory]) -> list[Trajectory]:
    """One trajectory per line of ``path``; ``parse`` maps a line's tokens to ids.

    Within a block of lines, each distinct line is split and parsed once and
    its repetitions share that tuple. ``parse`` raises ``KeyError`` with the
    offending token for a token it cannot map.
    """
    records: list[Trajectory] = []
    lines_before = 0
    with _open_text(path) as fh:
        while lines := fh.readlines(_READ_BLOCK):
            # The cache dies with its block: line strings kept across blocks
            # would sit among the record tuples and leave the allocator's
            # pools fragmented once freed (+30 MB RSS after loading 400k
            # mostly distinct records).
            cache: dict[str, Trajectory] = {}
            for line in lines:
                record = cache.get(line)
                if record is None:
                    # A bad line raises at its first occurrence in the file,
                    # which is then also its first in this block.
                    tokens = line.split()
                    if not tokens:
                        lineno = lines_before + lines.index(line) + 1
                        raise DataFormatError(f"{path}:{lineno}: blank line")
                    try:
                        record = parse(tokens)
                    except KeyError as exc:
                        lineno = lines_before + lines.index(line) + 1
                        raise UnknownLocationError(
                            f"{path}:{lineno}: unknown location {exc.args[0]!r}"
                        ) from None
                    cache[line] = record
                records.append(record)
            lines_before += len(lines)
    return records


def load_db(path: str, universe_path: str | None = None) -> tuple[TrajectoryDb, LocationUniverse]:
    """Read a trajectory file: one trajectory per line, whitespace-separated tokens.

    When ``universe_path`` is given, every token must belong to it and ids follow
    the universe file's order. Without it the universe is derived from the data
    in first-appearance order, which makes the output domain data-dependent; a
    warning is emitted because a published release should use a fixed public
    universe.
    """
    if universe_path is not None:
        universe = load_universe(universe_path)
        lookup = universe._index.__getitem__
        records = _read_records(path, lambda tokens: tuple(map(lookup, tokens)))
        return TrajectoryDb(tuple(records)), universe

    index: dict[str, int] = {}

    def intern(tokens: list[str]) -> Trajectory:
        for t in tokens:
            if t not in index:
                index[t] = len(index)
        return tuple(map(index.__getitem__, tokens))

    records = _read_records(path, intern)
    warnings.warn(
        f"location universe derived from {path!r}; supply a public universe file "
        "for a data-independent output domain",
        UserWarning,
        stacklevel=2,
    )
    return TrajectoryDb(tuple(records)), LocationUniverse(tuple(index))


def write_db(db: TrajectoryDb, universe: LocationUniverse, path: str) -> None:
    """Write one trajectory per line, tokens space-separated, LF endings.

    Round-trips with :func:`load_db`: loading the written file reproduces the
    database as a multiset (and preserves record order). A run of equal
    consecutive records is formatted once.
    """
    tokens = universe.tokens
    size = len(tokens)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for traj, run in groupby(db.trajectories):
            for loc_id in traj:
                if not 0 <= loc_id < size:
                    raise ValueError(f"location id {loc_id} outside universe of size {size}")
            line = " ".join([tokens[i] for i in traj]) + "\n"
            fh.write(line * sum(1 for _ in run))
