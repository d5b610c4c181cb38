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

import os
import threading
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from signal import SIGKILL
from stat import S_ISREG
from typing import BinaryIO, Iterable, NoReturn

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
#: Least bytes of a part: a file of less than two parts is read as one.
_PART_BYTES = 4 << 20
#: Bytes a part's lines are counted in at a time.
_COUNT_BYTES = 1 << 16
#: Items of an array that are read from a part's pipe at a time.
_PIPE_ITEMS = 1 << 13


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _cuts(path: str) -> list[int]:
    """Where :func:`load_db` cuts ``path`` into parts: ``[0, ..., size]``, or ``[]`` for one part.

    Each inner cut falls just after a ``\\n``, so no part splits a line, a
    ``\\r\\n`` pair or a UTF-8 character. A regular file gets one part per
    usable CPU, each of at least ``_PART_BYTES``; anything else (a pipe, say)
    is one part, as is every file where ``os.fork`` is missing or the
    process runs more than one Python thread, which a fork would not carry.
    """
    try:
        st = os.stat(path)
    except OSError:  # the one-part read raises it
        return []
    parts = min(_usable_cpus(), st.st_size // _PART_BYTES)
    forks = hasattr(os, "fork") and threading.active_count() == 1
    if parts < 2 or not forks or not S_ISREG(st.st_mode):
        return []
    cuts = [0]
    with open(path, "rb") as fh:
        for k in range(1, parts):
            fh.seek(max(k * st.st_size // parts, cuts[-1] + 1) - 1)
            fh.readline()
            cuts.append(fh.tell())
    return sorted(set(cuts) | {st.st_size})


def _count_lines(fd: int, start: int, end: int) -> int:
    """Lines in bytes ``[start, end)`` of a file, the last of them ending in ``\\n``.

    Counted as universal newlines split them: at ``\\n``, ``\\r\\n`` and a lone ``\\r``.
    """
    lines, last = 0, b""
    for at in range(start, end, _COUNT_BYTES):
        block = os.pread(fd, min(_COUNT_BYTES, end - at), at)
        if not block:
            raise EOFError(f"no bytes at {at}: the file shrank")
        lines += block.count(b"\n") - (last == b"\r" and block[:1] == b"\n")
        if b"\r" in block:
            lines += block.count(b"\r") - block.count(b"\r\n")
        last = block[-1:]
    return lines


def _parse(
    lines: Iterable[str], path: str, universe: LocationUniverse
) -> tuple[array, array, list[int]]:
    """The ``tokens``, ``offsets`` and ``weights`` of ``lines``, read against ``universe``.

    Repeats of a line share its entry while the line cache, cleared when
    full, holds the line. An error names the line by its number in ``lines``.
    """
    lookup = universe._index.__getitem__
    # Each grows in place; tokens and offsets become numpy arrays without a
    # copy, the tokens already in the database's type for the universe.
    tokens, offsets, weights = array(id_type(len(universe)).char), array("q", [0]), []
    cache: dict[str, int] = {}
    for line in lines:
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
    return tokens, offsets, weights


def _parse_part(path: str, universe: LocationUniverse, start: int, end: int, last: bool):
    """:func:`_parse` over the lines in bytes ``[start, end)`` of ``path``, or to its end if ``last``.

    The lines are counted first so that the part is read through a plain
    ``open()``: a raw file type that stops at ``end`` itself made the text
    layer check for closing through Python on every line, about 20% slower.
    """
    with _open_text(path) as fh:
        count = None if last else _count_lines(fh.fileno(), start, end)
        fh.buffer.seek(start)  # before any read, so the text layer starts there
        return _parse(islice(fh, count), path, universe)


def _send_part(
    fd: int, path: str, universe: LocationUniverse, start: int, end: int, last: bool
) -> NoReturn:
    """In a forked child: parse a part, send it down the pipe ``fd`` and exit.

    It sends the token and entry counts, then the tokens (in the parent's
    type, since both read the same universe), offsets (less the leading 0)
    and weights, as raw bytes. The child touches no stdio and
    leaves by ``os._exit``, 0 once all is sent and 1 on any failure.
    """
    status = 1
    try:
        tokens, offsets, weights = _parse_part(path, universe, start, end, last)
        weights = array("q", weights)
        counts = array("q", [len(tokens), len(weights)])
        for part in (counts, tokens, memoryview(offsets)[1:], weights):
            view = memoryview(part).cast("B")
            while view:
                view = view[os.write(fd, view) :]
        status = 0
    finally:
        os._exit(status)


def _load_parts(path: str, universe: LocationUniverse, cuts: list[int]) -> TrajectoryDb:
    """Read ``path`` in the parts that ``cuts`` bound, the first here and the others in forked children.

    Each child's arrays are read from its pipe ``_PIPE_ITEMS`` items at a
    time and appended to the first part's, which grow in place into the
    database's: no part is held twice. Entries of different parts are not
    merged. Raises if any part fails; every child is reaped either way.
    """
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe) until reaped
    try:
        for k in range(1, len(cuts) - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _send_part(write_end, path, universe, cuts[k], cuts[k + 1], k == len(cuts) - 2)
            except BaseException:
                os.close(read_end)
                raise
            finally:
                os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        tokens, offsets, weights = _parse_part(path, universe, cuts[0], cuts[1], False)
        weights = array("q", weights)
        shifts = []  # each child's entries' offsets, and the tokens before its part
        for _, pipe in children:
            counts, base, entry = array("q"), len(tokens), len(weights)
            counts.fromfile(pipe, 2)
            for into, count in ((tokens, counts[0]), (offsets, counts[1]), (weights, counts[1])):
                for done in range(0, count, _PIPE_ITEMS):
                    into.fromfile(pipe, min(_PIPE_ITEMS, count - done))
            shifts.append((entry + 1, len(offsets), base))
        while children:
            pid, pipe = children.pop()
            pipe.close()
            if os.waitpid(pid, 0)[1]:
                raise ChildProcessError(f"a part's reader (pid {pid}) failed")
        whole = np.frombuffer(offsets, dtype=np.int64)
        for lo, hi, base in shifts:
            whole[lo:hi] += base
        return TrajectoryDb(tokens, whole, weights)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def load_db(path: str, universe_path: str) -> tuple[TrajectoryDb, LocationUniverse]:
    """Read a trajectory file: one trajectory per line, whitespace-separated tokens.

    Every token must belong to the universe file, whose order gives the ids.
    Repeats of a line share its entry while the line cache, cleared when
    full, holds the line. A regular file of a few MiB or more is read in
    line-aligned parts, one per usable CPU, side by side (:func:`_cuts`); a
    line repeated in two parts is an entry in each. If any part fails, the
    file is read again as one part, which raises the error at its line. Ids
    are read straight into :func:`id_type` of the universe, so no wider copy
    of the tokens is made.
    """
    universe = load_universe(universe_path)
    cuts = _cuts(path)
    if len(cuts) > 2:
        try:
            return _load_parts(path, universe, cuts), universe
        except (OSError, EOFError, ValueError):
            pass  # the one-part read below gives the error, or the database
    with _open_text(path) as fh:
        return TrajectoryDb(*_parse(fh, path, universe)), universe


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
