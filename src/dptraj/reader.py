"""The location universe and the trajectory-file reader, which load no numpy.

A file is read into plain ``array`` objects, in forked parts if it is big,
before numpy is imported; :func:`~dptraj.model.as_db` wraps them without a copy.
"""

from __future__ import annotations

import os
import threading
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from signal import SIGKILL
from stat import S_ISREG
from typing import TYPE_CHECKING, BinaryIO, Iterable, NamedTuple, NoReturn

if TYPE_CHECKING:
    from .model import TrajectoryDb


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


class Records(NamedTuple):
    """A trajectory file's ``tokens``, ``offsets`` and ``weights``, as :func:`read_records` reads.

    A forked part counts its offsets from its own first token: ``offsets[lo:hi]``
    are short by ``base`` for each ``(lo, hi, base)`` of ``shifts``.
    """

    tokens: array
    offsets: array
    weights: array
    shifts: list[tuple[int, int, int]]


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


def _count_type(size: int | None) -> str:
    """Offsets' and weights' typecode for ``size`` bytes (None for a pipe): int32 under 2 GiB."""
    return "i" if size is not None and size < 1 << 31 else "q"


def _cuts(path: str) -> list[int]:
    """Where :func:`read_records` cuts ``path`` into parts: ``[0, ..., size]``, or ``[]`` for one part.

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
    lines: Iterable[str], path: str, universe: LocationUniverse, code: str
) -> tuple[array, array, array]:
    """The ``tokens``, ``offsets`` and ``weights`` of ``lines``, read against ``universe``.

    Offsets and weights are of typecode ``code``. Repeats of a line share its
    entry while the line cache, cleared when full, holds the line. An error
    names the line by its number in ``lines``.
    """
    lookup = universe._index.__getitem__
    # Tokens (in :func:`~dptraj.model.id_type`) and offsets grow in place; the
    # weights are counted in a list, which is faster, and made an array once.
    tokens = array("h" if len(universe) <= 1 << 15 else "i")
    offsets, weights = array(code, [0]), []
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
    del cache  # its lines go before the weights' array is made
    return tokens, offsets, array(code, weights)


def _parse_part(
    path: str, universe: LocationUniverse, start: int, end: int, last: bool, code: str
) -> tuple[array, array, array]:
    """:func:`_parse` over the lines in bytes ``[start, end)`` of ``path``, or to its end if ``last``.

    The lines are counted first so that the part is read through a plain
    ``open()``: a raw file type that stops at ``end`` itself made the text
    layer check for closing through Python on every line, about 20% slower.
    """
    with _open_text(path) as fh:
        count = None if last else _count_lines(fh.fileno(), start, end)
        fh.buffer.seek(start)  # before any read, so the text layer starts there
        return _parse(islice(fh, count), path, universe, code)


def _send_part(
    fd: int, path: str, universe: LocationUniverse, start: int, end: int, last: bool, code: str
) -> NoReturn:
    """In a forked child: parse a part, send it down the pipe ``fd`` and exit.

    It sends the token and entry counts, then the tokens, offsets (less the
    leading 0) and weights, in the parent's types (both read the same
    universe and file size), as raw bytes. The child touches no stdio and
    leaves by ``os._exit``, 0 once all is sent and 1 on any failure.
    """
    status = 1
    try:
        tokens, offsets, weights = _parse_part(path, universe, start, end, last, code)
        counts = array("q", [len(tokens), len(weights)])
        for part in (counts, tokens, memoryview(offsets)[1:], weights):
            view = memoryview(part).cast("B")
            while view:
                view = view[os.write(fd, view) :]
        status = 0
    finally:
        os._exit(status)


def _load_parts(path: str, universe: LocationUniverse, cuts: list[int]) -> Records:
    """Read ``path`` in the parts that ``cuts`` bound, the first here and the others in forked children.

    Each child's arrays are read from its pipe ``_PIPE_ITEMS`` items at a
    time and appended to the first part's, which grow in place into the
    database's: no part is held twice. Entries of different parts are not
    merged. Raises if any part fails; every child is reaped either way.
    """
    code = _count_type(cuts[-1])
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe) until reaped
    try:
        for k in range(1, len(cuts) - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    last = k == len(cuts) - 2
                    _send_part(write_end, path, universe, cuts[k], cuts[k + 1], last, code)
            except BaseException:
                os.close(read_end)
                raise
            finally:
                os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        tokens, offsets, weights = _parse_part(path, universe, cuts[0], cuts[1], False, code)
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
        return Records(tokens, offsets, weights, shifts)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def read_records(path: str, universe: LocationUniverse) -> Records:
    """Read a trajectory file: one trajectory per line, whitespace-separated tokens.

    Every token must belong to ``universe``, whose order gives the ids.
    Repeats of a line share its entry while the line cache, cleared when
    full, holds the line. A regular file of a few MiB or more is read in
    line-aligned parts, one per usable CPU, side by side (:func:`_cuts`); a
    line repeated in two parts is an entry in each. If any part fails, the
    file is read again as one part, which raises the error at its line.
    Tokens are read in the universe's id type; offsets and weights in int32
    from a regular file under 2 GiB, which has fewer tokens and lines than
    bytes, and in int64 from a bigger one or a pipe, whose size is unknown.
    """
    cuts = _cuts(path)
    if len(cuts) > 2:
        try:
            return _load_parts(path, universe, cuts)
        except (OSError, EOFError, ValueError):
            pass  # the one-part read below gives the error, or the database
    with _open_text(path) as fh:
        st = os.fstat(fh.fileno())
        code = _count_type(st.st_size if S_ISREG(st.st_mode) else None)
        return Records(*_parse(fh, path, universe, code), [])


def load_db(path: str, universe_path: str) -> tuple[TrajectoryDb, LocationUniverse]:
    """:func:`read_records` of ``path`` against the universe file, as a database.

    numpy is imported only once the file is read.
    """
    universe = load_universe(universe_path)
    records = read_records(path, universe)
    from .model import as_db

    return as_db(records), universe
