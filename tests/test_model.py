import gc
import os
import random
import tempfile
import threading
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptraj import reader
from dptraj.datagen import GenConfig, generate
from dptraj.model import (
    DataFormatError,
    LocationUniverse,
    TrajectoryDb,
    UnknownLocationError,
    as_db,
    load_db,
    load_universe,
    release_stats,
    write_db,
    write_universe,
)
from dptraj.utility import mine_top_k

from conftest import SAMPLE_LINES, load_split, make_universe
from oracles import assert_same_arrays, entries_db, records_db


@pytest.fixture()
def abc_universe(tmp_path):
    """A universe file of the locations A, B and C, with ids 0, 1 and 2."""
    path = tmp_path / "abc-universe.txt"
    path.write_text("A\nB\nC\n", encoding="utf-8")
    return str(path)


class TestLoad:
    def test_sample_file(self, sample_db):
        db, universe = sample_db
        assert len(db) == 8
        assert len(universe) == 4
        # the universe file's order
        assert universe.tokens == ("L1", "L2", "L3", "L4")
        assert db.trajectories[0] == (0, 1, 2)
        assert db.trajectories[7] == (2, 0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        db, universe = load_db(str(path), str(path))
        assert len(db) == 0
        assert len(universe) == 0

    def test_repeat_location_with_universe(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("A A\n", encoding="utf-8")
        uni = tmp_path / "u.txt"
        uni.write_text("A\n", encoding="utf-8")
        db, universe = load_db(str(data), str(uni))
        assert len(universe) == 1
        assert db.trajectories == ((0, 0),)

    def test_blank_line_rejected(self, tmp_path, abc_universe):
        path = tmp_path / "d.txt"
        path.write_text("A B\n   \nC\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=":2"):
            load_db(str(path), abc_universe)

    def test_unknown_token_with_universe(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("A B\n", encoding="utf-8")
        uni = tmp_path / "u.txt"
        uni.write_text("A\n", encoding="utf-8")
        with pytest.raises(UnknownLocationError, match="'B'"):
            load_db(str(data), str(uni))

    def test_missing_file(self, tmp_path, abc_universe):
        with pytest.raises(OSError):
            load_db(str(tmp_path / "nope.txt"), abc_universe)
        with pytest.raises(OSError):
            load_db(abc_universe, str(tmp_path / "nope.txt"))

    def test_tabs_and_multiple_spaces(self, tmp_path, abc_universe):
        path = tmp_path / "d.txt"
        path.write_text("A\t B   C\n", encoding="utf-8")
        db, universe = load_db(str(path), abc_universe)
        assert db.trajectories == ((0, 1, 2),)

    def test_repeated_lines_share_one_tuple(self, tmp_path, abc_universe):
        path = tmp_path / "d.txt"
        path.write_text("A B\nC\nA B\nA B\nC\n", encoding="utf-8")
        db, _ = load_db(str(path), abc_universe)
        t = db.trajectories
        assert t == ((0, 1), (0, 1), (0, 1), (2,), (2,))  # entries in order, repeated by weight
        assert t[0] is t[1] is t[2] and t[3] is t[4]

    def test_unknown_token_reported_at_first_occurrence(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("A\nA B\nA\nA B\n", encoding="utf-8")
        uni = tmp_path / "u.txt"
        uni.write_text("A\n", encoding="utf-8")
        with pytest.raises(UnknownLocationError, match=r"d\.txt:2: unknown location 'B'"):
            load_db(str(data), str(uni))

    def test_blank_line_after_cached_lines(self, tmp_path, abc_universe):
        path = tmp_path / "d.txt"
        path.write_text("A B\nC\n" * 500 + "A B\n\nC\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"d\.txt:1002: blank line"):
            load_db(str(path), abc_universe)

    def test_crlf_loads_like_lf(self, tmp_path, abc_universe):
        lf = tmp_path / "lf.txt"
        crlf = tmp_path / "crlf.txt"
        lf.write_bytes(b"A B\nC A\nA B\n")
        crlf.write_bytes(b"A B\r\nC A\r\nA B\r\n")
        expected, universe = load_db(str(lf), abc_universe)
        crlf_universe = tmp_path / "crlf-universe.txt"
        crlf_universe.write_bytes(b"A\r\nB\r\nC\r\n")
        for universe_path in (abc_universe, str(crlf_universe)):
            db, read_universe = load_db(str(crlf), universe_path)
            assert Counter(db.trajectories) == Counter(expected.trajectories)
            assert read_universe == universe

    def test_small_read_blocks(self, tmp_path, monkeypatch, abc_universe):
        # A line cache of two lines, cleared many times over: records and
        # line numbers must come out right across the clears.
        monkeypatch.setattr(reader, "_CACHE_LINES", 2)
        lines = ["A B", "C", "A B", "B C A", "C", "A B"] * 7
        path = tmp_path / "d.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        db, universe = load_db(str(path), abc_universe)
        assert 3 < len(db.weights) < len(lines)
        read = [" ".join(universe.tokens[i] for i in t) for t in db.trajectories]
        assert Counter(read) == Counter(lines)
        path.write_text("\n".join(lines) + "\nA D\n\n", encoding="utf-8")
        with pytest.raises(UnknownLocationError, match=r"d\.txt:43: unknown location 'D'"):
            load_db(str(path), abc_universe)
        path.write_text("\n".join(lines) + "\nA C\n\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"d\.txt:44: blank line"):
            load_db(str(path), abc_universe)


class TestSplitLoad:
    """A file read in several parts, forked readers and all, reads as one part does."""

    @pytest.fixture()
    def split(self, monkeypatch):
        """Make every file of a few bytes or more read in up to ``cpus`` parts."""

        def force(cpus=4):
            monkeypatch.setattr(reader, "_PART_BYTES", 4)
            monkeypatch.setattr(reader, "_usable_cpus", lambda: cpus)

        return force

    @staticmethod
    def one_part(path, universe_path):
        with mock.patch.object(reader, "_usable_cpus", lambda: 1):
            return load_db(path, universe_path)

    @staticmethod
    def raised(path, universe_path):
        with pytest.raises(ValueError) as info:
            load_db(path, universe_path)
        return type(info.value), str(info.value)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "data",
        [
            b"A B\nC\nA B\nB C A\nC\nA B\nA\nC C\n" * 5,
            b"A B\r\nC\r\nA B\r\nB C A\r\nC\r\n" * 5,  # CRLF
            b"A B\rC\nA B\rB C A\nC\r\nA\rC C\n" * 5,  # lone CRs among the LFs
            b"A B\nC\nA B\nB C A\nC\nA B\nA\nC C\n" * 5 + b"B A",  # no final newline
            "A B\nC\n".encode() * 30 + b"  A \t B  \n",
        ],
        ids=["lf", "crlf", "lone-cr", "no-final-newline", "spaces"],
    )
    def test_parts_hold_the_one_part_multiset(self, tmp_path, abc_universe, split, data):
        path = tmp_path / "d.txt"
        path.write_bytes(data)
        expected, _ = self.one_part(str(path), abc_universe)
        for cpus in (2, 3, 4):
            split(cpus)
            cuts = reader._cuts(str(path))
            assert len(cuts) == cpus + 1 and cuts[-1] == len(data)
            assert all(data[cut - 1 : cut] == b"\n" for cut in cuts[1:-1])
            db, _ = load_db(str(path), abc_universe)
            assert Counter(db.trajectories) == Counter(expected.trajectories)
            assert db.weights.sum() == len(db)
        self.assert_no_child_left()

    @pytest.mark.parametrize("count_bytes", [1, 2, 1 << 16])
    def test_every_line_aligned_cut(self, tmp_path, abc_universe, monkeypatch, count_bytes):
        # Parts cut after each newline in turn, two parts and three, CRs
        # included; lines are counted in blocks that split CRLF pairs or not.
        monkeypatch.setattr(reader, "_COUNT_BYTES", count_bytes)
        data = b"A B\r\nC\rA B\nB C A\r\nC\nA B\rA\nC C\r\nB\n"
        path = tmp_path / "d.txt"
        path.write_bytes(data)
        expected, universe = self.one_part(str(path), abc_universe)
        after = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")][:-1]
        for cuts in [[0, c, len(data)] for c in after] + [[0, *after[1:3], len(data)]]:
            db = as_db(reader._load_parts(str(path), universe, cuts))
            assert len(db.weights) >= len(expected.weights)
            assert Counter(db.trajectories) == Counter(expected.trajectories)
        self.assert_no_child_left()

    def test_pipes_small_files_and_threaded_processes_are_one_part(self, tmp_path, monkeypatch):
        path = tmp_path / "d.txt"
        path.write_bytes(b"A\n" * 100)
        monkeypatch.setattr(reader, "_usable_cpus", lambda: 4)
        assert reader._cuts(str(path)) == []  # under two parts' floor
        monkeypatch.setattr(reader, "_PART_BYTES", 4)
        assert len(reader._cuts(str(path))) == 5
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        assert reader._cuts(str(fifo)) == []  # stat alone: the pipe is not opened
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert reader._cuts(str(path)) == []  # a fork would not carry the thread
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(reader._cuts(str(path))) == 5
        monkeypatch.delattr(os, "fork")
        assert reader._cuts(str(path)) == []

    @pytest.mark.parametrize(
        "bad",
        [b"A D\n", b"\n", b"   \n", b"A \xff B\n"],
        ids=["unknown-token", "blank-line", "spaces-only", "not-utf8"],
    )
    def test_error_in_a_later_part_is_the_one_part_error(self, tmp_path, abc_universe, split, bad):
        good = b"A B\nC\nB C A\n" * 40
        path = tmp_path / "d.txt"
        path.write_bytes(2 * good + bad + good)
        expected = self.raised(str(path), abc_universe)  # one part: the file is small
        split(2)
        cuts = reader._cuts(str(path))
        assert cuts[1] <= 2 * len(good) < cuts[2]  # the bad line lies in the second part
        assert self.raised(str(path), abc_universe) == expected
        self.assert_no_child_left()

    def test_blank_line_just_after_a_cut(self, tmp_path, abc_universe, monkeypatch):
        path = tmp_path / "d.txt"
        path.write_bytes(b"A B\nC\n" * 20 + b"\n" + b"C\n" * 20)
        expected = self.raised(str(path), abc_universe)
        assert expected == (DataFormatError, f"{path}:41: blank line")
        monkeypatch.setattr(reader, "_cuts", lambda _: [0, 6 * 20, path.stat().st_size])
        assert self.raised(str(path), abc_universe) == expected
        self.assert_no_child_left()

    def test_no_child_and_no_open_file_left(self, tmp_path, abc_universe, split):
        # The fork also raises no DeprecationWarning about threads, where Python warns of them.
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_bytes(b"A B\nC\n" * 200)
        bad.write_bytes(b"A B\nC\n" * 200 + b"A D\n")
        split(3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            db, _ = load_db(str(good), abc_universe)
            self.assert_no_child_left()
            with pytest.raises(UnknownLocationError, match=r"bad\.txt:401: unknown location 'D'"):
                load_db(str(bad), abc_universe)
            self.assert_no_child_left()
            gc.collect()
        assert len(db) == 400
        assert [str(w.message) for w in caught] == []

    def test_failed_child_is_reaped_and_the_file_read_again(self, tmp_path, abc_universe, split):
        path = tmp_path / "d.txt"
        path.write_bytes(b"A B\nC\n" * 200)
        split(3)
        expected, _ = self.one_part(str(path), abc_universe)
        calls, parse = [], reader._parse_part

        def parse_part(path, universe, start, end, last, code):
            calls.append(os.getpid())
            if last:
                os._exit(3)  # a child dies before it sends anything
            return parse(path, universe, start, end, last, code)

        with mock.patch.object(reader, "_parse_part", parse_part):
            db, _ = load_db(str(path), abc_universe)
        assert calls == [os.getpid()]  # the children's calls happen in their own processes
        assert Counter(db.trajectories) == Counter(expected.trajectories)
        assert len(db.weights) == len(expected.weights)  # read again as one part
        self.assert_no_child_left()

    def test_parts_fill_int32_arrays_with_no_wide_copy(self, tmp_path, monkeypatch, split):
        # A regular file under 2 GiB is read straight into int32 offsets and
        # weights, in this process's part and the forked one, so the load peaks
        # near what it keeps: 1.8 times as much when they were filled as int64
        # and narrowed. The line cache, a fixed cost of up to 2**15 lines'
        # strings, is cut to 2**10 lines, so the peak is the arrays'.
        config = GenConfig(n_locations=1012, n_records=50_000, avg_len=6.7, max_len=12,
                           zipf_skew=1.0, seed=1)
        db, universe = generate(config)
        path, universe_path = str(tmp_path / "zipf.txt"), str(tmp_path / "universe.txt")
        write_db(db, universe, path)
        write_universe(universe, universe_path)
        monkeypatch.setattr(reader, "_CACHE_LINES", 1 << 10)
        split(2)
        assert len(reader._cuts(path)) == 3
        records = reader.read_records(path, universe)
        assert records.offsets.typecode == records.weights.typecode == "i"
        assert len(records.shifts) == 1  # the forked part's offsets
        tracemalloc.start()
        try:
            loaded, _ = load_db(path, universe_path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.offsets.dtype == loaded.weights.dtype == np.int32
        assert peak <= 1.3 * kept, (peak, kept)
        assert_same_arrays(loaded, as_db(records))
        self.assert_no_child_left()

    def test_a_pipe_is_read_in_int64(self, tmp_path, abc_universe):
        # A pipe's size is unknown, so its offsets and weights are filled as
        # int64, and the database narrows them.
        data = b"A B\nC\nA B\nB C A\n" * 5
        path, fifo = tmp_path / "d.txt", tmp_path / "fifo"
        path.write_bytes(data)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            records = reader.read_records(str(fifo), load_universe(abc_universe))
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert records.offsets.typecode == records.weights.typecode == "q"
        db = as_db(records)
        assert db.offsets.dtype == db.weights.dtype == np.int32
        expected, _ = load_db(str(path), abc_universe)
        assert_same_arrays(db, expected)


class TestWrite:
    def test_sample_round_trip(self, sample_db, tmp_path):
        # The sample repeats a line, which loads as one entry, so its repeats
        # are written together: the lines come back as a multiset.
        db, universe = sample_db
        out = tmp_path / "out.txt"
        write_db(db, universe, str(out))
        assert Counter(out.read_text(encoding="utf-8").splitlines()) == Counter(SAMPLE_LINES)

    def test_empty_db(self, tmp_path):
        out = tmp_path / "out.txt"
        write_db(records_db(()), make_universe(3), str(out))
        assert out.read_text(encoding="utf-8") == ""

    def test_duplicates_preserved(self, tmp_path):
        universe = make_universe(2)
        db = entries_db([(0, 1)], [3])
        out = tmp_path / "out.txt"
        write_db(db, universe, str(out))
        uni_path = tmp_path / "u.txt"
        write_universe(universe, str(uni_path))
        loaded, _ = load_db(str(out), str(uni_path))
        assert Counter(loaded.trajectories) == Counter(db.trajectories)

    def test_round_trip_random_dbs(self, tmp_path):
        rnd = random.Random(1234)
        universe = make_universe(12)
        uni_path = tmp_path / "u.txt"
        write_universe(universe, str(uni_path))
        for trial in range(20):
            rows = [
                tuple(rnd.randrange(12) for _ in range(rnd.randint(1, 9)))
                for _ in range(rnd.randint(0, 60))
            ]
            db = records_db(rows)
            out = tmp_path / f"db{trial}.txt"
            write_db(db, universe, str(out))
            loaded, _ = load_db(str(out), str(uni_path))
            assert Counter(loaded.trajectories) == Counter(db.trajectories)

    def test_scattered_duplicates_round_trip_in_order(self, tmp_path):
        universe = make_universe(4)
        rows = [(0, 1), (2,), (0, 1), (3, 3), (0, 1), (0, 1), (2,), (3, 3)]
        out = tmp_path / "out.txt"
        write_db(records_db(rows), universe, str(out))
        assert out.read_text(encoding="utf-8") == "L0 L1\nL2\nL0 L1\nL3 L3\nL0 L1\nL0 L1\nL2\nL3 L3\n"
        uni_path = tmp_path / "u.txt"
        write_universe(universe, str(uni_path))
        loaded, _ = load_db(str(out), str(uni_path))
        assert Counter(loaded.trajectories) == Counter(rows)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=6).map(tuple),
            min_size=1,
            max_size=8,
        ),
        st.lists(st.integers(0, 7), max_size=40),
    )
    def test_round_trip_property(self, distinct, picks):
        # Records drawn with repetition from a small pool, so duplicates both
        # adjacent and scattered are common; written one entry per record and
        # one weighted entry per distinct record.
        rows = [distinct[i % len(distinct)] for i in picks]
        counts = Counter(rows)
        universe = make_universe(6)
        for db in (records_db(rows), entries_db(counts, counts.values())):
            with tempfile.TemporaryDirectory() as tmp:
                out = os.path.join(tmp, "out.txt")
                uni_path = os.path.join(tmp, "u.txt")
                write_db(db, universe, out)
                write_universe(universe, uni_path)
                loaded, _ = load_db(out, uni_path)
            assert Counter(loaded.trajectories) == counts

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple),
            min_size=1,
            max_size=6,
        ),
        st.lists(st.integers(0, 9), max_size=40),
        st.integers(1, 6),
    )
    def test_split_entries_read_like_distinct_records(self, distinct, picks, cache_lines):
        # A line cache of a few lines splits a record's repeats into several
        # entries; every reader must still see the same records.
        rows = [distinct[i % len(distinct)] for i in picks]
        with tempfile.TemporaryDirectory() as tmp:
            db = load_split(rows, make_universe(4), cache_lines, tmp)
        assert Counter(db.trajectories) == Counter(rows)
        assert db.weights.sum() == len(db)
        counts = Counter(rows)
        reference = entries_db(counts, counts.values())  # one entry per distinct record
        assert mine_top_k(db, 20) == mine_top_k(reference, 20)
        assert release_stats(db) == release_stats(reference)

    def test_invalid_id_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_db(records_db([(5,)]), make_universe(2), str(tmp_path / "x.txt"))


class TestTrajectoryDb:
    def test_entries_and_weights_are_checked(self):
        tokens, offsets = [0, 1, 2], [0, 1, 3]
        db = TrajectoryDb(tokens, offsets, [1, 2])
        assert db.tokens.tolist() == tokens and db.offsets.tolist() == offsets
        assert db.weights.tolist() == [1, 2]
        assert len(db) == 3
        assert db.trajectories == ((0,), (1, 2), (1, 2))
        for bad in ([1, 2, 3], [0, 1, 2]):  # not from 0, not to the end of the tokens
            with pytest.raises(ValueError, match="offsets"):
                TrajectoryDb(tokens, bad, [1, 1])
        with pytest.raises(ValueError, match="at least one location"):
            TrajectoryDb(tokens, [0, 1, 1, 3], [1, 1, 1])
        with pytest.raises(ValueError, match="location ids must be >= 0"):
            TrajectoryDb([0, -1, 2], offsets, [1, 1])
        for weights in ([1], [1, 1, 1], [1, 0], [-1, 2]):  # too few, too many, zero, negative
            with pytest.raises(ValueError, match="weights"):
                TrajectoryDb(tokens, offsets, weights)


class TestMemory:
    """Reading and writing 300,000 copies of one line hold no object per line."""

    LINES = 300_000

    @pytest.fixture()
    def repeated(self, tmp_path):
        path, universe_path = tmp_path / "d.txt", tmp_path / "u.txt"
        path.write_text("L0 L1 L2\n" * self.LINES, encoding="utf-8")
        write_universe(make_universe(3), str(universe_path))
        return str(path), str(universe_path)

    @staticmethod
    def _peak_above_start(fn, *args):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_load_holds_nothing_per_line(self, repeated):
        (db, _), peak = self._peak_above_start(load_db, *repeated)
        assert len(db) == self.LINES and len(db.weights) == 1
        assert peak <= 1 << 20

    def test_write_holds_no_run_in_one_string(self, repeated, tmp_path):
        db, universe = load_db(*repeated)
        out = tmp_path / "out.txt"
        _, peak = self._peak_above_start(write_db, db, universe, str(out))
        assert peak <= 1 << 20
        assert out.read_text(encoding="utf-8") == "L0 L1 L2\n" * self.LINES

    def test_write_converts_a_block_of_entries_at_a_time(self, tmp_path):
        # Four times as many distinct entries must not raise the peak: the
        # tokens are turned into strings one block of entries at a time.
        rng = np.random.default_rng(0)
        universe, peaks = make_universe(1000), []
        for n in (1 << 16, 1 << 18):
            offsets = np.arange(0, 4 * n + 1, 4)
            db = TrajectoryDb(rng.integers(0, 1000, 4 * n), offsets, np.ones(n, dtype=np.int64))
            out = tmp_path / f"{n}.txt"
            peaks.append(self._peak_above_start(write_db, db, universe, str(out))[1])
            assert out.read_text(encoding="utf-8").count("\n") == n
        assert peaks[1] < 1.5 * peaks[0]


class TestEncodeTimestamped:
    """Timestamped records: each (location, timestamp) pair is one ``loc@ts`` token."""

    def test_tokens_intern_as_distinct_universe_entries(self, tmp_path):
        path, uni = tmp_path / "d.txt", tmp_path / "u.txt"
        path.write_text("L1@T1 L2@T2 L1@T2\n", encoding="utf-8")
        uni.write_text("L1@T1\nL1@T2\nL2@T1\nL2@T2\n", encoding="utf-8")
        db, universe = load_db(str(path), str(uni))
        assert db.trajectories == ((0, 3, 1),)


class TestUniverse:
    def test_duplicate_tokens_rejected(self):
        with pytest.raises(DataFormatError):
            LocationUniverse(("A", "A"))

    def test_blank_line_in_universe_file(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("A\n\nB\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_universe(str(path))

    def test_two_tokens_on_a_universe_line(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("A\nB C\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"u\.txt:2: more than one token"):
            load_universe(str(path))
