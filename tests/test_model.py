import os
import random
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptraj import model
from dptraj.model import (
    DataFormatError,
    LocationUniverse,
    TrajectoryDb,
    UnknownLocationError,
    encode_timestamped,
    load_db,
    load_universe,
    write_db,
    write_universe,
)

from conftest import SAMPLE_LINES, make_db, make_universe


class TestLoad:
    def test_sample_file(self, sample_db):
        db, universe = sample_db
        assert len(db) == 8
        assert len(universe) == 4
        # first-appearance order
        assert universe.tokens == ("L1", "L2", "L3", "L4")
        assert db.trajectories[0] == (0, 1, 2)
        assert db.trajectories[7] == (2, 0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        with pytest.warns(UserWarning):
            db, universe = load_db(str(path))
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

    def test_derived_universe_warns(self, sample_file):
        with pytest.warns(UserWarning, match="universe"):
            load_db(str(sample_file))

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("A B\n   \nC\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=":2"):
            load_db(str(path))

    def test_unknown_token_with_universe(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("A B\n", encoding="utf-8")
        uni = tmp_path / "u.txt"
        uni.write_text("A\n", encoding="utf-8")
        with pytest.raises(UnknownLocationError, match="'B'"):
            load_db(str(data), str(uni))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_db(str(tmp_path / "nope.txt"))

    def test_interning_stable_across_loads(self, sample_file):
        with pytest.warns(UserWarning):
            db1, uni1 = load_db(str(sample_file))
        with pytest.warns(UserWarning):
            db2, uni2 = load_db(str(sample_file))
        assert uni1.tokens == uni2.tokens
        assert db1.trajectories == db2.trajectories

    def test_tabs_and_multiple_spaces(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("A\t B   C\n", encoding="utf-8")
        with pytest.warns(UserWarning):
            db, universe = load_db(str(path))
        assert db.trajectories == ((0, 1, 2),)

    @pytest.mark.parametrize("with_universe", [False, True])
    def test_repeated_lines_share_one_tuple(self, tmp_path, with_universe):
        path = tmp_path / "d.txt"
        path.write_text("A B\nC\nA B\nA B\nC\n", encoding="utf-8")
        if with_universe:
            uni = tmp_path / "u.txt"
            uni.write_text("A\nB\nC\n", encoding="utf-8")
            db, _ = load_db(str(path), str(uni))
        else:
            with pytest.warns(UserWarning):
                db, _ = load_db(str(path))
        t = db.trajectories
        assert t == ((0, 1), (2,), (0, 1), (0, 1), (2,))
        assert t[0] is t[2] is t[3] and t[1] is t[4]

    def test_unknown_token_reported_at_first_occurrence(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("A\nA B\nA\nA B\n", encoding="utf-8")
        uni = tmp_path / "u.txt"
        uni.write_text("A\n", encoding="utf-8")
        with pytest.raises(UnknownLocationError, match=r"d\.txt:2: unknown location 'B'"):
            load_db(str(data), str(uni))

    def test_blank_line_after_cached_lines(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("A B\nC\n" * 500 + "A B\n\nC\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"d\.txt:1002: blank line"):
            load_db(str(path))

    def test_crlf_loads_like_lf(self, tmp_path):
        lf = tmp_path / "lf.txt"
        crlf = tmp_path / "crlf.txt"
        lf.write_bytes(b"A B\nC A\nA B\n")
        crlf.write_bytes(b"A B\r\nC A\r\nA B\r\n")
        with pytest.warns(UserWarning):
            expected = load_db(str(lf))
        with pytest.warns(UserWarning):
            assert load_db(str(crlf)) == expected

    def test_small_read_blocks(self, tmp_path, monkeypatch):
        # Blocks of a few lines each: records and line numbers must come out
        # right across block boundaries.
        monkeypatch.setattr(model, "_READ_BLOCK", 8)
        lines = ["A B", "C", "A B", "B C A", "C", "A B"] * 7
        path = tmp_path / "d.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.warns(UserWarning):
            db, universe = load_db(str(path))
        assert [" ".join(universe.tokens[i] for i in t) for t in db] == lines
        path.write_text("\n".join(lines) + "\nA D\n\n", encoding="utf-8")
        uni = tmp_path / "u.txt"
        uni.write_text("A\nB\nC\n", encoding="utf-8")
        with pytest.raises(UnknownLocationError, match=r"d\.txt:43: unknown location 'D'"):
            load_db(str(path), str(uni))
        with pytest.raises(DataFormatError, match=r"d\.txt:44: blank line"):
            load_db(str(path))


class TestWrite:
    def test_sample_round_trip_in_order(self, sample_db, tmp_path):
        db, universe = sample_db
        out = tmp_path / "out.txt"
        write_db(db, universe, str(out))
        assert out.read_text(encoding="utf-8").splitlines() == SAMPLE_LINES

    def test_empty_db(self, tmp_path):
        out = tmp_path / "out.txt"
        write_db(TrajectoryDb(()), make_universe(3), str(out))
        assert out.read_text(encoding="utf-8") == ""

    def test_duplicates_preserved(self, tmp_path):
        universe = make_universe(2)
        db = make_db([(0, 1), (0, 1), (0, 1)])
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
            db = make_db(rows)
            out = tmp_path / f"db{trial}.txt"
            write_db(db, universe, str(out))
            loaded, _ = load_db(str(out), str(uni_path))
            assert Counter(loaded.trajectories) == Counter(db.trajectories)

    def test_scattered_duplicates_round_trip_in_order(self, tmp_path):
        universe = make_universe(4)
        rows = [(0, 1), (2,), (0, 1), (3, 3), (0, 1), (0, 1), (2,), (3, 3)]
        out = tmp_path / "out.txt"
        write_db(make_db(rows), universe, str(out))
        assert out.read_text(encoding="utf-8") == "L0 L1\nL2\nL0 L1\nL3 L3\nL0 L1\nL0 L1\nL2\nL3 L3\n"
        uni_path = tmp_path / "u.txt"
        write_universe(universe, str(uni_path))
        loaded, _ = load_db(str(out), str(uni_path))
        assert loaded.trajectories == tuple(rows)

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
        # adjacent and scattered are common.
        rows = [distinct[i % len(distinct)] for i in picks]
        universe = make_universe(6)
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out.txt")
            uni_path = os.path.join(tmp, "u.txt")
            write_db(make_db(rows), universe, out)
            write_universe(universe, uni_path)
            loaded, _ = load_db(out, uni_path)
        assert loaded.trajectories == tuple(rows)

    def test_invalid_id_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_db(make_db([(5,)]), make_universe(2), str(tmp_path / "x.txt"))


class TestEncodeTimestamped:
    def test_pairs_become_composite_tokens(self):
        assert encode_timestamped([("L1", "T1"), ("L2", "T2")]) == ["L1@T1", "L2@T2"]

    def test_single_pair(self):
        assert encode_timestamped([("L9", 4)]) == ["L9@4"]

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(DataFormatError):
            encode_timestamped([("L1", 2), ("L2", 1)])

    def test_equal_timestamps_allowed(self):
        assert encode_timestamped([("A", 1), ("B", 1)]) == ["A@1", "B@1"]

    def test_empty_record_rejected(self):
        with pytest.raises(DataFormatError):
            encode_timestamped([])

    def test_tokens_intern_as_distinct_universe_entries(self, tmp_path):
        tokens = encode_timestamped([("L1", "T1"), ("L2", "T2")])
        path = tmp_path / "d.txt"
        path.write_text(" ".join(tokens) + "\n", encoding="utf-8")
        with pytest.warns(UserWarning):
            db, universe = load_db(str(path))
        assert len(universe) == 2
        assert len(db.trajectories[0]) == 2


class TestUniverse:
    def test_duplicate_tokens_rejected(self):
        with pytest.raises(DataFormatError):
            LocationUniverse(("A", "A"))

    def test_id_token_round_trip(self):
        universe = make_universe(5)
        for i in range(5):
            assert universe.id_of(universe.token_of(i)) == i

    def test_unknown_token(self):
        with pytest.raises(UnknownLocationError):
            make_universe(2).id_of("nope")

    def test_blank_line_in_universe_file(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("A\n\nB\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_universe(str(path))
