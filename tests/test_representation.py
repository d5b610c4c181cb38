"""The database's integer types, and the readers that widen them.

A database holds its ids in int16 when every id is below 2**15 and its
offsets and weights in int32 when they are below 2**31. Every reader that
multiplies or adds past those values widens first; the cases here put ids
next to 2**15 and make the products the readers form pass 2**15 and 2**31.
"""

import os
import random
import threading
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from dptraj import model, reader, utility
from dptraj.inference import consistent_estimates, consolidate
from dptraj.model import TrajectoryDb, id_type, load_db, narrowest, write_db, write_universe
from dptraj.privacy import PrivacyParams, RandomSource
from dptraj.release import generate_release
from dptraj.tree import build_noisy_tree
from dptraj.utility import PresenceIndex, mine_top_k

from conftest import make_universe
from oracles import (
    assert_same_arrays,
    assert_same_tree,
    brute_force_top_k,
    db_entries,
    entries_db,
    records_db,
    reference_noisy_tree,
    reference_release,
    scan_count,
)

TOP = 1 << 15  # the first id past int16


def _records(db):
    """How many records each distinct entry of ``db`` stands for."""
    records = Counter()
    for entry, weight in zip(db_entries(db), db.weights.tolist()):
        records[entry] += weight
    return records


def _near_top(rnd, count, spread, longest):
    """``count`` records of ids among the ``spread`` just below 2**15."""
    return [
        tuple(rnd.randrange(TOP - spread, TOP) for _ in range(rnd.randint(1, longest)))
        for _ in range(count)
    ]


class TestTypes:
    @pytest.mark.parametrize(
        "largest, narrow, wide, expected",
        [
            (2**15 - 1, np.int16, np.int32, np.int16),
            (2**15, np.int16, np.int32, np.int32),
            (2**31 - 1, np.int32, np.int64, np.int32),
            (2**31, np.int32, np.int64, np.int64),
            (2**63 - 1, np.int32, np.int64, np.int64),
            (0, np.int32, np.int64, np.int32),
        ],
    )
    def test_narrowest_at_the_edges(self, largest, narrow, wide, expected):
        assert narrowest(largest, narrow, wide) == np.dtype(expected)

    def test_past_the_wide_type_is_refused(self):
        with pytest.raises(ValueError, match="does not fit int32"):
            narrowest(2**31, np.int16, np.int32)

    def test_id_type_follows_the_universe(self):
        assert id_type(TOP) == np.int16  # ids 0 .. 2**15 - 1
        assert id_type(TOP + 1) == np.int32

    def test_arrays_take_the_narrow_type_when_they_fit(self):
        db = records_db([(0, TOP - 1), (3,)])
        assert (db.tokens.dtype, db.offsets.dtype, db.weights.dtype) == (
            np.int16, np.int32, np.int32,
        )
        assert records_db([(TOP,)]).tokens.dtype == np.int32

    def test_weights_at_the_int32_edge(self):
        fits = entries_db([(1,), (2,)], [2**31 - 1, 2**31 - 1])
        assert fits.weights.dtype == np.int32
        assert len(fits) == 2**32 - 2  # summed in int64
        assert entries_db([(1,)], [2**31]).weights.dtype == np.int64

    def test_offsets_at_the_int32_edge(self):
        # offsets[-1] is the token count, so the rule is tested where it picks
        # the type, whose edges test_narrowest_at_the_edges checks: a database
        # with 2**31 tokens would take 4 GiB.
        with mock.patch.object(model, "narrowest", wraps=narrowest) as pick:
            records_db([(1, 2), (3,)])
        assert mock.call(3, np.int32, np.int64) in pick.call_args_list

    def test_wide_arrays_are_narrowed_without_a_change_of_value(self):
        tokens = np.array([TOP - 1, 0, 5], dtype=np.int64)
        db = TrajectoryDb(tokens, np.array([0, 2, 3], dtype=np.int64), np.array([4, 1]))
        assert db.tokens.dtype == np.int16 and db.tokens.tolist() == tokens.tolist()
        assert db.offsets.tolist() == [0, 2, 3] and db.weights.tolist() == [4, 1]

    def test_ids_past_int32_are_refused(self):
        with pytest.raises(ValueError, match="does not fit int32"):
            TrajectoryDb([2**31], [0, 1], [1])


class TestLoadWidth:
    """``load_db`` reads ids into the universe's type, in one part, in forked parts and from a pipe."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        # About 8.5 MiB of records over the top 64 ids of a 2**15 universe,
        # and the same file with one record of id 2**15 at its end.
        directory = tmp_path_factory.mktemp("width")
        rng = np.random.default_rng(35)
        lengths = rng.integers(1, 6, 500_000)
        tokens = rng.integers(TOP - 64, TOP, int(lengths.sum()))
        narrow = directory / "narrow.txt"
        write_db(
            TrajectoryDb(tokens, np.concatenate(([0], np.cumsum(lengths))), np.ones(len(lengths))),
            make_universe(TOP), str(narrow),
        )
        wide = directory / "wide.txt"
        wide.write_bytes(narrow.read_bytes() + f"L{TOP}\n".encode())
        universes = {}
        for size in (TOP, TOP + 1):
            universes[size] = str(directory / f"universe-{size}.txt")
            write_universe(make_universe(size), universes[size])
        assert narrow.stat().st_size >= 8 << 20
        return {TOP: str(narrow), TOP + 1: str(wide)}, universes

    @staticmethod
    def _through_a_pipe(path, universe_path, directory):
        fifo = os.path.join(directory, "fifo")
        os.mkfifo(fifo)

        def feed():
            with open(path, "rb") as src, open(fifo, "wb") as dst:
                dst.write(src.read())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            db, _ = load_db(fifo, universe_path)
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        return db

    @pytest.mark.parametrize("size, dtype", [(TOP, np.int16), (TOP + 1, np.int32)])
    def test_ids_are_read_in_the_universe_type(self, files, size, dtype, tmp_path, monkeypatch):
        paths, universes = files
        path, universe_path = paths[size], universes[size]
        monkeypatch.setattr(reader, "_usable_cpus", lambda: 1)
        one_part, _ = load_db(path, universe_path)
        monkeypatch.setattr(reader, "_usable_cpus", lambda: 2)
        assert len(reader._cuts(path)) == 3  # two parts, the second read in a forked child
        parts, _ = load_db(path, universe_path)
        piped = self._through_a_pipe(path, universe_path, tmp_path)
        for db in (one_part, parts, piped):
            assert db.tokens.dtype == dtype
            assert db.offsets.dtype == db.weights.dtype == np.int32
            assert int(db.tokens.max()) == size - 1
        assert_same_arrays(piped, one_part)
        assert _records(parts) == _records(one_part)  # a line repeated in two parts is two entries

    @pytest.mark.parametrize("size, typecode", [(TOP, "h"), (TOP + 1, "i")])
    def test_the_parser_fills_the_narrow_type(self, size, typecode):
        tokens, _, _ = reader._parse([f"L{size - 1} L0\n"], "x", make_universe(size), "i")
        assert tokens.typecode == typecode and tokens.tolist() == [size - 1, 0]


class TestSearchesKeepTheirTypes:
    """A search of a narrow array with wider values would copy the array to the wider type."""

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_row_blocks_do_not_copy_int32_bounds(self):
        bounds = np.arange(0, 4 << 20, 4, dtype=np.int32)  # 4 MiB of offsets
        assert self._peak(utility._row_blocks, bounds) < bounds.nbytes / 4

    def test_queries_do_not_copy_int32_keys(self):
        rng = np.random.default_rng(5)
        tokens = rng.integers(0, 1000, 1 << 20)
        db = TrajectoryDb(tokens, np.arange(0, len(tokens) + 1, 4), np.ones(len(tokens) // 4))
        index = PresenceIndex(db, 1000)
        assert index._keys.dtype == np.int32 and index._keys.nbytes >= 3 << 20
        sizes, locations = np.full(50, 2), rng.integers(0, 1000, 100)
        assert self._peak(index.counts, sizes, locations) < index._keys.nbytes / 4


class TestNearTheInt16Edge:
    """The tree, the release, the index and the miner agree with the oracles on ids near 2**15."""

    @staticmethod
    def _assert_tree_and_releases(db, universe, params, seed):
        tree = build_noisy_tree(db, universe, params, RandomSource(seed))
        assert_same_tree(tree, reference_noisy_tree(db, universe, params, RandomSource(seed)))
        consolidate(tree)
        consistent_estimates(tree)
        for use_inference in (False, True):
            release = generate_release(tree, use_inference)
            assert release.tokens.dtype == np.int16
            assert_same_arrays(release, reference_release(tree, use_inference))
        return tree

    def test_tree_whose_cells_pass_int16(self):
        # Frontier place times 2**15, plus an id near 2**15, passes int16 from depth 1 on.
        db = records_db(_near_top(random.Random(3), 400, 6, 5))
        params = PrivacyParams(epsilon=30.0, height=4)
        tree = self._assert_tree_and_releases(db, make_universe(TOP), params, 7)
        assert tree.location[1:].max() == TOP - 1
        assert (tree.n_children[tree.depth == 1] > 0).sum() > 1

    def test_tree_whose_cells_pass_int32(self):
        # 66,000 records with distinct first two ids near 2**15 make more than
        # 2**16 expanded depth-2 nodes, so depth 3's cells pass 2**31.
        rows = [
            (TOP - 1 - a, TOP - 1 - b, TOP - 1 - (a * b) % 50) for a in range(300) for b in range(220)
        ]
        db = records_db(rows)
        params = PrivacyParams(epsilon=60.0, height=3)
        tree = self._assert_tree_and_releases(db, make_universe(TOP), params, 5)
        assert (tree.n_children[tree.depth == 2] > 0).sum() * TOP > 2**31

    def test_tree_whose_counts_pass_int32(self):
        # Weights of 2**31 - 1 are int32, and a depth's count of two of them is not.
        db = entries_db([(TOP - 1,), (TOP - 1, 3), (2,)], [2**31 - 1, 2**31 - 1, 5])
        assert db.weights.dtype == np.int32
        params = PrivacyParams(epsilon=1.0, height=2)
        tree = self._assert_tree_and_releases(db, make_universe(TOP), params, 1)
        assert {2**32 + 3, 2**32 - 2, 2**31 - 1} <= set(tree.true_count.tolist())

    @pytest.mark.parametrize(
        "entries, key_type",
        [
            (200, np.int32),  # id * n passes int16
            (2**16 - 1, np.int32),  # the largest key, 2**15 * n - 1, is just below 2**31
            (2**16, np.int64),  # 2**15 * n is 2**31
        ],
    )
    def test_index_counts(self, entries, key_type):
        rnd = random.Random(entries)
        db = records_db(_near_top(rnd, entries, 12, 4))
        index = PresenceIndex(db, TOP)
        assert index._keys.dtype == index._bounds.dtype == key_type
        assert int(index._keys.max()) >= (TOP - 1) * entries
        queries = [rnd.sample(range(TOP - 12, TOP), rnd.randint(1, 3)) for _ in range(25)]
        sizes = np.array([len(q) for q in queries])
        answers = index.counts(sizes, np.array([loc for q in queries for loc in q]))
        assert answers.tolist() == [scan_count(db, q) for q in queries]

    @pytest.mark.parametrize("records", [300, 70_000])
    def test_mine_top_k(self, records):
        # 15 location bits above the row and place fields: past 2**31 at 70,000 rows.
        db = records_db(_near_top(random.Random(records), records, 6, 4))
        assert mine_top_k(db, 40, max_len=3) == brute_force_top_k(db, 40)
