import itertools
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dptraj import utility
from dptraj.model import TrajectoryDb
from dptraj.utility import (
    PresenceIndex,
    SeqPattern,
    eval_count_query,
    evaluate_workload,
    fsp_metrics,
    generate_workload,
    mine_top_k,
    relative_error,
)

from conftest import load_split, make_universe
from oracles import entries_db, records_db


def brute_force_top_k(db, k, max_len=3):
    """Enumerate every subsequence pattern up to max_len by direct scans."""
    support = Counter()
    for t in db.trajectories:
        seen = set()
        for length in range(1, max_len + 1):
            for combo in itertools.combinations(range(len(t)), length):
                seen.add(tuple(t[i] for i in combo))
        support.update(seen)
    ordered = sorted(support.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0]))
    return [SeqPattern(locations=p, support=s) for p, s in ordered[:k]]


class TestCountQuery:
    def test_sample_pair_query(self, sample_db):
        db, universe = sample_db
        q = frozenset({universe.tokens.index("L1"), universe.tokens.index("L2")})
        assert eval_count_query(db, q) == 6

    def test_sample_singleton_query(self, sample_db):
        db, universe = sample_db
        assert eval_count_query(db, frozenset({universe.tokens.index("L4")})) == 2

    def test_query_matching_nothing(self, sample_db):
        db, universe = sample_db
        q = frozenset(range(4))  # no record holds all four locations
        assert eval_count_query(db, q) == 0

    def test_empty_query_rejected(self, sample_db):
        db, _ = sample_db
        with pytest.raises(ValueError):
            eval_count_query(db, frozenset())

    def test_order_and_multiplicity_ignored(self):
        db = records_db([(1, 0, 1, 1), (0, 1), (1, 0)])
        q = frozenset({0, 1})
        assert eval_count_query(db, q) == 3

    def test_index_agrees_with_scan(self):
        rnd = random.Random(11)
        for _ in range(10):
            size = rnd.randint(2, 15)
            rows = [
                tuple(rnd.randrange(size) for _ in range(rnd.randint(1, 8)))
                for _ in range(rnd.randint(1, 300))
            ]
            db = records_db(rows)
            index = PresenceIndex(db, size)
            for _ in range(30):
                q = frozenset(
                    rnd.sample(range(size), rnd.randint(1, min(4, size)))
                )
                assert index.count(q) == eval_count_query(db, q)

    def test_index_agrees_with_scan_on_duplicates(self, tmp_path):
        # Few distinct records, each repeated many times in shuffled order.
        # Read back with a small line cache, the records also split into
        # several entries each.
        rnd = random.Random(23)
        size = 9
        distinct = {
            tuple(rnd.randrange(size) for _ in range(rnd.randint(1, 6))) for _ in range(60)
        }
        distinct = sorted(distinct)[:37]
        assert len(distinct) == 37
        rows = [t for t in distinct for _ in range(rnd.randint(1, 40))]
        rnd.shuffle(rows)
        counts = Counter(rows)
        db = entries_db(counts, counts.values())  # one entry per distinct record
        split = load_split(rows, make_universe(size), 4, tmp_path)
        assert len(db.weights) == 37 < len(split.weights)
        for index in (PresenceIndex(db, size), PresenceIndex(split, size)):
            assert index.weights.sum() == len(db)
            for q_len in range(1, 5):
                for q in itertools.combinations(range(size), q_len):
                    q = frozenset(q)
                    assert index.count(q) == eval_count_query(db, q)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=9).map(tuple),
            max_size=12,
        ),
        st.lists(st.integers(0, 11), max_size=40),
        st.lists(
            st.one_of(
                st.frozensets(st.integers(0, 5), min_size=1, max_size=6),
                st.frozensets(st.integers(0, 13), min_size=1, max_size=12),
            ),
            min_size=1,
            max_size=25,
        ),
        st.sampled_from([1, 5, 1 << 16]),
        st.sampled_from([None, 2, 8]),
    )
    # Entry 1 visits only location 0, and the key for its visit to location 5,
    # the highest one visited, sorts after every key in the index.
    @example(
        pool=[(5,), (0,)], picks=[0, 1], queries=[frozenset({0, 5})], batch=1, cache_lines=None
    )
    def test_batched_and_single_answers_match_scan(
        self, tmp_path_factory, pool, picks, queries, batch, cache_lines
    ):
        # Records use locations 0-5 of a 14-location universe: queries of
        # length 1-12 also name locations no record visits, and half of them
        # keep to the visited ones, whose answers are rarely zero. An empty pool is
        # a database with no entries, a one-record pool one with a single
        # entry; reading back with a small line cache splits an entry's repeats.
        rows = [pool[i % len(pool)] for i in picks] if pool else []
        counts = Counter(rows)
        db = entries_db(counts, counts.values())  # one entry per distinct record
        if cache_lines is not None:
            db = load_split(rows, make_universe(14), cache_lines, tmp_path_factory.mktemp("split"))
        expected = [eval_count_query(records_db(rows), q) for q in queries]
        with mock.patch.object(utility, "_BATCH_CANDIDATES", batch):
            index = PresenceIndex(db, 14)
            assert index.counts(queries).tolist() == expected
            assert [index.count(q) for q in queries] == expected

    def test_index_holds_no_per_location_rows(self):
        # One visit per entry: the index is a few arrays of one number per
        # visit or location, where a bit row per location would be 2 MiB.
        size = 4096
        index = PresenceIndex(records_db([(i,) for i in range(size)]), size)
        held = sum(v.nbytes for v in vars(index).values() if isinstance(v, np.ndarray))
        assert held < 256 * 1024

    def test_index_rejects_ids_outside_universe(self):
        with pytest.raises(ValueError, match="outside universe of size 3"):
            PresenceIndex(records_db([(0, 5)]), 3)

    @pytest.mark.parametrize("location", [-1, 3])
    def test_batch_names_a_query_location_outside_universe(self, location):
        index = PresenceIndex(records_db([(0, 1), (2,)]), 3)
        queries = [frozenset({0}), frozenset({location, 2})]
        with pytest.raises(ValueError, match=f"query location {location} outside universe of size 3"):
            index.counts(queries)

    def test_batch_rejects_an_empty_query(self, sample_db):
        db, _ = sample_db
        with pytest.raises(ValueError, match="at least one location"):
            PresenceIndex(db, 4).counts([frozenset({0}), frozenset()])


class TestRelativeError:
    def test_plain_arithmetic(self):
        assert relative_error(6, 5, 0.008) == pytest.approx(1 / 6)

    def test_exact_answer(self):
        assert relative_error(17, 17, 1.0) == 0.0

    def test_sanity_bound_branch(self):
        assert relative_error(0, 3, 10.0) == pytest.approx(0.3)

    def test_nonpositive_sanity_rejected(self):
        with pytest.raises(ValueError):
            relative_error(1, 2, 0.0)

    def test_non_finite_sanity_rejected(self):
        for sanity in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                relative_error(0, 2, sanity)


class TestWorkload:
    def test_subset_max_lengths(self):
        universe = make_universe(50)
        workload = generate_workload(universe, height=12, per_subset=5, seed=0)
        assert workload.max_lengths == (3, 6, 9, 12)

    def test_counts_and_lengths(self):
        universe = make_universe(40)
        workload = generate_workload(universe, height=12, per_subset=100, seed=1)
        assert sum(len(s) for s in workload.subsets) == 400
        for max_len, queries in zip(workload.max_lengths, workload.subsets):
            for q in queries:
                assert 1 <= len(q) <= max_len

    def test_deterministic(self):
        universe = make_universe(30)
        a = generate_workload(universe, 12, 50, seed=9)
        b = generate_workload(universe, 12, 50, seed=9)
        assert a == b

    def test_too_small_height_rejected(self):
        with pytest.raises(ValueError):
            generate_workload(make_universe(10), height=3, per_subset=5, seed=0)

    def test_empty_subsets_rejected(self):
        for per_subset in (0, -1):
            with pytest.raises(ValueError, match="per_subset must be >= 1"):
                generate_workload(make_universe(10), height=12, per_subset=per_subset, seed=0)

    def test_lengths_capped_by_universe(self):
        universe = make_universe(4)
        workload = generate_workload(universe, height=20, per_subset=20, seed=2)
        for queries in workload.subsets:
            for q in queries:
                assert len(q) <= 4

    def test_identity_evaluation_is_zero(self, sample_db):
        db, universe = sample_db
        workload = generate_workload(universe, height=4, per_subset=25, seed=3)
        averages = evaluate_workload(db, db, workload, len(universe))
        assert averages == [0.0, 0.0, 0.0, 0.0]


class TestMineTopK:
    def test_sample_pair_supports(self, sample_db):
        db, universe = sample_db
        patterns = {p.locations: p.support for p in mine_top_k(db, 40)}
        l1, l2 = universe.tokens.index("L1"), universe.tokens.index("L2")
        assert patterns[(l1, l2)] == 5
        assert patterns[(l2, l1)] == 2

    def test_top_one_breaks_tie_lexicographically(self, sample_db):
        db, universe = sample_db
        top = mine_top_k(db, 1)
        assert top[0].locations == (universe.tokens.index("L1"),)
        assert top[0].support == 7

    def test_matches_brute_force(self):
        rnd = random.Random(21)
        for _ in range(8):
            size = rnd.randint(3, 8)
            rows = [
                tuple(rnd.randrange(size) for _ in range(rnd.randint(1, 6)))
                for _ in range(rnd.randint(5, 200))
            ]
            db = records_db(rows)
            longest = max(map(len, rows))
            for k in (1, 5, 20):
                assert mine_top_k(db, k, max_len=3) == brute_force_top_k(db, k)
                assert mine_top_k(db, k) == brute_force_top_k(db, k, max_len=longest)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.tuples(st.integers(2, 4), st.booleans()).flatmap(
            lambda shape: st.tuples(
                st.lists(
                    st.lists(
                        st.integers(0, shape[0] - 1),
                        min_size=13 if shape[1] else 1,
                        max_size=16 if shape[1] else 5,
                    ).map(tuple),
                    max_size=6,
                ),
                # Brute force enumerates position subsets, so records longer
                # than 12 are checked up to length-3 patterns only.
                st.integers(1, 3) if shape[1] else st.one_of(st.none(), st.integers(1, 3)),
            )
        ),
        st.lists(st.integers(0, 9), max_size=40),
        st.one_of(st.integers(1, 60), st.just(2000)),
        st.sampled_from([None, 3]),
    )
    def test_matches_brute_force_under_ties(
        self, tmp_path_factory, caplog, case, picks, k, cache_lines
    ):
        # Few locations and records drawn with repetition from a small pool:
        # many patterns share a support, so the tie order decides the list.
        # Locations repeat inside records, some records are longer than 12,
        # an empty pool is an empty database, k = 2000 outnumbers every
        # pattern that occurs, and reading back with a small line cache
        # splits an entry's repeats.
        pool, max_len = case
        rows = [pool[i % len(pool)] for i in picks] if pool else []
        counts = Counter(rows)
        db = entries_db(counts, counts.values())  # one entry per distinct record
        if cache_lines is not None:
            db = load_split(rows, make_universe(4), cache_lines, tmp_path_factory.mktemp("split"))
        longest = max(map(len, rows), default=1)
        expected = brute_force_top_k(records_db(rows), k, max_len=max_len or longest)
        caplog.clear()
        with caplog.at_level("WARNING", logger="dptraj.utility"):
            assert mine_top_k(db, k, max_len) == expected
        assert ("requested top" in caplog.text) == (len(expected) < k)
        assert rows or expected == []

    def test_popped_families_are_freed(self):
        # 1,000 records, each every one of 60 locations in a random order: a
        # family (all of a pattern's extensions) is as large as the records
        # after the pattern. Holding each popped family while one of its
        # extensions waits in the heap peaked at 4.5 times the root's family
        # alone; a copy of each kept extension's run stays near it.
        rng = np.random.default_rng(0)
        n, size = 1000, 60
        tokens = np.concatenate([rng.permutation(size) for _ in range(n)])
        db = TrajectoryDb(tokens, np.arange(0, n * size + 1, size), np.ones(n, dtype=np.int64))
        peaks = []
        for k in (1, 200):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                assert len(mine_top_k(db, k)) == k
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks

    def test_duplicate_records_count_individually(self):
        db = records_db([(0, 1)] * 4 + [(1, 0)])
        top = mine_top_k(db, 3)
        supports = {p.locations: p.support for p in top}
        assert supports[(0,)] == 5
        assert supports[(1,)] == 5
        assert supports[(0, 1)] == 4

    def test_short_result_flagged(self, caplog):
        db = records_db([(0,), (0,)])
        with caplog.at_level("WARNING"):
            patterns = mine_top_k(db, 10)
        assert len(patterns) == 1
        assert "10" in caplog.text

    def test_max_len_below_one_rejected(self):
        db = records_db([(0, 1)] * 3)
        for max_len in (0, -2):
            with pytest.raises(ValueError, match="max_len"):
                mine_top_k(db, 5, max_len=max_len)

    def test_max_len_respected(self):
        db = records_db([(0, 1, 2, 3)] * 5)
        patterns = mine_top_k(db, 50, max_len=2)
        assert max(len(p.locations) for p in patterns) == 2

    def test_invalid_k(self, sample_db):
        db, _ = sample_db
        with pytest.raises(ValueError):
            mine_top_k(db, 0)

    def test_deterministic_order(self, sample_db):
        db, _ = sample_db
        assert mine_top_k(db, 15) == mine_top_k(db, 15)


class TestFspMetrics:
    @staticmethod
    def _patterns(*locs):
        return [SeqPattern(locations=tuple(l), support=1) for l in locs]

    def test_identical_sets(self):
        patterns = self._patterns((0,), (1,), (2,))
        assert fsp_metrics(patterns, patterns, 3) == (3, 0, 0)

    def test_one_swap(self):
        true = self._patterns((0,), (1,), (2,))
        sanitized = self._patterns((0,), (1,), (3,))
        assert fsp_metrics(true, sanitized, 3) == (2, 1, 1)

    def test_disjoint_sets(self):
        true = self._patterns((0,), (1,))
        sanitized = self._patterns((2,), (3,))
        assert fsp_metrics(true, sanitized, 2) == (0, 2, 2)

    def test_false_positive_equals_false_drop_for_equal_sizes(self):
        rnd = random.Random(2)
        for _ in range(30):
            size = rnd.randint(1, 12)
            universe = list(range(30))
            true = self._patterns(*[(x,) for x in rnd.sample(universe, size)])
            sanitized = self._patterns(*[(x,) for x in rnd.sample(universe, size)])
            tp, fp, fd = fsp_metrics(true, sanitized, size)
            assert fp == fd == size - tp
