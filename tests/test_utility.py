import itertools
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dptraj import utility
from dptraj.model import TrajectoryDb
from dptraj.utility import (
    PresenceIndex,
    QueryWorkload,
    SeqPattern,
    eval_count_query,
    evaluate_workload,
    fsp_metrics,
    generate_workload,
    mine_top_k,
    relative_error,
)

from conftest import load_split, make_universe
from oracles import brute_force_top_k, entries_db, records_db


def packed(queries):
    """A sequence of query sets as ``PresenceIndex.counts`` takes it: sizes, then locations."""
    sizes = np.array([len(q) for q in queries], dtype=np.intp)
    return sizes, np.array([loc for q in queries for loc in q], dtype=np.intp)


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
            assert index.counts(*packed(queries)).tolist() == expected
            assert [index.count(q) for q in queries] == expected

    def test_index_holds_no_per_location_rows(self):
        # One visit per entry: the index is a few arrays of one number per
        # visit or location, where a bit row per location would be 2 MiB.
        size = 4096
        index = PresenceIndex(records_db([(i,) for i in range(size)]), size)
        held = sum(v.nbytes for v in vars(index).values() if isinstance(v, np.ndarray))
        assert held < 256 * 1024

    def test_index_build_holds_little_more_than_it_keeps(self):
        # The keys are made, sorted and cut to one per visit in a single array,
        # a block at a time. With the entry ids and the cut keys as arrays of
        # their own, the build peaked at 2.3 times what it kept.
        rng = np.random.default_rng(3)
        lengths = rng.integers(1, 13, 40_000)
        tokens = rng.integers(0, 1000, lengths.sum())
        db = TrajectoryDb(tokens, np.concatenate(([0], np.cumsum(lengths))), np.ones(40_000))
        PresenceIndex(db, 1000)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            index = PresenceIndex(db, 1000)
            kept, peak = (m - start for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert kept >= index._keys.nbytes
        assert peak <= 1.5 * kept, (peak, kept)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_index_does_not_depend_on_the_block(self, block):
        rnd = random.Random(block)
        rows = [tuple(rnd.choices(range(9), k=rnd.randint(1, 7))) for _ in range(200)]
        db = records_db(rows)
        queries = [frozenset(rnd.sample(range(9), rnd.randint(1, 3))) for _ in range(40)]
        with mock.patch.object(utility, "_BLOCK", block):
            index = PresenceIndex(db, 9)
        assert np.array_equal(index._keys, PresenceIndex(db, 9)._keys)
        expected = [eval_count_query(db, q) for q in queries]
        assert index.counts(*packed(queries)).tolist() == expected

    def test_index_rejects_ids_outside_universe(self):
        with pytest.raises(ValueError, match="outside universe of size 3"):
            PresenceIndex(records_db([(0, 5)]), 3)

    @pytest.mark.parametrize("location", [-1, 3])
    def test_batch_names_a_query_location_outside_universe(self, location):
        index = PresenceIndex(records_db([(0, 1), (2,)]), 3)
        queries = [frozenset({0}), frozenset({location, 2})]
        with pytest.raises(ValueError, match=f"query location {location} outside universe of size 3"):
            index.counts(*packed(queries))

    def test_batch_rejects_an_empty_query(self, sample_db):
        db, _ = sample_db
        with pytest.raises(ValueError, match="at least one location"):
            PresenceIndex(db, 4).counts(*packed([frozenset({0}), frozenset()]))


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
        for max_len, sizes, queries in zip(
            workload.max_lengths, workload.sizes, workload.subsets
        ):
            # A query's locations are distinct, so its set is as long as its size.
            assert [len(q) for q in queries] == sizes.tolist()
            for q in queries:
                assert 1 <= len(q) <= max_len and q <= set(range(40))

    def test_deterministic(self):
        universe = make_universe(30)
        a = generate_workload(universe, 12, 50, seed=9)
        b = generate_workload(universe, 12, 50, seed=9)
        assert a.max_lengths == b.max_lengths
        for x, y in zip(a.sizes + a.locations, b.sizes + b.locations, strict=True):
            assert np.array_equal(x, y)
        c = generate_workload(universe, 12, 50, seed=10)
        assert not all(np.array_equal(x, y) for x, y in zip(a.locations, c.locations))

    @pytest.mark.parametrize("seed", [5, 6])
    def test_lengths_and_sets_are_uniform(self, seed):
        # Over 6 locations: in each subset every length is equally likely, and
        # for each length L every L-subset of the universe is.
        workload = generate_workload(make_universe(6), height=8, per_subset=12_000, seed=seed)
        assert workload.max_lengths == (2, 4, 6, 6)
        for max_len, sizes, queries in zip(
            workload.max_lengths, workload.sizes, workload.subsets
        ):
            lengths = np.bincount(sizes, minlength=max_len + 1)[1:]
            assert len(lengths) == max_len
            assert stats.chisquare(lengths).pvalue > 1e-3
            by_length = Counter(queries)
            for length in range(1, max_len + 1):
                sets = [frozenset(c) for c in itertools.combinations(range(6), length)]
                observed = [by_length[s] for s in sets]
                assert sum(observed) == lengths[length - 1]
                if len(sets) > 1:
                    assert stats.chisquare(observed).pvalue > 1e-3

    def test_queries_can_take_every_location(self):
        # Every subset's lengths are capped at |U|, so the longest queries are the universe.
        workload = generate_workload(make_universe(5), height=48, per_subset=200, seed=4)
        assert workload.max_lengths == (5, 5, 5, 5)
        for sizes, queries in zip(workload.sizes, workload.subsets):
            assert sizes.max() == 5
            assert all(q == set(range(5)) for q, n in zip(queries, sizes.tolist()) if n == 5)
        one = generate_workload(make_universe(1), height=4, per_subset=3, seed=4)
        assert one.subsets == ((frozenset({0}),) * 3,) * 4

    def test_too_small_height_rejected(self):
        with pytest.raises(ValueError):
            generate_workload(make_universe(10), height=3, per_subset=5, seed=0)

    def test_negative_seed_rejected(self):
        # random.Random would draw the same workload for -s and s.
        with pytest.raises(ValueError, match="seed must be >= 0"):
            generate_workload(make_universe(10), height=12, per_subset=5, seed=-3)

    def test_draws_come_from_python_random(self):
        # The first subset's lengths are the first words of random.Random(seed),
        # each mapped into [0, max_len) by Lemire's method, plus one.
        workload = generate_workload(make_universe(50), height=12, per_subset=6, seed=21)
        words = np.frombuffer(random.Random(21).randbytes(24), dtype="<u4").astype(np.uint64)
        assert ((3 * words) % 2**32 >= 2**32 % 3).all()  # none of these six words is rejected
        assert workload.sizes[0].tolist() == ((words * 3 >> 32) + 1).tolist()

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

    def test_evaluation_builds_no_query_sets(self):
        # Answered from the workload's arrays: neither the frozenset view nor
        # the one-query path runs, and the averages equal record scans'.
        rnd = random.Random(8)
        raw = records_db([tuple(rnd.sample(range(9), rnd.randint(1, 6))) for _ in range(300)])
        sanitized = records_db([tuple(rnd.sample(range(9), rnd.randint(1, 6))) for _ in range(200)])
        universe = make_universe(9)
        sanity = utility.DEFAULT_SANITY_FRACTION * len(raw)
        expected = [
            np.mean([
                relative_error(eval_count_query(raw, q), eval_count_query(sanitized, q), sanity)
                for q in queries
            ])
            for queries in generate_workload(universe, 12, 80, seed=2).subsets
        ]
        workload = generate_workload(universe, 12, 80, seed=2)

        def refuse(*_):
            raise AssertionError("evaluation built a query set")

        with mock.patch.object(QueryWorkload, "subsets", property(refuse)), \
                mock.patch.object(PresenceIndex, "count", refuse):
            averages = evaluate_workload(raw, sanitized, workload, len(universe))
        assert averages == pytest.approx(expected, rel=1e-12)
        assert min(averages) > 0


class _CountingRandom(random.Random):
    """``random.Random`` that counts the bytes drawn through ``randbytes``."""

    drawn = 0

    def randbytes(self, n):
        self.drawn += n
        return super().randbytes(n)


class TestBoundedDraws:
    def test_uniform_where_a_quarter_of_the_words_are_rejected(self):
        # At b = 3 * 2**30, x * b >> 32 is floor(3x / 4): without rejection a
        # multiple of 3 comes from two words and every other value from one.
        # Lemire's method rejects the words with x % 4 == 0, a quarter of them.
        bound, n = 3 * 2**30, 30_000
        rng = _CountingRandom(5)
        drawn = utility._below(rng, np.full(n, bound))
        assert drawn.min() >= 0 and drawn.max() < bound
        assert stats.chisquare(np.bincount(drawn % 3, minlength=3)).pvalue > 1e-3
        assert stats.chisquare(np.bincount(drawn >> 28, minlength=12)).pvalue > 1e-3
        assert rng.drawn / 4 / n == pytest.approx(4 / 3, abs=0.03)

    def test_edge_bounds(self):
        words = np.frombuffer(random.Random(2).randbytes(40), dtype="<u4")
        # At 2**32 no word is rejected and each maps to itself.
        assert utility._below(random.Random(2), np.full(10, 2**32)).tolist() == words.tolist()
        assert utility._below(random.Random(2), np.ones(10, dtype=np.int64)).tolist() == [0] * 10
        bounds = np.array([1, 2, 5, 1012, 2**31 + 1, 2**32])
        for seed in range(50):
            assert (utility._below(random.Random(seed), bounds) < bounds).all()
        assert len(utility._below(random.Random(2), np.array([], dtype=np.int64))) == 0


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

    def test_root_step_holds_about_one_key_per_token(self):
        # The top one pattern runs only the root step. Its keys, one per token,
        # are cut to one per visit, and only the best location is projected:
        # with every location's projection and its sort arrays at once, the
        # step held about 40 B per token of this database.
        rng = np.random.default_rng(4)
        lengths = rng.integers(1, 13, 75_000)
        tokens = rng.integers(0, 1000, lengths.sum())
        db = TrajectoryDb(tokens, np.concatenate(([0], np.cumsum(lengths))), np.ones(75_000))
        mine_top_k(db, 1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            mine_top_k(db, 1)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 16 * len(tokens), peak / len(tokens)

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    def test_patterns_do_not_depend_on_the_block(self, block):
        # Blocks split the keys, the visits and the projections; the result
        # is the same at any block size.
        rnd = random.Random(block)
        db = records_db(
            [tuple(rnd.choices(range(8), k=rnd.randint(1, 9))) for _ in range(150)]
            + [(0, 1, 2, 3)] * 20
        )
        expected = mine_top_k(db, 60)
        with mock.patch.object(utility, "_BLOCK", block):
            assert mine_top_k(db, 60) == expected
        assert expected == brute_force_top_k(db, 60, max_len=9)[:60]

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
