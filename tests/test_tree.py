import itertools
import json
import math
import random
import tempfile
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dptraj.datagen import generate
from dptraj.params import GenConfig
from dptraj.privacy import KAPPA, PrivacyParams, RandomSource, uniforms
from dptraj.release import VARIANTS, sanitize
from dptraj import tree as tree_module
from dptraj.tree import _passing_cells, build_noisy_tree, dump_tree

from conftest import load_split, make_universe
from oracles import (
    NoThresholds,
    ZeroNoiseSource,
    assert_same_tree,
    build_exact_tree,
    children,
    db_entries,
    entries_db,
    prefixes,
    records_db,
    reference_noisy_tree,
)


def _child(tree, i, loc):
    for c in children(tree, i):
        if tree.location[c] == loc:
            return c
    raise AssertionError(f"no child with location {loc}")


def _random_db(rnd, max_records=60, universe_size=6, max_len=7):
    rows = [
        tuple(rnd.randrange(universe_size) for _ in range(rnd.randint(1, max_len)))
        for _ in range(rnd.randint(1, max_records))
    ]
    return records_db(rows), make_universe(universe_size)


@st.composite
def _build_cases(draw):
    """A database read back with a small line cache, and the parameters to build its tree with.

    Records run past the height, and repeats are split over several entries.
    Universes fall on both sides of 2 KAPPA (about 14.5) locations, below
    which the pruning threshold is 0 and half of the zero-count candidates pass.
    """
    universe_size = draw(st.integers(1, 60))
    height = draw(st.integers(1, 7))
    record = st.lists(st.integers(0, universe_size - 1), min_size=1, max_size=height + 3)
    distinct = draw(st.lists(record.map(tuple), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=40))
    rows = [distinct[i] for i in picks]
    params = PrivacyParams(
        epsilon=draw(st.sampled_from([0.5, 2.0, 20.0])),
        height=height,
    )
    seed = draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)))
    return rows, make_universe(universe_size), params, seed, draw(st.integers(1, 8))


class TestExactTree:
    def test_sample_level_one(self, sample_db):
        db, universe = sample_db
        tree = build_exact_tree(db, universe)
        counts = {
            universe.tokens[tree.location[c]]: int(tree.true_count[c])
            for c in children(tree, 0)
        }
        assert counts == {"L1": 5, "L3": 3}

    def test_sample_deep_counts(self, sample_db):
        db, universe = sample_db
        tree = build_exact_tree(db, universe)
        l1 = _child(tree, 0, universe.tokens.index("L1"))
        l1_l2 = _child(tree, l1, universe.tokens.index("L2"))
        assert tree.true_count[l1_l2] == 5
        l1_l2_l3 = _child(tree, l1_l2, universe.tokens.index("L3"))
        assert tree.true_count[l1_l2_l3] == 2

    def test_empty_db(self):
        tree = build_exact_tree(records_db(()), make_universe(3))
        assert children(tree, 0) == []
        assert len(tree) == 1

    def test_every_distinct_prefix_present(self):
        rnd = random.Random(5)
        for _ in range(10):
            db, universe = _random_db(rnd)
            tree = build_exact_tree(db, universe)
            expected = set()
            for t in db.trajectories:
                for i in range(1, len(t) + 1):
                    expected.add(t[:i])
            rows = prefixes(tree)
            assert set(rows[1:]) == expected
            # and counts match a direct scan
            for p, count in zip(rows[1:], tree.true_count[1:].tolist()):
                assert count == sum(1 for t in db.trajectories if t[: len(p)] == p)


class TestNodePrefix:
    """A row's prefix, spelled by the parent and location columns."""

    def test_depth_one(self, sample_db):
        db, universe = sample_db
        tree = build_exact_tree(db, universe)
        child = children(tree, 0)[0]
        assert prefixes(tree)[child] == (tree.location[child],)

    def test_deep_path(self, sample_db):
        db, universe = sample_db
        tree = build_exact_tree(db, universe)
        ids = [universe.tokens.index(t) for t in ("L1", "L2", "L4")]
        node = _child(tree, _child(tree, _child(tree, 0, ids[0]), ids[1]), ids[2])
        assert prefixes(tree)[node] == tuple(ids)

    def test_length_equals_depth(self):
        rnd = random.Random(17)
        db, universe = _random_db(rnd)
        params = PrivacyParams(epsilon=3.0, height=5)
        for tree in (
            build_exact_tree(db, universe),
            build_noisy_tree(db, universe, params, RandomSource(17)),
        ):
            assert [len(p) for p in prefixes(tree)] == tree.depth.tolist()


class TestNoisyTree:
    def test_zero_noise_matches_exact(self, sample_db, tmp_path):
        rnd = random.Random(31)
        cases = [sample_db]
        for _ in range(8):
            db, universe = _random_db(rnd, universe_size=4, max_len=9)
            # repeat some records so distinct rows carry multiplicities > 1
            rows = [*db.trajectories, *rnd.choices(db.trajectories, k=20)]
            counts = Counter(rows)  # one entry per distinct record
            cases.append((entries_db(counts, counts.values()), universe))
            # read back with a small line cache, repeats also split into several entries
            cases.append((load_split(rows, universe, 2, tmp_path), universe))
        assert any(len(set(db_entries(db))) < len(db.weights) for db, _ in cases)
        params = NoThresholds(epsilon=1.0, height=6)

        def signature(tree):
            return sorted(zip(prefixes(tree)[1:], tree.noisy[1:].tolist()))

        for db, universe in cases:
            noisy = build_noisy_tree(db, universe, params, ZeroNoiseSource())
            exact = build_exact_tree(db, universe, max_depth=params.height)
            assert signature(noisy) == signature(exact)
            assert (noisy.noisy[1:] == noisy.true_count[1:]).all()

    def test_kept_nodes_clear_threshold(self, sample_db):
        db, universe = sample_db
        params = PrivacyParams(epsilon=2.0, height=3)
        tree = build_noisy_tree(db, universe, params, RandomSource(13))
        assert (tree.noisy[1:] >= params.threshold(len(universe))).all()

    def test_depth_bounded_by_height(self):
        rnd = random.Random(3)
        db, universe = _random_db(rnd, max_len=9)
        params = PrivacyParams(epsilon=8.0, height=4)
        tree = build_noisy_tree(db, universe, params, RandomSource(1))
        assert tree.depth.max() <= 4

    def test_truncation_in_zero_noise_mode(self):
        db = records_db([(0, 1, 2, 3, 0, 1)])
        universe = make_universe(4)
        params = NoThresholds(epsilon=1.0, height=3)
        tree = build_noisy_tree(db, universe, params, ZeroNoiseSource())
        assert set(prefixes(tree)[1:]) == {(0,), (0, 1), (0, 1, 2)}

    def test_level_trajectory_sets_disjoint_and_nested(self):
        # In count form: each node counts exactly the records under its prefix,
        # and siblings split their parent's records without overlap.
        rnd = random.Random(23)
        db, universe = _random_db(rnd)
        params = PrivacyParams(epsilon=6.0, height=4)
        tree = build_noisy_tree(db, universe, params, RandomSource(2))
        rows = prefixes(tree)
        count = tree.true_count.tolist()
        for i, p in enumerate(rows):
            if i and not count[i]:
                continue  # empty-born
            assert count[i] == sum(1 for t in db.trajectories if t[: len(p)] == p)
            assert sum(count[c] for c in children(tree, i)) <= count[i]

    def test_only_nodes_at_expand_threshold_have_children(self):
        db = records_db([(0,)] * 50)
        universe = make_universe(30)
        params = PrivacyParams(epsilon=10.0, height=3)
        theta, theta_expand = params.threshold(30), params.expand_threshold(30)
        assert theta_expand > theta
        unexpanded = 0
        for seed in range(6):
            tree = build_noisy_tree(db, universe, params, RandomSource(seed))
            assert (tree.noisy[1:] >= theta).all()
            parents = np.flatnonzero(tree.n_children[1:]) + 1
            assert (tree.noisy[parents] >= theta_expand).all()
            unexpanded += (tree.noisy[1:] < theta_expand).sum()
        assert unexpanded  # kept nodes in [threshold, theta_expand) were left leaves

    def test_empty_born_over_expand_threshold_grow_subtrees(self):
        db = records_db([(0,)] * 50)
        universe = make_universe(30)
        params = PrivacyParams(epsilon=10.0, height=3)
        tree = build_noisy_tree(db, universe, params, RandomSource(5))
        empty_born = np.flatnonzero(tree.true_count[1:] == 0) + 1
        grown = empty_born[tree.n_children[empty_born] > 0]
        assert len(grown), "expected an empty-born node with children for this seed"
        assert (tree.noisy[grown] >= params.expand_threshold(len(universe))).all()

    def test_narrow_universe_expands_every_kept_node(self):
        # Without noise each node counts 3, over the threshold ln(|U| / (2 kappa)) < 0.4.
        # A kept node is expanded iff 3 reaches ln|U|: over 20 locations, not over 21.
        db = records_db([(0, 1, 2)] * 3)
        params = PrivacyParams(epsilon=3.0, height=3)
        for size, depth in ((20, 3), (21, 1)):
            universe = make_universe(size)
            assert params.threshold(size) < 0.4
            assert (params.expand_threshold(size) <= 3) == (size == 20)
            tree = build_noisy_tree(db, universe, params, ZeroNoiseSource())
            assert tree.depth.max() == depth and (tree.noisy[1:] == 3).all()

    def test_children_locations_distinct(self):
        rnd = random.Random(77)
        for seed in range(5):
            db, universe = _random_db(rnd)
            params = PrivacyParams(epsilon=5.0, height=3)
            tree = build_noisy_tree(db, universe, params, RandomSource(seed))
            for i in range(len(tree)):
                locations = tree.location[children(tree, i)].tolist()
                assert len(locations) == len(set(locations))

    def test_same_seed_repeats(self):
        rnd = random.Random(9)
        db, universe = _random_db(rnd, max_records=200, universe_size=12)
        params = PrivacyParams(epsilon=4.0, height=4)

        def signature(tree):
            return list(
                zip(prefixes(tree)[1:], tree.noisy[1:].tolist(), tree.true_count[1:].tolist())
            )

        one = signature(build_noisy_tree(db, universe, params, RandomSource(6)))
        two = signature(build_noisy_tree(db, universe, params, RandomSource(6)))
        other = signature(build_noisy_tree(db, universe, params, RandomSource(7)))
        assert one == two
        assert one != other

    def test_node_rows_are_plain_values(self, sample_db):
        db, universe = sample_db
        params = PrivacyParams(epsilon=1.0, height=3)
        tree = build_noisy_tree(db, universe, params, RandomSource(3))
        rows = list(tree.nodes())
        assert rows[0].parent is None
        assert [r.parent for r in rows[1:]] == tree.parent[1:].tolist()
        assert [r.depth for r in rows] == tree.depth.tolist()
        assert [r.empty_born for r in rows[1:]] == (tree.true_count[1:] == 0).tolist()
        json.dumps(rows)  # numpy scalars would not serialize

    @pytest.mark.parametrize("params_type", [NoThresholds, PrivacyParams], ids=lambda t: t.__name__)
    def test_empty_universe_gives_root_only_tree(self, params_type):
        db, universe = records_db(()), make_universe(0)
        params = params_type(epsilon=1.0, height=3)
        for variant in VARIANTS:
            release, tree = sanitize(db, universe, params, RandomSource(5), variant)
            assert len(tree) == 1 and len(release) == 0 and len(release.tokens) == 0
            assert dump_tree(tree) == ""

    def test_no_per_record_state_after_build(self, sample_db):
        db, universe = sample_db
        params = PrivacyParams(epsilon=1.0, height=3)
        tree = build_noisy_tree(db, universe, params, RandomSource(3))
        for name, value in vars(tree).items():
            if isinstance(value, np.ndarray):
                assert value.shape == (len(tree),), name
            else:
                assert name == "universe" or value is None, name

    def test_tree_keeps_nothing_of_the_input(self):
        db = records_db([(0, 1, 2), (0, 1), (2, 0), (0, 1, 2)] * 10)
        refs = [weakref.ref(db), *map(weakref.ref, (db.tokens, db.offsets, db.weights))]
        params = PrivacyParams(epsilon=5.0, height=3)
        tree = build_noisy_tree(db, make_universe(3), params, RandomSource(3))
        del db
        assert len(tree) > 1
        assert [ref() for ref in refs] == [None] * len(refs)


class _CountingSource(RandomSource):
    """Records the depth of every stream it opens."""

    def __init__(self, seed):
        super().__init__(seed)
        self.depths = []

    def stream(self, depth):
        self.depths.append(depth)
        return super().stream(depth)


class TestDrawAssignment:
    """Each depth draws from one stream, in an order fixed by the records' multiset."""

    def test_record_order_and_blocks_leave_the_tree_unchanged(self, tmp_path):
        rnd = random.Random(19)
        db, universe = _random_db(rnd, max_records=80, universe_size=8, max_len=6)
        rows = [*db.trajectories, *rnd.choices(db.trajectories, k=40)]
        shuffled = rnd.sample(rows, len(rows))
        assert shuffled != rows
        params = PrivacyParams(epsilon=2.0, height=4)
        trees = [
            build_noisy_tree(other, universe, params, RandomSource(8))
            for other in (
                records_db(rows),
                records_db(shuffled),
                load_split(shuffled, universe, 2, tmp_path),
            )
        ]
        assert (trees[0].n_children[trees[0].true_count == 0] > 0).any()
        for tree in trees[1:]:
            assert_same_tree(tree, trees[0])

    @pytest.mark.parametrize(
        "rows, height, narrow",
        [
            ([(0, 1)] * 5, 6, False),  # the frontier empties below the height
            ([(0, 1, 2, 3)] * 40 + [(1, 2)] * 40, 3, False),
            ([(0,)] * 5, 4, True),  # empty-born nodes carry the frontier past the data
        ],
    )
    def test_one_stream_per_expanded_depth(self, rows, height, narrow):
        universe = make_universe(4 if narrow else 40)
        params = PrivacyParams(epsilon=20.0, height=height)
        source = _CountingSource(7)
        tree = build_noisy_tree(records_db(rows), universe, params, source)
        expands = tree.noisy >= params.expand_threshold(len(universe))
        expanded = tree.depth[expands | (tree.depth == 0)]
        depths = min(height, int(expanded.max()) + 1)
        assert source.depths == list(range(depths))


class TestAgainstReference:
    """The array build makes the draws the one-level-at-a-time reference makes."""

    @settings(max_examples=150, deadline=None)
    @given(_build_cases())
    # An empty database: only empty-born nodes, grown to the height.
    @example(([], make_universe(5), PrivacyParams(2.0, 3), 5, 2))
    # The frontier empties below the height of 6.
    @example(([(0, 1)] * 5, make_universe(4), PrivacyParams(20.0, 6), 7, 2))
    # Height 1; a one-location universe.
    @example(([(0, 1), (1,), (2, 0)], make_universe(3), PrivacyParams(2.0, 1), 7, 2))
    @example(([(0,), (0, 0, 0), (0, 0)], make_universe(1), PrivacyParams(2.0, 3), 7, 1))
    # Every record runs past the height.
    @example(([(0, 1, 2), (1, 0, 3, 3)], make_universe(4), PrivacyParams(20.0, 2), 7, 1))
    # Kept nodes below the expand threshold stay leaves.
    @example(([(0,)] * 50, make_universe(30), PrivacyParams(10.0, 3), 0, 2))
    def test_arrays_equal_reference(self, case):
        rows, universe, params, seed, cache_lines = case
        with tempfile.TemporaryDirectory() as directory:
            db = load_split(rows, universe, cache_lines, directory)
        tree = build_noisy_tree(db, universe, params, RandomSource(seed))
        reference = reference_noisy_tree(db, universe, params, RandomSource(seed))
        assert_same_tree(tree, reference)

    @pytest.mark.parametrize("narrow", [False, True])
    def test_bearers_share_one_shuffle(self, narrow):
        # Every bearer of a depth takes its empty-born children from the depth's one cell draw.
        db, universe = _random_db(
            random.Random(13), max_records=200, universe_size=12 if narrow else 24, max_len=5
        )
        params = PrivacyParams(epsilon=8.0, height=3)
        tree = build_noisy_tree(db, universe, params, RandomSource(3))
        reference = reference_noisy_tree(db, universe, params, RandomSource(3))
        assert_same_tree(tree, reference)
        bearers = np.unique(tree.parent[1:][tree.true_count[1:] == 0])
        assert np.bincount(tree.depth[bearers]).max() > 6

    def test_wide_universe(self):
        # Location ids past the int16 range must survive the build's sort key.
        rnd = random.Random(11)
        universe = make_universe(40_000)
        distinct = [
            tuple(rnd.choice([rnd.randrange(32_768, 40_000), rnd.randrange(8)]) for _ in range(5))
            for _ in range(20)
        ]
        db = records_db(rnd.choices(distinct, k=300))
        params = PrivacyParams(epsilon=8.0, height=3)
        tree = build_noisy_tree(db, universe, params, RandomSource(5))
        assert_same_tree(tree, reference_noisy_tree(db, universe, params, RandomSource(5)))
        backed = tree.location[1:][tree.true_count[1:] > 0]
        assert backed.max() > 32_767

    def test_cells_pass_int32(self):
        # 2,100 expanded nodes over 2**20 locations make 2,100 * 2**20 cells at
        # depth 2, past 2**31: wrapped, the cells of the last 52 nodes would land
        # on the first ones.
        universe_size, n_nodes = 1 << 20, 2100
        db = records_db([(i, i + 1) for i in range(n_nodes)])
        params = PrivacyParams(epsilon=40.0, height=2)
        universe = make_universe(universe_size)
        tree = build_noisy_tree(db, universe, params, RandomSource(5))
        assert_same_tree(tree, reference_noisy_tree(db, universe, params, RandomSource(5)))
        assert (tree.n_children[1:] > 0).sum() * universe_size > 2**31
        born = (tree.true_count == 0) & (tree.depth == 2)
        assert (tree.location[tree.parent[born]] >= 2**31 // universe_size).sum() > 10


class TestPlacementLaw:
    """Each zero-count candidate passes alone with ``pass_probability``, wherever it is."""

    @staticmethod
    def _gaps_without_the_plus_one(n, p, rng):
        # The cell draw with its gaps not stepped past the cell just drawn: a
        # gap of 0 draws that cell again (or cell -1).
        at = -1 + np.cumsum(np.floor(np.log(uniforms(rng, n + 1)) / math.log1p(-p)))
        return at[at < n].astype(np.int64)

    @staticmethod
    def _at_twice_p(n, p, rng):
        return _passing_cells(n, 2 * p, rng)

    @staticmethod
    def _subset_pvalues(sample, p, trials=20_000):
        # Per n <= 6, each of the 2**n subsets of n cells is drawn as often as
        # independent Bernoulli(p) cells make it; subsets expected under 5 times
        # share a bin. A draw that is no ascending subset of range(n) has
        # probability 0, and one such draw rejects.
        rng = RandomSource(17).stream(0)
        pvalues = []
        for n in range(1, 7):
            index = {
                cells: i for i, cells in enumerate(
                    c for k in range(n + 1) for c in itertools.combinations(range(n), k)
                )
            }
            hits = np.bincount(
                [index.get(tuple(sample(n, p, rng).tolist()), -1) + 1 for _ in range(trials)],
                minlength=len(index) + 1,
            )
            if hits[0]:
                pvalues.append(0.0)
                continue
            size = np.array([len(cells) for cells in index])
            expected = trials * p**size * (1 - p) ** (n - size)
            bins = np.where(expected < 5, -1, np.arange(len(index))) + 1  # bin 0 pools the small
            observed, expected = np.bincount(bins, hits[1:]), np.bincount(bins, expected)
            pooled = expected > 0
            pvalues.append(stats.chisquare(observed[pooled], expected[pooled]).pvalue)
        return pvalues

    # The pass probability over 20 locations, where the threshold is above 0, and
    # over fewer than 2 KAPPA locations.
    PROBABILITIES = (KAPPA / 20, 0.5)

    def test_every_subset_has_its_bernoulli_probability(self):
        for p in self.PROBABILITIES:
            assert min(self._subset_pvalues(_passing_cells, p)) > 0.001 / 12, p

    def test_a_cell_draw_without_the_plus_one_or_at_twice_p_fails(self):
        for p in self.PROBABILITIES:
            assert min(self._subset_pvalues(self._gaps_without_the_plus_one, p)) < 1e-6, p
        assert min(self._subset_pvalues(self._at_twice_p, KAPPA / 20)) < 1e-6

    def _placement_pvalues(self, sample, monkeypatch):
        # Frontier at depth 2: (0,) holds location 1, (1,) nothing and (2,) location 3.
        monkeypatch.setattr(tree_module, "_passing_cells", sample)
        universe = make_universe(20)
        db = records_db([(0, 1)] * 200 + [(1,)] * 200 + [(2, 3)] * 200)
        params = PrivacyParams(epsilon=40.0, height=2)
        p = params.pass_probability(len(universe))
        taken = {(): {0, 1, 2}, (0,): {1}, (1,): set(), (2,): {3}}
        born = {prefix: [] for prefix in taken}  # per seed, the locations born under prefix
        for seed in range(800):
            tree = build_noisy_tree(db, universe, params, RandomSource(seed))
            paths = prefixes(tree)
            for prefix in taken:
                born[prefix].append([])
            for i in (np.flatnonzero(tree.true_count[1:] == 0) + 1).tolist():
                if paths[i][:-1] in born:
                    born[paths[i][:-1]][-1].append(paths[i][-1])
        pvalues = []
        for prefix, locs in born.items():
            free = sorted(set(range(len(universe))) - taken[prefix])
            assert not {loc for seed in locs for loc in seed} - set(free), prefix
            # Per node, Binomial(|free|, p) children; counts up to 3 share a bin, as do 10 and up.
            observed = np.bincount(np.clip(list(map(len, locs)), 3, 10) - 3, minlength=8)
            expected = stats.binom.pmf(np.arange(3, 11), len(free), p)
            expected[[0, -1]] = stats.binom.cdf(3, len(free), p), stats.binom.sf(9, len(free), p)
            pvalues.append(stats.chisquare(observed, expected * len(locs)).pvalue)
            # Each free location is chosen as often as any other.
            chosen = Counter(loc for seed in locs for loc in seed)
            pvalues.append(stats.chisquare([chosen[loc] for loc in free]).pvalue)
        return pvalues

    def test_empty_born_counts_and_locations(self, monkeypatch):
        assert min(self._placement_pvalues(_passing_cells, monkeypatch)) > 0.001 / 8

    def test_a_placement_at_twice_the_probability_fails(self, monkeypatch):
        assert min(self._placement_pvalues(self._at_twice_p, monkeypatch)) < 1e-6


class TestMemory:
    def test_build_holds_no_entry_matrix(self):
        # The build holds the entries under the frontier, sorted a depth at a
        # time, not a matrix of every entry's locations. On these 19,100
        # entries its peak above the database read 35 B/entry; a sorted matrix
        # of 12 int16 columns and its lexsort read 62.
        rng = np.random.default_rng(0)
        rows = [tuple(rng.integers(0, 1_000, n)) for n in rng.integers(1, 13, 20_000)]
        counts = Counter(rows)
        db = entries_db(counts, counts.values())  # one entry per distinct record
        params = PrivacyParams(epsilon=1.0, height=12)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            build_noisy_tree(db, make_universe(1_000), params, RandomSource(1))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak / (len(db.offsets) - 1) < 45


class TestSortKey:
    """A depth sorts one int64 key per entry, its cell above its id."""

    def test_key_past_63_bits_is_refused(self):
        # 2**62 cells need 62 bits and 4 entries 2 more: the key would pass int64,
        # so the step refuses before it packs anything.
        db = records_db([(0,), (1,), (0, 1), (1, 0)])
        length = np.diff(db.offsets).astype(np.uint8)
        params = PrivacyParams(epsilon=1.0, height=2)
        with pytest.raises(ValueError, match=rf"^{2**62} cells and 4 entries overflow"):
            tree_module._next_depth(
                db, [np.arange(4, dtype=np.int32)], np.full(1, 4), length, 0, 2**62, params,
                RandomSource(1).stream(0),
            )

    def test_depth_zero_holds_few_bytes_per_entry(self):
        # Depth 0 sorts every entry. Packed in one key, an entry's id, location and
        # key cost about 15 bytes at the step's peak, the ids handed in included;
        # a key sorted by argsort, with its index and a gathered copy of the ids, 24.
        db, universe = generate(GenConfig(
            n_locations=1012, n_records=50_000, avg_len=6.7, max_len=12,
            n_planted_routes=0, zipf_skew=1.0, seed=1,
        ))
        n = len(db.weights)
        length = np.minimum(np.diff(db.offsets), 12).astype(np.uint8)
        params = PrivacyParams(epsilon=1.0, height=12)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tree_module._next_depth(
                db, [np.arange(n, dtype=np.int32)], np.full(1, n), length, 0, len(universe),
                params, RandomSource(1).stream(0),
            )
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert n >= 50_000 and peak / n < 18


class TestDump:
    def test_outline_format(self, sample_db):
        db, universe = sample_db
        params = PrivacyParams(epsilon=3.0, height=2)
        tree = build_noisy_tree(db, universe, params, RandomSource(4))
        text = dump_tree(tree)
        lines = text.splitlines()
        assert lines, "dump should not be empty for this seed"
        for line in lines:
            token, value = line.split()
            assert token.lstrip() in universe.tokens
            float(value)

    def test_never_contains_true_counts(self, sample_db):
        # noisy counts are floats formatted with 2 decimals; the dump holds no
        # bare integers that could reveal exact counts
        db, universe = sample_db
        params = PrivacyParams(epsilon=3.0, height=2)
        tree = build_noisy_tree(db, universe, params, RandomSource(4))
        for line in dump_tree(tree).splitlines():
            assert "." in line.split()[-1]

    def test_empty_tree_dump(self):
        tree = build_exact_tree(records_db(()), make_universe(2))
        assert dump_tree(tree) == ""

    @pytest.mark.parametrize("narrow", [False, True])
    def test_lines_are_a_preorder_walk(self, narrow):
        rnd = random.Random(43)
        interleaved = 0
        for seed in range(6):
            db, universe = _random_db(rnd, max_records=80, universe_size=8 if narrow else 30)
            params = PrivacyParams(epsilon=3.0, height=4)
            tree = build_noisy_tree(db, universe, params, RandomSource(seed))
            order = _preorder_walk(tree)
            assert dump_tree(tree).splitlines() == [_dump_line(tree, i) for i in order]
            interleaved += order != list(range(1, len(tree)))
        assert interleaved  # some trees' level rows are not already a preorder

    def test_root_only_tree_dumps_nothing(self):
        # Without noise, one record's count of 1 is under the threshold over 1,000 locations.
        db, universe = records_db([(0, 1)]), make_universe(1000)
        params = PrivacyParams(epsilon=1.0, height=1)
        assert params.threshold(len(universe)) > 1
        tree = build_noisy_tree(db, universe, params, ZeroNoiseSource())
        assert len(tree) == 1 and _preorder_walk(tree) == []
        assert dump_tree(tree) == ""


def _preorder_walk(tree, i=0):
    """The rows below row ``i``, each followed by its subtree, children by location id."""
    return [row for c in children(tree, i) for row in (c, *_preorder_walk(tree, c))]


def _dump_line(tree, i):
    token = tree.universe.tokens[tree.location[i]]
    return f"{'  ' * (tree.depth[i] - 1)}{token} {tree.noisy[i]:.2f}"


class TestFlatten:
    """The tree's rows: level order, parents first, siblings in birth order."""

    def test_parents_precede_children(self, sample_db):
        db, universe = sample_db
        tree = build_exact_tree(db, universe)
        for idx in range(1, len(tree)):
            assert tree.parent[idx] < idx

    def test_paths_are_root_first(self, sample_db):
        db, universe = sample_db
        tree = build_exact_tree(db, universe)
        nodes = np.arange(len(tree) - 1, 0, -1)
        paths = tree.paths(nodes)
        assert paths.shape == (len(nodes), tree.depth.max())
        want = prefixes(tree)
        for node, path in zip(nodes, paths):
            depth = tree.depth[node]
            assert path[depth - 1] == node
            assert (path[depth:] == len(tree)).all()
            assert tuple(tree.location[path[:depth]]) == want[node]
        assert tree.paths(nodes[:0]).shape == (0, 1)  # always a column to sort by

    @pytest.mark.parametrize("narrow", [False, True])
    def test_builder_rows_are_in_level_order(self, narrow):
        rnd = random.Random(41)
        for seed in range(6):
            db, universe = _random_db(rnd, max_records=80, universe_size=10 if narrow else 30)
            params = PrivacyParams(epsilon=3.0, height=4)
            tree = build_noisy_tree(db, universe, params, RandomSource(seed))
            n = len(tree)
            parent = tree.parent[1:]
            assert tree.parent[0] == -1 and tree.depth[0] == 0
            assert (np.diff(tree.depth) >= 0).all()
            assert (parent < np.arange(1, n)).all()
            assert (tree.depth[1:] == tree.depth[parent] + 1).all()
            assert (tree.n_children == np.bincount(parent, minlength=n)).all()
            theta_expand = params.expand_threshold(len(universe))
            assert (tree.noisy[1:][tree.n_children[1:] > 0] >= theta_expand).all()
            # Under each parent, rows hold data-backed children in ascending location,
            # then empty-born ones: the build's order, which no output reads.
            for i in np.flatnonzero(tree.n_children):
                rows = np.flatnonzero(tree.parent == i)
                backed = tree.true_count[rows] > 0
                assert not (~backed[:-1] & backed[1:]).any()
                assert (np.diff(tree.location[rows][backed]) > 0).all()
