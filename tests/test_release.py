import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptraj.inference import consistent_estimates, consolidate
from dptraj.model import release_stats
from dptraj.privacy import PrivacyParams, RandomSource
from dptraj.release import VARIANTS, generate_release, release_tree, sanitize
from dptraj.tree import build_noisy_tree, dump_tree

from conftest import make_universe
from oracles import (
    NoThresholds,
    ZeroNoiseSource,
    array_tree,
    assert_same_arrays,
    children,
    prefixes,
    records_db,
    reference_release,
)


def manual_tree(counts, universe_size=10):
    """Tree from {prefix tuple: noisy count}; parents must be listed too."""
    nodes = [(prefix, counts[prefix], 0) for prefix in sorted(counts, key=len)]
    return array_tree(nodes, make_universe(universe_size))


class TestGenerateRelease:
    def test_leaf_rounds_down(self):
        tree = manual_tree({(0,): 3.4})
        release = generate_release(tree, use_inference=False)
        assert release.trajectories == ((0,),) * 3

    def test_node_minus_children(self):
        tree = manual_tree({(0,): 10.0, (0, 1): 4.0, (0, 2): 3.0})
        release = generate_release(tree, use_inference=False)
        counts = Counter(release.trajectories)
        assert counts[(0,)] == 3
        assert counts[(0, 1)] == 4
        assert counts[(0, 2)] == 3

    def test_negative_differences_clamp_to_zero(self):
        tree = manual_tree({(0,): 2.0, (0, 1): 5.0})
        release = generate_release(tree, use_inference=False)
        counts = Counter(release.trajectories)
        assert counts[(0,)] == 0
        assert counts[(0, 1)] == 5

    def test_half_counts_round_to_even(self):
        assert generate_release(manual_tree({(0,): 2.5}), False).trajectories == ((0,),) * 2
        assert generate_release(manual_tree({(0,): 3.5}), False).trajectories == ((0,),) * 4

    def test_lexicographic_output_order(self):
        tree = manual_tree({(2,): 1.0, (0,): 5.0, (0, 1): 2.0})
        release = generate_release(tree, use_inference=False)
        # 0 before its subtree, then sibling 2, though 2's row comes first
        assert release.trajectories == ((0,),) * 3 + ((0, 1),) * 2 + ((2,),)
        # Three levels under two depth-1 subtrees, whose rows interleave by depth.
        tree = manual_tree({(2,): 5.0, (0,): 4.0, (2, 3): 3.0, (0, 1): 2.0, (0, 1, 4): 1.0})
        release = generate_release(tree, use_inference=False)
        assert release.trajectories == (
            ((0,),) * 2 + ((0, 1),) + ((0, 1, 4),) + ((2,),) * 2 + ((2, 3),) * 3
        )

    def test_inference_counts_require_inference_passes(self):
        tree = manual_tree({(0,): 1.0})
        with pytest.raises(ValueError):
            generate_release(tree, use_inference=True)

    def test_zero_noise_identity_random_dbs(self):
        rnd = random.Random(1)
        for _ in range(25):
            universe_size = rnd.randint(2, 10)
            rows = [
                tuple(rnd.randrange(universe_size) for _ in range(rnd.randint(1, 6)))
                for _ in range(rnd.randint(1, 120))
            ]
            db = records_db(rows)
            universe = make_universe(universe_size)
            params = NoThresholds(epsilon=1.0, height=6)
            for variant in ("basic", "full"):
                release, _ = sanitize(db, universe, params, ZeroNoiseSource(), variant)
                assert Counter(release.trajectories) == Counter(db.trajectories)

    def test_zero_noise_truncates_to_height(self):
        db = records_db([(0, 1, 2, 3), (0, 1)])
        universe = make_universe(4)
        params = NoThresholds(epsilon=1.0, height=2)
        release, _ = sanitize(db, universe, params, ZeroNoiseSource(), "basic")
        assert Counter(release.trajectories) == Counter([(0, 1), (0, 1)])

    def test_no_release_longer_than_height(self):
        rnd = random.Random(4)
        rows = [
            tuple(rnd.randrange(5) for _ in range(rnd.randint(1, 9))) for _ in range(200)
        ]
        db = records_db(rows)
        universe = make_universe(5)
        params = PrivacyParams(epsilon=5.0, height=3)
        release, _ = sanitize(db, universe, params, RandomSource(5), "full")
        assert all(len(t) <= 3 for t in release.trajectories)

    def test_multiplicity_conservation(self):
        rnd = random.Random(6)
        rows = [
            tuple(rnd.randrange(6) for _ in range(rnd.randint(1, 5))) for _ in range(150)
        ]
        db = records_db(rows)
        universe = make_universe(6)
        params = PrivacyParams(epsilon=3.0, height=3)
        tree = build_noisy_tree(db, universe, params, RandomSource(9))
        flat = consolidate(tree)
        consistent_estimates(tree, flat)
        for use_inference in (False, True):
            release = generate_release(tree, use_inference)
            counts = tree.adjusted if use_inference else tree.noisy
            expected = 0
            for i in range(1, len(tree)):
                child_sum = sum(counts[c] for c in children(tree, i))
                expected += max(0, int(np.rint(counts[i] - child_sum)))
            assert len(release) == expected

    def test_variants_share_one_tree(self):
        rnd = random.Random(10)
        rows = [
            tuple(rnd.randrange(6) for _ in range(rnd.randint(1, 5))) for _ in range(100)
        ]
        db = records_db(rows)
        universe = make_universe(6)
        params = PrivacyParams(epsilon=2.0, height=3)
        _, tree_a = sanitize(db, universe, params, RandomSource(12), "basic")
        _, tree_b = sanitize(db, universe, params, RandomSource(12), "full")
        assert np.array_equal(tree_a.parent, tree_b.parent)
        assert np.array_equal(tree_a.location, tree_b.location)
        assert np.array_equal(tree_a.noisy, tree_b.noisy, equal_nan=True)

    def test_unknown_variant_rejected(self):
        db = records_db([(0, 1)])
        with pytest.raises(ValueError, match="variant must be one of"):
            sanitize(db, make_universe(2), PrivacyParams(epsilon=1.0, height=2),
                     RandomSource(0), variant="bogus")

    def test_release_tree_is_sanitize_after_the_build(self):
        rnd = random.Random(13)
        rows = [
            tuple(rnd.randrange(6) for _ in range(rnd.randint(1, 5))) for _ in range(200)
        ]
        db = records_db(rows)
        universe = make_universe(6)
        params = PrivacyParams(epsilon=2.0, height=4)
        for variant in VARIANTS:
            release, tree = sanitize(db, universe, params, RandomSource(14), variant)
            built = build_noisy_tree(db, universe, params, RandomSource(14))
            assert built.fitted is None and built.adjusted is None
            assert_same_arrays(release_tree(built, use_inference=(variant == "full")), release)
            assert (built.adjusted is None) == (variant == "basic")
            if variant == "full":
                assert np.array_equal(built.adjusted, tree.adjusted)


class TestRowOrderIsPrivate:
    def test_relabelled_rows_write_the_same_bytes(self):
        # Rows follow the build, which puts data-backed siblings first. Relabelled
        # by a random permutation within each depth, a tree writes the same outputs.
        rnd = random.Random(17)
        moved = 0
        for seed in range(20):
            rows = [
                tuple(rnd.randrange(20) for _ in range(rnd.randint(1, 5)))
                for _ in range(rnd.randint(1, 150))
            ]
            params = PrivacyParams(epsilon=2.0, height=4)
            tree = build_noisy_tree(records_db(rows), make_universe(20), params, RandomSource(seed))
            listed = list(zip(prefixes(tree), tree.noisy.tolist(), tree.true_count.tolist()))
            rnd.shuffle(listed)
            relabelled = array_tree(listed, tree.universe)
            moved += not np.array_equal(relabelled.location, tree.location)
            # The noisy counts: inference sums in leaf order, which could move a last bit.
            assert_same_arrays(generate_release(relabelled, False), generate_release(tree, False))
            assert dump_tree(relabelled) == dump_tree(tree)
        assert moved > 10


@st.composite
def _release_trees(draw):
    """A noisy tree of a random small database, or a root-only tree.

    Universes fall on both sides of 2 KAPPA (about 14.5) locations, below
    which the pruning threshold is 0 and half of the zero-count candidates pass.
    """
    universe = make_universe(draw(st.integers(1, 30)))
    if draw(st.integers(0, 9)) == 0:
        return array_tree((), universe)
    height = draw(st.integers(1, 6))
    record = st.lists(st.integers(0, len(universe) - 1), min_size=1, max_size=height + 2)
    db = records_db(draw(st.lists(record, max_size=30)))
    params = PrivacyParams(
        epsilon=draw(st.sampled_from([0.5, 2.0, 20.0])),
        height=height,
    )
    source = RandomSource(draw(st.integers(0, 2**32 - 1)))
    return build_noisy_tree(db, universe, params, source)


class TestReleaseOracle:
    @settings(max_examples=120, deadline=None)
    @given(_release_trees())
    def test_matches_prefix_dict_release(self, tree):
        consistent_estimates(consolidate(tree))
        for use_inference in (False, True):
            release = generate_release(tree, use_inference)
            reference = reference_release(tree, use_inference)
            assert_same_arrays(release, reference)


class TestReleaseStats:
    def test_sample_histogram(self, sample_db):
        db, _ = sample_db
        stats = release_stats(db)
        assert stats.records == 8
        assert stats.length_histogram == {2: 3, 3: 4, 4: 1}
        assert stats.distinct_locations == 4

    def test_empty_db(self):
        stats = release_stats(records_db(()))
        assert stats.records == 0
        assert stats.length_histogram == {}
        assert stats.distinct_locations == 0

    def test_histogram_sums_to_record_count(self):
        rnd = random.Random(3)
        rows = [
            tuple(rnd.randrange(4) for _ in range(rnd.randint(1, 7))) for _ in range(90)
        ]
        stats = release_stats(records_db(rows))
        assert sum(stats.length_histogram.values()) == stats.records == 90
