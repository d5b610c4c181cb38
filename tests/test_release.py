import random
from collections import Counter

import numpy as np
import pytest

from dptraj.inference import consistent_estimates, consolidate
from dptraj.model import TrajectoryDb
from dptraj.pipeline import sanitize
from dptraj.privacy import PrivacyParams, RandomSource, ZeroNoiseSource
from dptraj.release import generate_release, release_stats
from dptraj.tree import build_noisy_tree

from conftest import make_db, make_universe
from oracles import array_tree, children


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

    def test_postorder_output_order(self):
        tree = manual_tree({(0,): 5.0, (0, 1): 2.0, (2,): 1.0})
        release = generate_release(tree, use_inference=False)
        # subtree of 0 first (its deepest nodes first), then sibling 2
        assert release.trajectories == ((0, 1), (0, 1), (0,), (0,), (0,), (2,))

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
            db = make_db(rows)
            universe = make_universe(universe_size)
            params = PrivacyParams(epsilon=1.0, height=6, theta_multiplier=0.0)
            for variant in ("basic", "full"):
                release, _ = sanitize(db, universe, params, ZeroNoiseSource(), variant)
                assert Counter(release.trajectories) == Counter(db.trajectories)

    def test_zero_noise_truncates_to_height(self):
        db = make_db([(0, 1, 2, 3), (0, 1)])
        universe = make_universe(4)
        params = PrivacyParams(epsilon=1.0, height=2, theta_multiplier=0.0)
        release, _ = sanitize(db, universe, params, ZeroNoiseSource(), "basic")
        assert Counter(release.trajectories) == Counter([(0, 1), (0, 1)])

    def test_no_release_longer_than_height(self):
        rnd = random.Random(4)
        rows = [
            tuple(rnd.randrange(5) for _ in range(rnd.randint(1, 9))) for _ in range(200)
        ]
        db = make_db(rows)
        universe = make_universe(5)
        params = PrivacyParams(epsilon=5.0, height=3)
        release, _ = sanitize(db, universe, params, RandomSource(5), "full")
        assert all(len(t) <= 3 for t in release)

    def test_multiplicity_conservation(self):
        rnd = random.Random(6)
        rows = [
            tuple(rnd.randrange(6) for _ in range(rnd.randint(1, 5))) for _ in range(150)
        ]
        db = make_db(rows)
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
        db = make_db(rows)
        universe = make_universe(6)
        params = PrivacyParams(epsilon=2.0, height=3)
        _, tree_a = sanitize(db, universe, params, RandomSource(12), "basic")
        _, tree_b = sanitize(db, universe, params, RandomSource(12), "full")
        assert np.array_equal(tree_a.parent, tree_b.parent)
        assert np.array_equal(tree_a.location, tree_b.location)
        assert np.array_equal(tree_a.noisy, tree_b.noisy, equal_nan=True)


class TestReleaseStats:
    def test_sample_histogram(self, sample_db):
        db, _ = sample_db
        stats = release_stats(db)
        assert stats.records == 8
        assert stats.length_histogram == {2: 3, 3: 4, 4: 1}
        assert stats.distinct_locations == 4

    def test_empty_db(self):
        stats = release_stats(TrajectoryDb(()))
        assert stats.records == 0
        assert stats.length_histogram == {}
        assert stats.distinct_locations == 0

    def test_histogram_sums_to_record_count(self):
        rnd = random.Random(3)
        rows = [
            tuple(rnd.randrange(4) for _ in range(rnd.randint(1, 7))) for _ in range(90)
        ]
        stats = release_stats(make_db(rows))
        assert sum(stats.length_histogram.values()) == stats.records == 90
