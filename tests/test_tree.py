import json
import random

import numpy as np
import pytest

from dptraj.model import TrajectoryDb
from dptraj.privacy import PrivacyParams, RandomSource, ZeroNoiseSource
from dptraj.tree import build_noisy_tree, dump_tree

from conftest import make_db, make_universe
from oracles import build_exact_tree, children, prefixes


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
    return make_db(rows), make_universe(universe_size)


class TestExactTree:
    def test_sample_level_one(self, sample_db):
        db, universe = sample_db
        tree = build_exact_tree(db, universe)
        counts = {
            universe.token_of(int(tree.location[c])): int(tree.true_count[c])
            for c in children(tree, 0)
        }
        assert counts == {"L1": 5, "L3": 3}

    def test_sample_deep_counts(self, sample_db):
        db, universe = sample_db
        tree = build_exact_tree(db, universe)
        l1 = _child(tree, 0, universe.id_of("L1"))
        l1_l2 = _child(tree, l1, universe.id_of("L2"))
        assert tree.true_count[l1_l2] == 5
        l1_l2_l3 = _child(tree, l1_l2, universe.id_of("L3"))
        assert tree.true_count[l1_l2_l3] == 2

    def test_empty_db(self):
        tree = build_exact_tree(TrajectoryDb(()), make_universe(3))
        assert children(tree, 0) == []
        assert len(tree) == 1

    def test_every_distinct_prefix_present(self):
        rnd = random.Random(5)
        for _ in range(10):
            db, universe = _random_db(rnd)
            tree = build_exact_tree(db, universe)
            expected = set()
            for t in db:
                for i in range(1, len(t) + 1):
                    expected.add(t[:i])
            rows = prefixes(tree)
            assert set(rows[1:]) == expected
            # and counts match a direct scan
            for p, count in zip(rows[1:], tree.true_count[1:].tolist()):
                assert count == sum(1 for t in db if t[: len(p)] == p)


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
        ids = [universe.id_of(t) for t in ("L1", "L2", "L4")]
        node = _child(tree, _child(tree, _child(tree, 0, ids[0]), ids[1]), ids[2])
        assert prefixes(tree)[node] == tuple(ids)

    def test_length_equals_depth(self):
        rnd = random.Random(17)
        db, universe = _random_db(rnd)
        params = PrivacyParams(epsilon=3.0, height=5)
        for tree in (
            build_exact_tree(db, universe),
            build_noisy_tree(db, universe, params, RandomSource(17), expand_empty=True),
        ):
            assert [len(p) for p in prefixes(tree)] == tree.depth.tolist()


class TestNoisyTree:
    def test_zero_noise_matches_exact(self, sample_db):
        rnd = random.Random(31)
        cases = [sample_db]
        for _ in range(8):
            db, universe = _random_db(rnd, universe_size=4, max_len=9)
            # repeat some records so distinct rows carry multiplicities > 1
            cases.append((make_db([*db, *rnd.choices(db.trajectories, k=20)]), universe))
        params = PrivacyParams(epsilon=1.0, height=6, theta_multiplier=0.0)

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
        assert (tree.noisy[1:] >= params.threshold).all()

    def test_depth_bounded_by_height(self):
        rnd = random.Random(3)
        db, universe = _random_db(rnd, max_len=9)
        params = PrivacyParams(epsilon=8.0, height=4)
        tree = build_noisy_tree(db, universe, params, RandomSource(1))
        assert tree.depth.max() <= 4

    def test_truncation_in_zero_noise_mode(self):
        db = make_db([(0, 1, 2, 3, 0, 1)])
        universe = make_universe(4)
        params = PrivacyParams(epsilon=1.0, height=3, theta_multiplier=0.0)
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
            assert count[i] == sum(1 for t in db if t[: len(p)] == p)
            assert sum(count[c] for c in children(tree, i)) <= count[i]

    def test_empty_born_are_leaves_by_default(self):
        db = make_db([(0,)] * 50)
        universe = make_universe(30)
        params = PrivacyParams(epsilon=10.0, height=3)
        # plenty of empty candidates over 3 levels; some seed spawns a few
        tree = build_noisy_tree(db, universe, params, RandomSource(0))
        empty_nodes = np.flatnonzero(tree.true_count[1:] == 0) + 1
        assert len(empty_nodes), "expected at least one empty-born node for this seed"
        for i in empty_nodes:
            assert children(tree, i) == []
            assert tree.noisy[i] >= params.threshold

    def test_expand_empty_grows_their_subtrees(self):
        db = make_db([(0,)] * 50)
        universe = make_universe(30)
        params = PrivacyParams(epsilon=10.0, height=3)
        base = build_noisy_tree(db, universe, params, RandomSource(0))
        expanded = build_noisy_tree(
            db, universe, params, RandomSource(0), expand_empty=True
        )
        def empty_child_count(tree):
            return tree.n_children[1:][tree.true_count[1:] == 0].sum()

        assert empty_child_count(base) == 0
        assert empty_child_count(expanded) > 0

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
        tree = build_noisy_tree(db, universe, params, RandomSource(3), expand_empty=True)
        rows = list(tree.nodes())
        assert rows[0].parent is None
        assert [r.parent for r in rows[1:]] == tree.parent[1:].tolist()
        assert [r.depth for r in rows] == tree.depth.tolist()
        assert [r.empty_born for r in rows[1:]] == (tree.true_count[1:] == 0).tolist()
        json.dumps(rows)  # numpy scalars would not serialize

    def test_no_per_record_state_after_build(self, sample_db):
        db, universe = sample_db
        params = PrivacyParams(epsilon=1.0, height=3)
        tree = build_noisy_tree(db, universe, params, RandomSource(3), expand_empty=True)
        for name, value in vars(tree).items():
            if isinstance(value, np.ndarray):
                assert value.shape == (len(tree),), name
            else:
                assert name == "universe" or value is None, name


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
        tree = build_exact_tree(TrajectoryDb(()), make_universe(2))
        assert dump_tree(tree) == ""


class TestFlatten:
    """The tree's rows: preorder, parents first, last-born sibling first."""

    def test_parents_precede_children(self, sample_db):
        db, universe = sample_db
        tree = build_exact_tree(db, universe)
        for idx in range(1, len(tree)):
            assert tree.parent[idx] < idx

    def test_postorder_visits_children_first(self, sample_db):
        db, universe = sample_db
        tree = build_exact_tree(db, universe)
        seen = set()
        for idx in range(len(tree) - 1, -1, -1):
            for child in children(tree, idx):
                assert child in seen
            seen.add(idx)

    @pytest.mark.parametrize("expand_empty", [False, True])
    def test_builder_rows_are_a_preorder(self, expand_empty):
        rnd = random.Random(41)
        for seed in range(6):
            db, universe = _random_db(rnd, max_records=80, universe_size=10)
            params = PrivacyParams(epsilon=3.0, height=4)
            tree = build_noisy_tree(
                db, universe, params, RandomSource(seed), expand_empty=expand_empty
            )
            n = len(tree)
            rows = np.arange(1, n)
            parent = tree.parent[1:]
            assert tree.parent[0] == -1 and tree.depth[0] == 0
            assert (parent < rows).all()
            assert (tree.depth[1:] == tree.depth[parent] + 1).all()
            assert (tree.n_children == np.bincount(parent, minlength=n)).all()
            if not expand_empty:
                assert (tree.n_children[1:][tree.true_count[1:] == 0] == 0).all()
            # preorder: each row's parent is the previous row or one of its ancestors
            for i in range(1, n):
                up = i - 1
                while up != tree.parent[i]:
                    assert up > 0, f"row {i} is not in its parent's subtree"
                    up = tree.parent[up]
