import itertools
import logging
import random

import numpy as np
import pytest

from dptraj import inference
from dptraj.inference import (
    _isotonic_rows,
    consistent_estimates,
    consolidate,
    order_violations,
)
from dptraj.privacy import PrivacyParams, RandomSource
from dptraj.tree import build_noisy_tree

from conftest import make_universe
from oracles import (
    array_tree,
    children,
    isotonic_fit,
    isotonic_fit_minmax,
    isotonic_upper_minmax,
    records_db,
)


def brute_force_monotone_fit(values):
    """Exhaustive minimum-L2 non-decreasing fit.

    Any optimum is constant on consecutive blocks at the block means, so
    enumerate every split into consecutive blocks, keep the feasible ones
    (non-decreasing block means), and take the cheapest. Independent of both
    production implementations.
    """
    n = len(values)
    best, best_cost = None, float("inf")
    for mask in itertools.product([0, 1], repeat=n - 1):
        blocks = [[values[0]]]
        for v, cut in zip(values[1:], mask):
            if cut:
                blocks.append([v])
            else:
                blocks[-1].append(v)
        means = [sum(b) / len(b) for b in blocks]
        if any(a > b for a, b in zip(means, means[1:])):
            continue
        fit = [m for m, b in zip(means, blocks) for _ in b]
        cost = sum((f - v) ** 2 for f, v in zip(fit, values))
        if cost < best_cost:
            best_cost, best = cost, fit
    return best


def build_manual_tree(structure, counts, universe_size=10):
    """Tree from a nested dict {loc: subtree}; counts keyed by prefix tuple."""
    nodes = []

    def grow(tree_dict, prefix):
        for loc, sub in tree_dict.items():
            nodes.append((prefix + (loc,), counts[prefix + (loc,)], 0))
            grow(sub, prefix + (loc,))

    grow(structure, ())
    return array_tree(nodes, make_universe(universe_size))


class TestIsotonicFit:
    def test_already_monotone(self):
        assert isotonic_fit([1, 2, 3]) == [1, 2, 3]

    def test_two_element_pooling(self):
        # brute force: minimize (x1-5)^2 + (x2-3)^2 subject to x1 <= x2
        assert isotonic_fit([5, 3]) == [4, 4]

    def test_three_element_case(self):
        # closed form by hand: L1 = min(3, 2, 4) = 2, L2 = 2, L3 = 4
        assert isotonic_fit([3, 1, 4]) == [2, 2, 4]

    def test_matches_minmax_form(self):
        rnd = random.Random(42)
        for _ in range(300):
            values = [rnd.uniform(-10, 10) for _ in range(rnd.randint(1, 8))]
            pava = isotonic_fit(values)
            minmax = isotonic_fit_minmax(values)
            assert pava == pytest.approx(minmax, abs=1e-9)

    def test_lower_equals_upper_form(self):
        rnd = random.Random(43)
        for _ in range(300):
            values = [rnd.uniform(-10, 10) for _ in range(rnd.randint(1, 7))]
            assert isotonic_fit_minmax(values) == pytest.approx(
                isotonic_upper_minmax(values), abs=1e-9
            )

    def test_matches_brute_force(self):
        rnd = random.Random(44)
        for _ in range(250):
            values = [rnd.uniform(-10, 10) for _ in range(rnd.randint(1, 6))]
            expected = brute_force_monotone_fit(values)
            assert isotonic_fit(values) == pytest.approx(expected, abs=1e-6)

    def test_output_non_decreasing(self):
        rnd = random.Random(45)
        for _ in range(200):
            values = [rnd.uniform(-50, 50) for _ in range(rnd.randint(1, 12))]
            fit = isotonic_fit(values)
            assert all(a <= b + 1e-12 for a, b in zip(fit, fit[1:]))

    def test_idempotent(self):
        rnd = random.Random(46)
        for _ in range(100):
            values = [rnd.uniform(-10, 10) for _ in range(rnd.randint(1, 9))]
            once = isotonic_fit(values)
            assert isotonic_fit(once) == pytest.approx(once, abs=1e-12)

    def test_vectorized_rows_match_scalar(self):
        rng = np.random.default_rng(5)
        for length in (1, 2, 3, 5, 8):
            rows = rng.uniform(-10, 10, size=(40, length))
            fits = _isotonic_rows(rows)
            for row, fit in zip(rows, fits):
                assert fit.tolist() == pytest.approx(isotonic_fit(row.tolist()), abs=1e-9)


class TestConsolidate:
    def test_chain_equals_direct_fit(self):
        # single path: 3 <- 1 <- 4 reading leaf to root
        tree = build_manual_tree(
            {0: {1: {2: {}}}}, {(0,): 4.0, (0, 1): 1.0, (0, 1, 2): 3.0}
        )
        consolidate(tree)
        # leaf-to-root sequence (3, 1, 4) fits to (2, 2, 4)
        by_depth = np.argsort(tree.depth[1:]) + 1
        assert tree.fitted[by_depth].tolist() == pytest.approx([4.0, 2.0, 2.0])

    def test_mean_across_two_paths(self):
        # node 0 lies on two root-to-leaf paths; both are already monotone
        # leaf-to-root so its two estimates are its own count twice
        tree = build_manual_tree(
            {0: {1: {}, 2: {}}},
            {(0,): 10.0, (0, 1): 4.0, (0, 2): 6.0},
        )
        consolidate(tree)
        root_child = children(tree, 0)[0]
        assert tree.fitted[root_child] == pytest.approx(10.0)
        leaves = {int(tree.location[c]): tree.fitted[c] for c in children(tree, root_child)}
        assert leaves == {1: pytest.approx(4.0), 2: pytest.approx(6.0)}

    def test_mean_of_differing_path_estimates(self):
        # paths leaf-to-root: (12, 10) -> (11, 11) and (4, 10) -> (4, 10);
        # the shared depth-1 node averages 11 and 10
        tree = build_manual_tree(
            {0: {1: {}, 2: {}}},
            {(0,): 10.0, (0, 1): 12.0, (0, 2): 4.0},
        )
        consolidate(tree)
        assert tree.fitted[children(tree, 0)[0]] == pytest.approx(10.5)

    def test_matches_per_path_enumeration_on_random_trees(self):
        rnd = random.Random(7)
        for _ in range(40):
            tree = self._random_tree(rnd)
            consolidate(tree)
            expected = self._brute_consolidate(tree)
            for i in range(1, len(tree)):
                assert tree.fitted[i] == pytest.approx(expected[i], abs=1e-9)

    def test_block_size_leaves_fitted_bit_identical(self, monkeypatch):
        rnd = random.Random(11)
        rows = [[rnd.randrange(6) for _ in range(rnd.randint(1, 4))] for _ in range(600)]
        params = PrivacyParams(epsilon=2.0, height=4)
        # Two locations no record visits: their empty-born nodes end short records.
        tree = build_noisy_tree(records_db(rows), make_universe(8), params, RandomSource(1))
        leaves = np.flatnonzero((tree.n_children == 0) & (tree.depth > 0))
        lengths, per_length = np.unique(tree.depth[leaves], return_counts=True)
        assert len(lengths) >= 3
        assert (per_length > 7 // lengths).all()  # every length spans several 7-cell blocks
        fitted = []
        for cells in (1, 7, inference._BLOCK_CELLS):
            monkeypatch.setattr(inference, "_BLOCK_CELLS", cells)
            fitted.append(consolidate(tree).fitted.tobytes())
        assert fitted[0] == fitted[1] == fitted[2]

    @staticmethod
    def _random_tree(rnd, max_nodes=30):
        nodes = []
        total = 1
        frontier = [()]
        next_loc = 0
        while frontier and total < max_nodes:
            prefix = frontier.pop(rnd.randrange(len(frontier)))
            for _ in range(rnd.randint(0, 3)):
                if total >= max_nodes:
                    break
                child = prefix + (next_loc % 10,)
                next_loc += 1
                nodes.append((child, rnd.uniform(-5, 20), 0))
                frontier.append(child)
                total += 1
        return array_tree(nodes, make_universe(10))

    @staticmethod
    def _brute_consolidate(tree):
        """Enumerate root-to-leaf paths; average each node's scalar fits, by node index."""
        sums, hits = {}, {}

        def walk(node, path):
            path = path + [node]
            if not children(tree, node):
                fit = isotonic_fit([tree.noisy[n] for n in reversed(path)])
                for value, n in zip(fit, reversed(path)):
                    sums[n] = sums.get(n, 0.0) + value
                    hits[n] = hits.get(n, 0) + 1
            for child in children(tree, node):
                walk(child, path)

        for child in children(tree, 0):
            walk(child, [])
        return {k: sums[k] / hits[k] for k in sums}


class TestConsistentEstimates:
    def test_deficit_shared_equally(self):
        tree = build_manual_tree(
            {0: {1: {}, 2: {}}},
            {(0,): 10.0, (0, 1): 6.0, (0, 2): 8.0},
        )
        flat = consolidate(tree)
        # overwrite fitted counts to isolate the top-down rule
        parent = children(tree, 0)[0]
        kids = {int(tree.location[c]): c for c in children(tree, parent)}
        tree.fitted[[parent, kids[1], kids[2]]] = [10.0, 6.0, 8.0]
        consistent_estimates(tree, flat)
        assert tree.adjusted[parent] == pytest.approx(10.0)
        assert tree.adjusted[kids[1]] == pytest.approx(4.0)
        assert tree.adjusted[kids[2]] == pytest.approx(6.0)

    def test_surplus_leaves_children_alone(self):
        tree = build_manual_tree(
            {0: {1: {}, 2: {}}},
            {(0,): 10.0, (0, 1): 3.0, (0, 2): 4.0},
        )
        flat = consolidate(tree)
        parent = children(tree, 0)[0]
        kids = {int(tree.location[c]): c for c in children(tree, parent)}
        tree.fitted[[parent, kids[1], kids[2]]] = [10.0, 3.0, 4.0]
        consistent_estimates(tree, flat)
        assert tree.adjusted[kids[1]] == pytest.approx(3.0)
        assert tree.adjusted[kids[2]] == pytest.approx(4.0)

    def test_single_depth_one_node_unchanged(self):
        tree = build_manual_tree({0: {}}, {(0,): 7.5})
        flat = consolidate(tree)
        consistent_estimates(tree, flat)
        assert tree.adjusted[children(tree, 0)[0]] == pytest.approx(7.5)

    def test_root_only_tree(self):
        tree = build_manual_tree({}, {})
        consistent_estimates(consolidate(tree))
        assert tree.adjusted.tolist() == [0.0]

    def test_requires_consolidation_first(self):
        tree = build_manual_tree({0: {}}, {(0,): 1.0})
        with pytest.raises(ValueError, match="consolidate"):
            consistent_estimates(tree)

    def test_children_sum_bounded_by_parent_on_random_trees(self):
        rnd = random.Random(31)
        for _ in range(40):
            tree = TestConsolidate._random_tree(rnd)
            flat = consolidate(tree)
            consistent_estimates(tree, flat)
            for i in np.flatnonzero(tree.n_children[1:]) + 1:
                total = sum(tree.adjusted[c] for c in children(tree, i))
                assert total <= tree.adjusted[i] + 1e-9

    def test_never_raises_counts_below_depth_one(self):
        rnd = random.Random(32)
        for _ in range(30):
            tree = TestConsolidate._random_tree(rnd)
            flat = consolidate(tree)
            consistent_estimates(tree, flat)
            deep = tree.depth > 1
            assert (tree.adjusted[deep] <= tree.fitted[deep] + 1e-12).all()

    def test_end_to_end_on_noisy_tree(self):
        rnd = random.Random(8)
        rows = [
            tuple(rnd.randrange(8) for _ in range(rnd.randint(1, 6))) for _ in range(300)
        ]
        db = records_db(rows)
        universe = make_universe(8)
        params = PrivacyParams(epsilon=2.0, height=4)
        tree = build_noisy_tree(db, universe, params, RandomSource(77))
        flat = consolidate(tree)
        consistent_estimates(tree, flat)
        assert not np.isnan(tree.fitted[1:]).any()
        assert not np.isnan(tree.adjusted[1:]).any()


class TestOrderViolations:
    def test_counts_and_logs_breaks(self, caplog):
        # An expected statistic of every run: counted, not logged as a warning.
        tree = build_manual_tree({0: {1: {}}}, {(0,): 1.0, (0, 1): 5.0})
        parent = children(tree, 0)[0]
        child = children(tree, parent)[0]
        tree.adjusted = np.zeros(len(tree))
        tree.adjusted[[parent, child]] = [1.0, 5.0]
        with caplog.at_level(logging.WARNING):
            assert order_violations(tree) == 1
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_clean_tree_reports_zero(self):
        tree = build_manual_tree({0: {1: {}}}, {(0,): 5.0, (0, 1): 1.0})
        assert tree.adjusted is None
        assert order_violations(tree) == 0  # nothing adjusted yet, so nothing counted
        parent = children(tree, 0)[0]
        child = children(tree, parent)[0]
        tree.adjusted = np.zeros(len(tree))
        tree.adjusted[[parent, child]] = [5.0, 1.0]
        assert order_violations(tree) == 0
