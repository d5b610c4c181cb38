"""Reference implementations that tests compare the library against."""

from typing import Sequence

from dptraj.model import LocationUniverse, TrajectoryDb
from dptraj.tree import PrefixTree, TreeNode


def build_exact_tree(
    db: TrajectoryDb, universe: LocationUniverse, max_depth: int | None = None
) -> PrefixTree:
    """Noise-free prefix tree: one node per distinct prefix occurring in db.

    Groups record ids one record at a time, independently of the production
    builder's sorted-row ranges, so the two can be checked against each other.
    """
    trajectories = db.trajectories
    root = TreeNode(None, 0, None)
    root.true_count = len(trajectories)
    root.noisy_count = float(len(trajectories))

    frontier = [(root, list(range(len(trajectories))))]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        next_frontier = []
        for node, ids in frontier:
            groups: dict[int, list[int]] = {}
            for i in ids:
                t = trajectories[i]
                if len(t) > depth:
                    groups.setdefault(t[depth], []).append(i)
            for loc in sorted(groups):
                child = TreeNode(loc, depth + 1, node)
                child.true_count = len(groups[loc])
                child.noisy_count = float(child.true_count)
                node.children.append(child)
                next_frontier.append((child, groups[loc]))
        frontier = next_frontier
        depth += 1
    return PrefixTree(root=root, universe=universe, params=None)


def isotonic_fit(values: Sequence[float]) -> list[float]:
    """Minimum-L2 non-decreasing fit via pool-adjacent-violators."""
    sums: list[float] = []
    counts: list[int] = []
    for v in values:
        cur_sum = float(v)
        cur_count = 1
        while sums and sums[-1] * cur_count > cur_sum * counts[-1]:  # prev mean > cur mean
            cur_sum += sums.pop()
            cur_count += counts.pop()
        sums.append(cur_sum)
        counts.append(cur_count)
    fit: list[float] = []
    for s, c in zip(sums, counts):
        fit.extend([s / c] * c)
    return fit


def isotonic_fit_minmax(values: Sequence[float]) -> list[float]:
    """Same minimizer as :func:`isotonic_fit`, via the closed min-max-mean form.

    Quadratic in the sequence length; an independent cross-check of the
    pool-adjacent-violators implementation.
    """
    n = len(values)
    prefix = [0.0]
    for v in values:
        prefix.append(prefix[-1] + float(v))

    def mean(i: int, j: int) -> float:  # inclusive 0-based [i, j]
        return (prefix[j + 1] - prefix[i]) / (j - i + 1)

    max_mean = [max(mean(i, j) for i in range(j + 1)) for j in range(n)]
    fit = [0.0] * n
    running = float("inf")
    for j in range(n - 1, -1, -1):
        running = min(running, max_mean[j])
        fit[j] = running
    return fit


def isotonic_upper_minmax(values: Sequence[float]) -> list[float]:
    """Dual max-min-mean form; equals :func:`isotonic_fit_minmax` pointwise."""
    n = len(values)
    prefix = [0.0]
    for v in values:
        prefix.append(prefix[-1] + float(v))

    def mean(i: int, j: int) -> float:
        return (prefix[j + 1] - prefix[i]) / (j - i + 1)

    min_mean = [min(mean(i, j) for j in range(i, n)) for i in range(n)]
    fit = [0.0] * n
    running = float("-inf")
    for i in range(n):
        running = max(running, min_mean[i])
        fit[i] = running
    return fit
