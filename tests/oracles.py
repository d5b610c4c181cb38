"""Reference implementations that tests compare the library against."""

from typing import Iterable, Sequence

import numpy as np

from dptraj.model import LocationUniverse, TrajectoryDb
from dptraj.privacy import RandomSource
from dptraj.tree import PrefixTree


class _ZeroNoiseStream:
    """Stands in for a Generator; forces Laplace noise to 0 and spawns no empty nodes."""

    def random(self, size=None):
        if size is None:
            return 0.5
        return np.full(size, 0.5)

    def binomial(self, n: int, p: float) -> int:
        return 0


class ZeroNoiseSource(RandomSource):
    """Degenerate source for end-to-end identity checks of the pipeline."""

    def __init__(self):
        super().__init__(0)

    def stream(self, *key: int) -> _ZeroNoiseStream:  # type: ignore[override]
        return _ZeroNoiseStream()


def array_tree(
    nodes: Iterable[tuple[tuple[int, ...], float, int]],
    universe: LocationUniverse,
) -> PrefixTree:
    """Array tree from ``(prefix, noisy count, true count)`` triples.

    A prefix's parent prefix must come earlier in ``nodes``; siblings are born
    in the order listed. The empty prefix, if given, sets the root's counts.
    Rows are laid out as the builder lays them out: preorder, last-born
    sibling first.
    """
    counts = {(): (float("nan"), 0)}
    children: dict[tuple[int, ...], list[tuple[int, ...]]] = {(): []}
    for prefix, noisy, true in nodes:
        counts[prefix] = (float(noisy), true)
        if prefix:
            children[prefix[:-1]].append(prefix)
            children[prefix] = []
    parent, location, depth, noisy_col, true_col = [], [], [], [], []
    stack = [(-1, ())]
    while stack:
        up, prefix = stack.pop()
        index = len(parent)
        parent.append(up)
        location.append(prefix[-1] if prefix else -1)
        depth.append(len(prefix))
        noisy_col.append(counts[prefix][0])
        true_col.append(counts[prefix][1])
        stack += [(index, child) for child in children[prefix]]
    parents = np.array(parent, dtype=np.int64)
    return PrefixTree(
        parent=parents,
        location=np.array(location, dtype=np.int64),
        depth=np.array(depth, dtype=np.int64),
        noisy=np.array(noisy_col, dtype=np.float64),
        true_count=np.array(true_col, dtype=np.int64),
        n_children=np.bincount(parents[1:], minlength=len(parents)),
        universe=universe,
    )


def prefixes(tree: PrefixTree) -> list[tuple[int, ...]]:
    """The root path of every row, indexed by row; the root's is ``()``.

    Rows list parents first, so each prefix extends one already built.
    """
    paths: list[tuple[int, ...]] = [()]
    for up, loc in zip(tree.parent[1:].tolist(), tree.location[1:].tolist()):
        paths.append(paths[up] + (loc,))
    return paths


def children(tree: PrefixTree, i: int) -> list[int]:
    """Rows whose parent is row ``i``, in birth order (rows hold them last-born first)."""
    return np.flatnonzero(tree.parent == i)[::-1].tolist()


def build_exact_tree(
    db: TrajectoryDb, universe: LocationUniverse, max_depth: int | None = None
) -> PrefixTree:
    """Noise-free prefix tree: one node per distinct prefix occurring in db.

    Groups record ids one record at a time, independently of the production
    builder's sorted-row ranges, so the two can be checked against each other.
    """
    trajectories = db.trajectories
    nodes = [((), len(trajectories), len(trajectories))]
    frontier = [((), list(range(len(trajectories))))]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        next_frontier = []
        for prefix, ids in frontier:
            groups: dict[int, list[int]] = {}
            for i in ids:
                t = trajectories[i]
                if len(t) > depth:
                    groups.setdefault(t[depth], []).append(i)
            for loc in sorted(groups):
                child = prefix + (loc,)
                nodes.append((child, len(groups[loc]), len(groups[loc])))
                next_frontier.append((child, groups[loc]))
        frontier = next_frontier
        depth += 1
    return array_tree(nodes, universe)


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
