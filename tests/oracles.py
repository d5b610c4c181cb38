"""Reference implementations that tests compare the library against."""

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, combinations
from typing import Iterable, Sequence

import numpy as np

from dptraj.model import LocationUniverse, TrajectoryDb
from dptraj.privacy import (
    PrivacyParams,
    RandomSource,
    laplace_noise,
    sample_passing_noisy_count,
    uniforms,
)
from dptraj.tree import PrefixTree
from dptraj.utility import SeqPattern


class _ZeroNoiseStream:
    """Stands in for a depth's stream; forces Laplace noise to 0 and spawns no empty nodes.

    Its first draw, the depth's noise, is all uniforms of 1/2, which the inverse
    transform maps to 0. Every later draw is all zeros: the cell draw's first
    gap is infinite, so no cell passes.
    """

    def __init__(self):
        self.draws = 0

    def randbytes(self, n: int) -> bytes:
        self.draws += 1
        return (1 << 63 if self.draws == 1 else 0).to_bytes(8, "little") * (n // 8)


class ZeroNoiseSource(RandomSource):
    """Degenerate source for end-to-end identity checks of the pipeline."""

    def __init__(self):
        super().__init__(0)

    def stream(self, depth: int) -> _ZeroNoiseStream:  # type: ignore[override]
        return _ZeroNoiseStream()


class NoThresholds(PrivacyParams):
    """Privacy parameters with both thresholds at 0, for noise-free checks.

    With :class:`ZeroNoiseSource` every data-backed candidate is kept and
    expanded, so the tree is the exact prefix tree. With real noise a kept
    node would bear about |U|/2 children, which is why the library has no
    such setting.
    """

    def threshold(self, universe_size: int) -> float:
        return 0.0

    def expand_threshold(self, universe_size: int) -> float:
        return 0.0


def array_tree(
    nodes: Iterable[tuple[tuple[int, ...], float, int]],
    universe: LocationUniverse,
) -> PrefixTree:
    """Array tree from ``(prefix, noisy count, true count)`` triples.

    Every prefix's parent prefix must be listed too; siblings are born in the
    order listed. The empty prefix, if given, sets the root's counts. Rows are
    laid out as the builder lays them out: by depth, in the listed order
    within a depth.
    """
    counts = {(): (float("nan"), 0)}
    for prefix, noisy, true in nodes:
        counts[prefix] = (float(noisy), true)
    order = sorted(counts, key=len)  # stable: the listed order within a depth
    row = {prefix: i for i, prefix in enumerate(order)}
    parents = np.array([row[prefix[:-1]] if prefix else -1 for prefix in order], dtype=np.int64)
    return PrefixTree(
        parent=parents,
        location=np.array([prefix[-1] if prefix else -1 for prefix in order], dtype=np.int64),
        depth=np.array([len(prefix) for prefix in order], dtype=np.int64),
        noisy=np.array([counts[prefix][0] for prefix in order], dtype=np.float64),
        true_count=np.array([counts[prefix][1] for prefix in order], dtype=np.int64),
        n_children=np.bincount(parents[1:], minlength=len(parents)),
        universe=universe,
    )


def entries_db(entries: Iterable[Sequence[int]], weights: Iterable[int]) -> TrajectoryDb:
    """The database whose ``e``-th entry is the ``e``-th of ``entries``, standing for
    the ``e``-th of ``weights`` records.

    ``entries_db(counts, counts.values())`` makes one entry per distinct record
    of a ``Counter`` of records.
    """
    entries = list(entries)
    return TrajectoryDb(
        np.array([loc for entry in entries for loc in entry], dtype=np.int32),
        np.cumsum([0, *map(len, entries)]),
        list(weights),
    )


def records_db(records: Iterable[Sequence[int]]) -> TrajectoryDb:
    """The records in order, one entry of weight 1 each."""
    records = list(records)
    return entries_db(records, [1] * len(records))


def db_entries(db: TrajectoryDb) -> list[tuple[int, ...]]:
    """Every entry of ``db`` as a tuple, in order."""
    flat, bounds = db.tokens.tolist(), db.offsets.tolist()
    return [tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def assert_same_arrays(got: TrajectoryDb, want: TrajectoryDb) -> None:
    """``got`` holds the same entries, in the same order and with the same weights, as ``want``."""
    for name in ("tokens", "offsets", "weights"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def scan_count(db: TrajectoryDb, query: Iterable[int]) -> int:
    """Records whose location set covers ``query``, summed entry by entry in plain Python."""
    wanted = set(query)
    return sum(w for entry, w in zip(db_entries(db), db.weights.tolist()) if wanted <= set(entry))


def brute_force_top_k(db: TrajectoryDb, k: int, max_len: int = 3) -> list[SeqPattern]:
    """Enumerate every subsequence pattern up to max_len by direct scans."""
    support: Counter = Counter()
    for t in db.trajectories:
        seen = set()
        for length in range(1, max_len + 1):
            for combo in combinations(range(len(t)), length):
                seen.add(tuple(t[i] for i in combo))
        support.update(seen)
    ordered = sorted(support.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0]))
    return [SeqPattern(locations=p, support=s) for p, s in ordered[:k]]


def assert_same_tree(tree: PrefixTree, reference: PrefixTree) -> None:
    """``tree`` has ``reference``'s rows, field by field, in the same types."""
    for name in ("parent", "location", "depth", "noisy", "true_count", "n_children"):
        got, want = getattr(tree, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def prefixes(tree: PrefixTree) -> list[tuple[int, ...]]:
    """The root path of every row, indexed by row; the root's is ``()``.

    Rows list parents first, so each prefix extends one already built.
    """
    paths: list[tuple[int, ...]] = [()]
    for up, loc in zip(tree.parent[1:].tolist(), tree.location[1:].tolist()):
        paths.append(paths[up] + (loc,))
    return paths


def children(tree: PrefixTree, i: int) -> list[int]:
    """Rows whose parent is row ``i``, by location id: the order every output writes."""
    rows = np.flatnonzero(tree.parent == i)
    return rows[np.argsort(tree.location[rows])].tolist()


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


def reference_noisy_tree(
    db: TrajectoryDb,
    universe: LocationUniverse,
    params: PrivacyParams,
    source: RandomSource,
) -> PrefixTree:
    """The noisy tree built one level at a time over sorted record tuples.

    Makes the same draws in the same order as ``build_noisy_tree``, one
    stream per depth, but finds child runs by bisecting tuples and steps
    through the depth's (frontier node, location) cells one gap at a time. A
    kept node is expanded iff its noisy count reaches the expand threshold.
    """
    entries = db_entries(db)
    order = sorted(range(len(entries)), key=entries.__getitem__)
    cum = [0, *accumulate(db.weights[order].tolist())]  # cum[j] - cum[i]: records in rows[i:j]
    rows = list(map(entries.__getitem__, order))
    universe_size = len(universe)
    theta, theta_expand = params.threshold(universe_size), params.expand_threshold(universe_size)

    # (prefix, noisy count, true count), parents first and siblings in birth order.
    nodes: list[tuple[tuple[int, ...], float, int]] = [((), float("nan"), cum[-1])]
    # Nodes to expand, as (root path, row range lo and hi): data-backed nodes
    # in path order, then empty-born ones by parent and then location.
    frontier = [((), 0, len(rows))]
    for d in range(params.height):
        if not frontier:
            break
        # Per frontier node, one run of rows per next location; rows ending
        # at the node sort first and are skipped.
        runs: list[list[tuple[int, int, int]]] = []
        for path, lo, hi in frontier:
            runs.append([])
            i = bisect_right(rows, path, lo, hi)
            while i < hi:
                loc = rows[i][d]
                j = bisect_left(rows, path + (loc + 1,), i, hi)
                runs[-1].append((loc, i, j))
                i = j
        rng = source.stream(d)
        candidates = [(path, run) for (path, _, _), own in zip(frontier, runs) for run in own]
        noise = laplace_noise(params.noise_scale, rng, size=len(candidates)).tolist()
        # Cell f * |U| + loc is frontier node f's candidate at loc. The cells
        # that pass are one geometric gap apart, in the library's batches.
        cells, p = len(frontier) * universe_size, params.pass_probability(universe_size)
        chosen: set[int] = set()
        at = -1.0
        while at < cells - 1:
            expected = (cells - 1 - at) * p
            with np.errstate(divide="ignore"):  # a uniform of 0 is an infinite gap
                logs = np.log(uniforms(rng, int(expected + 3 * math.sqrt(expected)) + 1))
            for gap in np.floor(logs / math.log1p(-p)).tolist():
                at += gap + 1
                if at < cells:
                    chosen.add(int(at))
        backed = {f * universe_size + loc for f, own in enumerate(runs) for loc, _, _ in own}
        free = sorted(chosen - backed)
        values = sample_passing_noisy_count(params, universe_size, rng, size=len(free)).tolist()

        next_frontier = []
        for (path, (loc, i, j)), e in zip(candidates, noise):
            count = cum[j] - cum[i]
            if count + e >= theta:
                nodes.append((path + (loc,), count + e, count))
                if count + e >= theta_expand:
                    next_frontier.append((path + (loc,), i, j))
        for cell, value in zip(free, values):
            f, loc = divmod(cell, universe_size)
            path, _, hi = frontier[f]
            nodes.append((path + (loc,), value, 0))
            if value >= theta_expand:
                next_frontier.append((path + (loc,), hi, hi))
        frontier = next_frontier
    return array_tree(nodes, universe)


def reference_release(tree: PrefixTree, use_inference: bool) -> TrajectoryDb:
    """The release built by a recursive walk over the tree's child lists.

    Counts as ``generate_release`` counts them; each node's prefix extends
    its parent's, and a node is emitted before its children's subtrees, which
    are walked by location id: the prefixes' lexicographic order, found
    without sorting paths.
    """
    counts = (tree.adjusted if use_inference else tree.noisy).copy()
    counts[0] = 0.0
    child_sum = np.bincount(tree.parent[1:], counts[1:], minlength=len(tree))
    terminated = np.maximum(np.rint(counts - child_sum), 0.0).astype(np.int64).tolist()

    kids: list[list[int]] = [[] for _ in range(len(tree))]
    for i, up in enumerate(tree.parent[1:].tolist(), start=1):
        kids[up].append(i)
    entries: list[tuple[int, ...]] = []
    weights: list[int] = []

    def walk(i: int, prefix: tuple[int, ...]) -> None:
        if i and terminated[i]:
            entries.append(prefix)
            weights.append(terminated[i])
        for child in sorted(kids[i], key=tree.location.__getitem__):
            walk(child, prefix + (int(tree.location[child]),))

    walk(0, ())
    return entries_db(entries, weights)


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
