"""Prefix-tree construction: the noisy, thresholded prefix tree of a database.

The noisy builder works level by level. At each frontier node every universe
location is a candidate child: candidates backed by at least one trajectory
get an individually noised count and survive only above the threshold, while
the (typically many) zero-count candidates are resolved in one shot -- a
binomial draw decides how many pass, and those are placed on uniformly chosen
empty locations with counts drawn from the passing-count distribution. Nodes
born from empty candidates carry no trajectories and are not expanded further
unless ``expand_empty`` is set; full symmetric expansion multiplies the node
count by roughly ``0.03 * len(universe)`` per level and is only practical for
small universes.

Only distinct records and their multiplicities matter, so the builder sorts
the distinct records (truncated to the tree height) once. The records under
any prefix then fill one contiguous row range: a node is its row range, and
its children are the runs of equal next location inside it, each found by
one binary search; a child's true count is a difference of running totals.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .model import LocationUniverse, Trajectory, TrajectoryDb
from .privacy import (
    BudgetLedger,
    PrivacyParams,
    RandomSource,
    budget_ledger,
    laplace_noise,
    sample_pass_count,
    sample_passing_noisy_count,
)


class TreeNode:
    """One prefix-tree node; the root carries no location.

    ``true_count`` is the number of input records under the node; it is never
    written to any output. ``fitted_count`` and ``adjusted_count`` are
    filled by the inference pass.
    """

    __slots__ = (
        "location",
        "depth",
        "parent",
        "children",
        "true_count",
        "noisy_count",
        "fitted_count",
        "adjusted_count",
        "empty_born",
    )

    def __init__(self, location: int | None, depth: int, parent: "TreeNode | None"):
        self.location = location
        self.depth = depth
        self.parent = parent
        self.children: list[TreeNode] = []
        self.true_count = 0
        self.noisy_count = 0.0
        self.fitted_count: float | None = None
        self.adjusted_count: float | None = None
        self.empty_born = False

    def __repr__(self) -> str:
        return (
            f"TreeNode(location={self.location}, depth={self.depth}, "
            f"noisy_count={self.noisy_count:.3f}, children={len(self.children)})"
        )


@dataclass
class PrefixTree:
    root: TreeNode
    universe: LocationUniverse
    params: PrivacyParams | None = None

    @property
    def ledger(self) -> BudgetLedger | None:
        return budget_ledger(self.params) if self.params is not None else None

    def nodes(self):
        """All nodes in depth-first order, root first."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def node_count(self) -> int:
        return sum(1 for _ in self.nodes())


def node_prefix(node: TreeNode) -> Trajectory:
    """The trajectory prefix spelled by the root-to-node path."""
    if node.parent is None:
        raise ValueError("the virtual root does not represent a prefix")
    locations: list[int] = []
    cur: TreeNode | None = node
    while cur is not None and cur.parent is not None:
        locations.append(cur.location)  # type: ignore[arg-type]
        cur = cur.parent
    locations.reverse()
    return tuple(locations)


def _distinct_records(
    trajectories: tuple[Trajectory, ...], height: int
) -> tuple[list[Trajectory], list[int]]:
    """Distinct records truncated to ``height``, sorted, and their running total.

    ``cum[j] - cum[i]`` is the number of input records in ``rows[i:j]``. In
    sorted order the records under any prefix fill one contiguous range of
    rows: the one that ends at the prefix first, then one run per next location.
    """
    multiplicity = Counter(map(itemgetter(slice(height)), trajectories))
    rows = sorted(multiplicity)
    cum = [0, *accumulate(map(multiplicity.__getitem__, rows))]
    return rows, cum


def build_noisy_tree(
    db: TrajectoryDb,
    universe: LocationUniverse,
    params: PrivacyParams,
    source: RandomSource,
    expand_empty: bool = False,
    threads: int = 1,
) -> PrefixTree:
    """Thresholded noisy prefix tree of height at most ``params.height``.

    Each node's randomness comes from a sub-stream keyed by its root path, so
    the result depends only on (db, universe, params, source seed) and not on
    ``threads``.
    """
    rows, cum = _distinct_records(db.trajectories, params.height)
    universe_size = len(universe)
    scale = params.noise_scale
    theta = params.threshold

    root = TreeNode(None, 0, None)
    root.true_count = cum[-1]
    root.noisy_count = float("nan")  # the root count is never measured or released

    def expand(item: tuple[TreeNode, int, int]) -> list[tuple[TreeNode, int, int]]:
        """Add the children of a node with row range ``[lo, hi)``; return those to expand next."""
        node, lo, hi = item
        path = node_prefix(node) if node.parent is not None else ()
        rng = source.stream(*path)
        depth = node.depth
        # One run of rows per next location; a row ending here sorts first and is skipped.
        runs: list[tuple[int, int, int]] = []
        i = lo + 1 if lo < hi and len(rows[lo]) == depth else lo
        while i < hi:
            loc = rows[i][depth]
            j = bisect_left(rows, path + (loc + 1,), i, hi)
            runs.append((loc, i, j))
            i = j
        counts = [cum[j] - cum[i] for _, i, j in runs]
        children: list[tuple[TreeNode, int, int]] = []
        if runs:
            if len(runs) <= 32:  # scalar draws beat numpy dispatch here
                noisy = [count + laplace_noise(scale, rng) for count in counts]
            else:
                noisy = np.asarray(counts, float) + laplace_noise(scale, rng, size=len(runs))
            for (loc, i, j), count, noisy_count in zip(runs, counts, noisy):
                if noisy_count >= theta:
                    child = TreeNode(loc, depth + 1, node)
                    child.true_count = count
                    child.noisy_count = float(noisy_count)
                    node.children.append(child)
                    children.append((child, i, j))
        # All remaining locations are zero-count candidates; resolve them in one shot.
        empty_pool_size = universe_size - len(runs)
        passing = sample_pass_count(empty_pool_size, params, rng)
        if passing:
            mask = np.ones(universe_size, dtype=bool)
            mask[[loc for loc, _, _ in runs]] = False
            pool = np.flatnonzero(mask)
            # partial Fisher-Yates: the first `passing` slots become the sample
            swaps = rng.integers(np.arange(passing), empty_pool_size)
            for i, j in enumerate(swaps):
                pool[i], pool[j] = pool[j], pool[i]
            values = sample_passing_noisy_count(params, rng, size=passing)
            for loc, value in zip(pool[:passing].tolist(), values):
                child = TreeNode(loc, depth + 1, node)
                child.noisy_count = float(value)
                child.empty_born = True
                node.children.append(child)
                if expand_empty:
                    children.append((child, hi, hi))
        return children

    frontier = [(root, 0, len(rows))]
    for _ in range(params.height):
        if not frontier:
            break
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                expanded = list(pool.map(expand, frontier, chunksize=64))
        else:
            expanded = [expand(item) for item in frontier]
        frontier = [item for children in expanded for item in children]
    return PrefixTree(root=root, universe=universe, params=params)


@dataclass
class FlatTree:
    """Array view of a tree for the vectorized inference and release passes.

    ``order`` lists nodes parents-before-children (index 0 is the root);
    iterating it backwards visits children before parents with earlier
    siblings last, i.e. a postorder traversal when read in reverse.
    """

    order: list[TreeNode]
    parent: np.ndarray
    depth: np.ndarray
    noisy: np.ndarray
    n_children: np.ndarray

    def __len__(self) -> int:
        return len(self.order)

    def postorder_indices(self):
        return range(len(self.order) - 1, -1, -1)


def flatten_tree(tree: PrefixTree) -> FlatTree:
    order: list[TreeNode] = []
    parent: list[int] = []
    stack: list[tuple[TreeNode, int]] = [(tree.root, -1)]
    while stack:
        node, parent_idx = stack.pop()
        idx = len(order)
        order.append(node)
        parent.append(parent_idx)
        for child in node.children:
            stack.append((child, idx))
    n = len(order)
    depth = np.fromiter((node.depth for node in order), np.int64, n)
    noisy = np.fromiter((node.noisy_count for node in order), np.float64, n)
    n_children = np.fromiter((len(node.children) for node in order), np.int64, n)
    return FlatTree(
        order=order,
        parent=np.asarray(parent, dtype=np.int64),
        depth=depth,
        noisy=noisy,
        n_children=n_children,
    )


def dump_tree(tree: PrefixTree) -> str:
    """Debug outline: one node per line, depth-indented token and noisy count.

    True counts never appear here; the dump is safe to share alongside a
    release.
    """
    lines: list[str] = []
    stack = list(reversed(tree.root.children))
    while stack:
        node = stack.pop()
        token = tree.universe.token_of(node.location)  # type: ignore[arg-type]
        lines.append(f"{'  ' * (node.depth - 1)}{token} {node.noisy_count:.2f}")
        stack.extend(reversed(node.children))
    return "\n".join(lines) + ("\n" if lines else "")
