"""Prefix-tree construction: the noisy, thresholded prefix tree of a database.

The noisy builder expands nodes depth first. At each expanded node every
universe location is a candidate child: candidates backed by at least one
trajectory get an individually noised count and survive only above the
threshold, while the (typically many) zero-count candidates are resolved in
one shot -- a binomial draw decides how many pass, and those are placed on
uniformly chosen empty locations with counts drawn from the passing-count
distribution. Nodes born from empty candidates carry no trajectories and are
not expanded further unless ``expand_empty`` is set; full symmetric expansion
multiplies the node count by roughly ``0.03 * len(universe)`` per level and is
only practical for small universes.

Only distinct records and their multiplicities matter, so the builder sorts
the distinct records (truncated to the tree height) once. The records under
any prefix then fill one contiguous row range: a node is its row range, and
its children are the runs of equal next location inside it, each found by
one binary search; a child's true count is a difference of running totals.
Nodes go straight into the tree's preorder arrays as they are made; those
arrays are the tree's interface, read and written directly by inference,
release and the CLI.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Iterator, NamedTuple

import numpy as np

from .model import LocationUniverse, Trajectory, TrajectoryDb
from .privacy import (
    PrivacyParams,
    RandomSource,
    laplace_noise,
    sample_pass_count,
    sample_passing_noisy_count,
)


class NodeRow(NamedTuple):
    """One row of a :class:`PrefixTree` as plain Python values."""

    parent: int | None
    depth: int
    empty_born: bool


@dataclass(eq=False)
class PrefixTree:
    """A prefix tree held as one array per node field, one row per node.

    Row 0 is the root, with no location, parent or measured count (-1, -1,
    NaN). Rows are in preorder with siblings last-born first, so reading them
    backwards is a postorder that visits siblings in birth order.
    ``true_count`` is the number of input records under a node; it is never
    written to any output. A data-backed node always has a record under it,
    so the non-root nodes with a zero true count are the empty-born ones.
    ``fitted`` and ``adjusted`` stay ``None`` until the inference passes fill
    them.
    """

    parent: np.ndarray
    location: np.ndarray
    depth: np.ndarray
    noisy: np.ndarray
    true_count: np.ndarray
    n_children: np.ndarray
    universe: LocationUniverse
    fitted: np.ndarray | None = None
    adjusted: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.parent)

    def nodes(self) -> Iterator[NodeRow]:
        """Every row in preorder, root first (whose ``parent`` is ``None``).

        Kept for the manifest walk replayed by ``perfbench/traced.py``; other
        code reads the arrays.
        """
        parent = self.parent.tolist()
        parent[0] = None
        empty_born = (self.true_count == 0).tolist()
        empty_born[0] = False
        return map(NodeRow, parent, self.depth.tolist(), empty_born)


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
) -> PrefixTree:
    """Thresholded noisy prefix tree of height at most ``params.height``.

    Each node's randomness comes from a sub-stream keyed by its root path, so
    the result depends only on (db, universe, params, source seed) and not on
    the order in which nodes are expanded.
    """
    rows, cum = _distinct_records(db.trajectories, params.height)
    universe_size = len(universe)
    scale = params.noise_scale
    theta = params.threshold

    parent: list[int] = []
    location: list[int] = []
    depth: list[int] = []
    noisy: list[float] = []
    true_count: list[int] = []
    # A stack item is a node not yet in the arrays:
    # (parent index, root path, row range lo and hi, true count, noisy count).
    stack = [(-1, (), 0, len(rows), cum[-1], float("nan"))]
    while stack:
        up, path, lo, hi, count, value = stack.pop()
        node = len(parent)
        d = len(path)
        parent.append(up)
        location.append(path[-1] if path else -1)
        depth.append(d)
        noisy.append(value)
        true_count.append(count)
        if d == params.height:
            continue
        rng = source.stream(*path)
        # One run of rows per next location; a row ending here sorts first and is skipped.
        runs: list[tuple[int, int, int]] = []
        i = lo + 1 if lo < hi and len(rows[lo]) == d else lo
        while i < hi:
            loc = rows[i][d]
            j = bisect_left(rows, path + (loc + 1,), i, hi)
            runs.append((loc, i, j))
            i = j
        counts = [cum[j] - cum[i] for _, i, j in runs]
        if len(runs) <= 32:  # scalar draws beat numpy dispatch here
            draws = [count + laplace_noise(scale, rng) for count in counts]
        else:
            draws = (np.asarray(counts, float) + laplace_noise(scale, rng, size=len(runs))).tolist()
        kept = [
            (node, path + (loc,), i, j, count, draw)
            for (loc, i, j), count, draw in zip(runs, counts, draws)
            if draw >= theta
        ]
        stack += kept
        # All remaining locations are zero-count candidates; resolve them in one shot.
        empty_pool_size = universe_size - len(runs)
        passing = sample_pass_count(empty_pool_size, params, rng)
        if not passing:
            continue
        mask = np.ones(universe_size, dtype=bool)
        mask[[loc for loc, _, _ in runs]] = False
        pool = np.flatnonzero(mask)
        # Partial Fisher-Yates over pool slots: step i swaps slots i and j >= i,
        # after which slot i holds its sample. Only moved slots are stored.
        moved: dict[int, int] = {}
        slots: list[int] = []
        for i, j in enumerate(rng.integers(np.arange(passing), empty_pool_size).tolist()):
            slots.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        born = pool[slots].tolist()
        values = sample_passing_noisy_count(params, rng, size=passing).tolist()
        if expand_empty:
            stack += [(node, path + (loc,), hi, hi, 0, v) for loc, v in zip(born, values)]
        else:
            # Leaves: preorder puts them, last-born first, right after their parent.
            parent += [node] * passing
            location += reversed(born)
            depth += [d + 1] * passing
            noisy += reversed(values)
            true_count += [0] * passing

    parents = np.array(parent, dtype=np.int64)
    return PrefixTree(
        parent=parents,
        location=np.array(location, dtype=np.int64),
        depth=np.array(depth, dtype=np.int64),
        noisy=np.array(noisy, dtype=np.float64),
        true_count=np.array(true_count, dtype=np.int64),
        n_children=np.bincount(parents[1:], minlength=len(parents)),
        universe=universe,
    )


def dump_tree(tree: PrefixTree) -> str:
    """Debug outline: one node per line, depth-indented token and noisy count.

    Children follow their parent in birth order. True counts never appear
    here; the dump is safe to share alongside a release.
    """
    parent = tree.parent.tolist()
    children: list[list[int]] = [[] for _ in parent]
    for i in range(len(parent) - 1, 0, -1):  # siblings are stored last-born first
        children[parent[i]].append(i)
    lines: list[str] = []
    stack = children[0][::-1]
    while stack:
        i = stack.pop()
        token = tree.universe.token_of(int(tree.location[i]))
        lines.append(f"{'  ' * (int(tree.depth[i]) - 1)}{token} {tree.noisy[i]:.2f}")
        stack += reversed(children[i])
    return "\n".join(lines) + ("\n" if lines else "")
