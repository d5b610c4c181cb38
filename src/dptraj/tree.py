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

The builder cuts the database's token array into one integer matrix of its
entries, a column per depth below the tree height (-1 past a record's end),
sorted once with ``np.lexsort``; repeated entries sit side by side. The
records under any prefix fill one contiguous row range: a node is its row
range, and its children are the runs of equal values in one column of that
range. Neighbouring rows are compared once for the whole matrix, which gives
each depth a sorted list of the rows where a run starts; a node bisects that
list for its range, and rows that end at the node hold -1 and form a first
run that is skipped. A true count is a difference of running totals. The
depth-first loop makes each node's draws in a fixed order and records them;
the empty-born leaves are placed afterwards, in arrays, at their preorder
rows. Those preorder arrays are the tree's interface, read and written
directly by inference, release and the CLI, which get root paths from
:meth:`PrefixTree.paths`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

from .model import LocationUniverse, TrajectoryDb
from .privacy import (
    PrivacyParams,
    RandomSource,
    laplace_noise,
    sample_pass_count,
    sample_passing_noisy_count,
)


#: Pool slots shuffled together when empty-born leaves are placed: 256
#: bearing nodes at a time over a universe of 1,024 locations.
_CELLS = 1 << 18


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

    def paths(self, nodes: np.ndarray) -> np.ndarray:
        """Int32 rows of the non-root nodes' ancestors: node, parent, ..., depth-1 node, -1 padding.

        ``paths[:, ::-1]`` reads each path root first, after its padding.
        """
        # up[i] is i's parent, or -1 below the root; the appended slot keeps -1 at -1.
        up = np.append(np.where(self.depth > 1, self.parent, -1), -1).astype(np.int32)
        paths = np.empty((len(nodes), int(self.depth[nodes].max(initial=0))), dtype=np.int32)
        for column in paths.T:
            column[:] = nodes
            nodes = up[nodes]
        return paths


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
    columns, starts, cum = _sorted_columns(db, params.height, len(universe))
    # Memoryviews let the loop index and bisect the arrays without numpy calls.
    column_of = list(map(memoryview, columns))
    start_of = list(map(memoryview, starts))
    total = memoryview(cum)
    universe_size = len(universe)
    scale = params.noise_scale
    theta = params.threshold

    # Visited nodes, in visit order; a parent is a visit index.
    parent: list[int] = []
    location: list[int] = []
    depth: list[int] = []
    noisy: list[float] = []
    true_count: list[int] = []
    # Per visited node that bore empty-born leaves: its visit index, its
    # data-backed locations and the leaves' slot draws and noisy counts.
    bearers: list[int] = []
    taken: list[list[int]] = []
    slots: list[np.ndarray] = []
    values: list[np.ndarray] = []
    # A stack item is a node not yet visited:
    # (parent visit index, root path, row range lo and hi, true count, noisy count).
    stack = [(-1, (), 0, len(cum) - 1, int(cum[-1]), float("nan"))]
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
        # One run of rows per next location; rows ending here hold -1 and sort first.
        # A range of at most one row (as at most deep nodes) is at most one run.
        if hi - lo > 1:
            first = start_of[d]
            bounds = first[bisect_left(first, lo) : bisect_left(first, hi)].tolist()
        else:
            bounds = list(range(lo, hi))
        column = column_of[d]
        if bounds and column[bounds[0]] < 0:
            del bounds[0]
        locs = [column[i] for i in bounds]
        bounds.append(hi)
        if len(locs) <= 32:  # scalar draws beat numpy dispatch here
            draws = [
                total[j] - total[i] + laplace_noise(scale, rng) for i, j in zip(bounds, bounds[1:])
            ]
        else:
            counts = np.asarray([total[j] - total[i] for i, j in zip(bounds, bounds[1:])], float)
            draws = (counts + laplace_noise(scale, rng, size=len(locs))).tolist()
        stack += [
            (node, path + (loc,), i, j, total[j] - total[i], draw)
            for loc, i, j, draw in zip(locs, bounds, bounds[1:], draws)
            if draw >= theta
        ]
        # All remaining locations are zero-count candidates; resolve them in one shot.
        empty_pool_size = universe_size - len(locs)
        passing = sample_pass_count(empty_pool_size, params, rng)
        if not passing:
            continue
        drawn = rng.integers(np.arange(passing), empty_pool_size)
        born_values = sample_passing_noisy_count(params, rng, size=passing)
        if expand_empty:
            born = _empty_born_locations([locs], [drawn], universe_size)
            stack += [
                (node, path + (loc,), hi, hi, 0, v)
                for loc, v in zip(born.tolist(), born_values.tolist())
            ]
        else:
            bearers.append(node)
            taken.append(locs)
            slots.append(drawn)
            values.append(born_values)

    del columns, starts, cum, column_of, start_of, total  # the tree's arrays can take their memory
    # A bearer's leaves follow it in preorder, last-born first, so each
    # visited node moves down by the number of leaves born before it.
    bearing = np.array(bearers, dtype=np.int64)
    born = np.fromiter(map(len, slots), dtype=np.int64, count=len(slots))
    n_born = np.zeros(len(parent), dtype=np.int64)
    n_born[bearing] = born
    row = np.arange(len(parent)) + np.cumsum(n_born) - n_born
    # The i-th leaf born to a bearer takes row row[bearer] + born[bearer] - i,
    # where i is the leaf's index k less the leaves of earlier bearers.
    shift = np.repeat(row[bearing] + born + np.cumsum(born) - born, born)
    at = np.concatenate((row, shift - np.arange(len(shift))))

    def place(*parts):  # visited nodes' values, then the leaves', to their preorder rows
        flat = np.concatenate(parts)
        out = np.empty_like(flat)
        out[at] = flat
        return out

    parent_visit = np.array(parent, dtype=np.int64)
    parents = place(
        np.where(parent_visit < 0, -1, row[parent_visit]), np.repeat(row[bearing], born)
    )
    depths = np.array(depth, dtype=np.int64)
    return PrefixTree(
        parent=parents,
        location=place(location, _empty_born_locations(taken, slots, universe_size)),
        depth=place(depths, np.repeat(depths[bearing] + 1, born)),
        noisy=place(noisy, *values),
        true_count=place(true_count, np.zeros(born.sum(), dtype=np.int64)),
        n_children=np.bincount(parents[1:], minlength=len(parents)),
        universe=universe,
    )


def _sorted_columns(
    db: TrajectoryDb, height: int, universe_size: int
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The entries' sorted location matrix by column, its run starts and running totals.

    ``columns[c]`` holds each entry's ``c``-th location, or -1 past its end,
    for ``c`` below the height. Entries are in lexicographic order, so the
    entries under any prefix fill one contiguous range. ``starts[c]`` lists,
    in order, the entries that differ from the one before them in some column
    up to ``c``: the children of a node at depth ``c`` start at the listed
    entries of its range. ``cum[j] - cum[i]`` is the number of records in
    entries ``i:j``.
    """
    lengths = np.diff(db.offsets)
    dtype = np.int16 if universe_size <= 1 << 15 else np.int32
    columns = np.full((height, len(lengths)), -1, dtype=dtype)
    for c in range(height):  # one column at a time keeps index arrays per entry, not per token
        rows = np.flatnonzero(lengths > c)
        columns[c, rows] = db.tokens[db.offsets[rows] + c]
    order = np.lexsort(columns[::-1])
    columns = columns[:, order]
    starts = []
    differs = np.arange(len(lengths)) == 0
    for column in columns:
        differs[1:] |= column[1:] != column[:-1]
        starts.append(np.flatnonzero(differs))
    return columns, starts, np.concatenate(([0], np.cumsum(db.weights[order])))


def _empty_born_locations(
    taken: list[list[int]], slots: list[np.ndarray], universe_size: int
) -> np.ndarray:
    """Locations of empty-born nodes, in birth order, one batch per bearing node.

    A bearer's pool is the universe without its data-backed locations
    (``taken``, ascending), in ascending order: slot ``s`` is the ``s``-th
    free location. Its draws ``slots`` are a partial Fisher-Yates shuffle of
    the pool: step ``i`` swaps pool slots
    ``i`` and ``slots[i] >= i``, after which slot ``i`` holds the ``i``-th
    sample. Bearers are shuffled side by side, one step at a time, with
    about ``_CELLS`` pool slots held at once.
    """
    born = [np.empty(0, dtype=np.int64)]
    chunk = max(1, _CELLS // universe_size)
    stride = universe_size + 1
    for a in range(0, len(slots), chunk):
        drawn, kept = slots[a : a + chunk], taken[a : a + chunk]
        rows = np.arange(len(drawn))
        passing = np.fromiter(map(len, drawn), dtype=np.int64, count=len(drawn))
        drawn_at = np.arange(passing.max()) < passing[:, None]
        picks = np.zeros(drawn_at.shape, dtype=np.int64)
        picks[drawn_at] = np.concatenate(drawn)
        shuffled = np.tile(np.arange(universe_size), (len(drawn), 1))  # slot at each position
        for i in range(picks.shape[1]):
            # A bearer with fewer draws reads position 0 here and only scrambles spent positions.
            j = picks[:, i].copy()
            picks[:, i] = shuffled[rows, j]
            shuffled[rows, j] = shuffled[rows, i]
        # The s-th free location is s plus the number of taken locations t_q
        # (q-th smallest, from 0) with t_q - q <= s.
        n_taken = np.fromiter(map(len, kept), dtype=np.int64, count=len(kept))
        firsts = np.cumsum(n_taken) - n_taken
        flat = np.fromiter(chain.from_iterable(kept), dtype=np.int64, count=n_taken.sum())
        shifted = np.repeat(rows * stride + firsts, n_taken) + flat - np.arange(len(flat))
        slot = picks[drawn_at]
        bearer = np.repeat(rows, passing)
        below = np.searchsorted(shifted, bearer * stride + slot, side="right") - firsts[bearer]
        born.append(slot + below)
    return np.concatenate(born)


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
