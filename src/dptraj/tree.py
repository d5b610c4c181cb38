"""Prefix-tree construction: the noisy prefix tree of a database, pruned by thresholds.

At each expanded node every universe location is a candidate child:
candidates backed by at least one trajectory get an individually noised count
and survive only above the threshold, while a depth's (typically many)
zero-count candidates are resolved in one shot: each of its (node, location)
cells passes alone with the pass probability, drawn by geometric skips, and the
passing zero-count cells become children with counts from the passing-count
distribution. A kept node is expanded iff its noisy count reaches the expand
threshold: the shape reads no true count.

The tree grows one depth at a time. Between depths the builder holds only the
ids of the entries still under the frontier's data-backed nodes, grouped by
node, and how many each node holds. A depth packs each of those entries in
one int64 key, its cell (the node's place on the frontier times the universe
size plus the entry's location at that depth) above its id, and sorts the keys
in place: the runs of equal cells are the data-backed candidates, in frontier
order and then by ascending location, and their true counts are sums of the
entries' weights. One stream makes every draw of the depth in vector calls,
and array steps keep children and pick the next frontier. Only the entries of
expanded runs whose records go on are carried to the next depth. Each depth's
nodes are appended to the tree's rows as they are made. Those arrays are the
tree's interface, read and written directly by inference, release, the CLI and
:func:`dump_tree`. Row order is the build's own: the release and the dump are
both written in :meth:`PrefixTree.preorder`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .model import LocationUniverse, TrajectoryDb, id_type, narrowest
from .privacy import (
    NoiseStream,
    PrivacyParams,
    RandomSource,
    laplace_noise,
    sample_passing_noisy_count,
    uniforms,
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
    NaN). Rows are in level order: each depth's rows are contiguous, and every
    parent's row comes before its children's. Within a depth the order is the
    build's and may follow true counts, so no output reads it.
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
        """Every row in level order, root first (whose ``parent`` is ``None``).

        Kept for the manifest walk replayed by ``perfbench/traced.py``; other
        code reads the arrays.
        """
        parent = self.parent.tolist()
        parent[0] = None
        empty_born = (self.true_count == 0).tolist()
        empty_born[0] = False
        return map(NodeRow, parent, self.depth.tolist(), empty_born)

    def paths(self, nodes: np.ndarray) -> np.ndarray:
        """Int32 root paths of the non-root nodes, one row each.

        Column ``c`` holds the node's ancestor at depth ``c + 1`` (the node
        itself at its own depth); columns past its depth hold ``len(self)``.
        There is always at least one column, so the rows can be sorted.
        """
        depth = self.depth[nodes]
        paths = np.full((len(nodes), int(depth.max(initial=1))), len(self), dtype=np.int32)
        for c in reversed(range(paths.shape[1])):
            below = depth > c  # the nodes with an ancestor at depth c + 1
            paths[below, c] = nodes[below]
            nodes = np.where(below, self.parent[nodes], nodes)
        return paths

    def preorder(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Non-root ``nodes`` in the order every output writes them, and their paths.

        Each path holds the node's locations from depth 1 down, then -1 past its
        depth, so a node sorts just before its subtree and siblings sort by
        location id, which is public (row order tells data-backed siblings from
        empty-born ones). Paths are in the universe's :func:`~dptraj.model.id_type`.
        """
        located = np.append(self.location, -1).astype(id_type(len(self.universe)))
        paths = located[self.paths(nodes)]
        order = np.lexsort(paths.T[::-1])
        return nodes[order], paths[order]


def build_noisy_tree(
    db: TrajectoryDb,
    universe: LocationUniverse,
    params: PrivacyParams,
    source: RandomSource,
) -> PrefixTree:
    """Thresholded noisy prefix tree of height at most ``params.height``.

    The root, and each kept node whose noisy count reaches
    ``params.expand_threshold(len(universe))``, is expanded. Depth ``d`` draws
    from one stream, ``source.stream(d)``, in vector calls that hand the
    draws to the frontier's candidates in a canonical order: data-backed
    frontier nodes in the lexicographic order of their paths, then empty-born
    ones, so the tree does not depend on the order of the records.
    """
    # Each entry's length, clipped to the height: all a depth asks is whether a
    # record goes on. No entry is longer than the tokens, so the clip fits offsets' type.
    length = np.minimum(np.diff(db.offsets), min(params.height, len(db.tokens)))
    length = length.astype(np.min_scalar_type(params.height))
    # Per depth, the nodes born there: parent (its row), location, noisy and true count.
    levels = [(np.full(1, -1), np.full(1, -1), np.full(1, np.nan), np.full(1, len(db)))]
    # The frontier: each node's index in the tree, and how many of ``rows[0]``
    # (the entries under it, grouped by node) it holds; ``size`` nodes are made so far.
    at, size = np.zeros(1, dtype=np.int64), 1
    rows, held = [np.arange(len(length), dtype=np.int32)], np.full(1, len(length))
    for d in range(params.height):
        if not len(at):
            break
        (pos, *level), grow, held = _next_depth(
            db, rows, held, length, d, len(universe), params, source.stream(d)
        )
        levels.append((at[pos], *level))
        at, size = size + grow, size + len(pos)
    parent, location, noisy, true_count = map(np.concatenate, zip(*levels))
    return PrefixTree(
        parent=parent,
        location=location,
        depth=np.repeat(np.arange(len(levels)), [len(level[0]) for level in levels]),
        noisy=noisy,
        true_count=true_count,
        n_children=np.bincount(parent[1:], minlength=len(parent)),
        universe=universe,
    )


def _next_depth(
    db: TrajectoryDb, rows: list[np.ndarray], held: np.ndarray, length: np.ndarray, d: int,
    universe_size: int, params: PrivacyParams, rng: NoiseStream,
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """One depth of :func:`build_noisy_tree`, below the frontier.

    Frontier node ``i`` holds the next ``held[i]`` of ``rows[0]``, the entries
    under it that go on to depth ``d``; the step takes them out of the list, so
    they are freed once packed in the sort key, and puts the next frontier's in.
    Returns the depth's nodes (parent's place on the frontier, location, noisy
    and true count), which of them form the next frontier, and its ``held``.
    """
    # Each entry's key is its cell (place on the frontier, location at depth d)
    # above its id: sorted, a node's children are runs of equal cells, and each
    # run's ids ascend. The cells pass the ids' and offsets' types, so int64.
    cells, row_bits = len(held) * universe_size, (len(length) - 1).bit_length()
    if (cells - 1).bit_length() + row_bits > 63:
        raise ValueError(f"{cells} cells and {len(length)} entries overflow a 64-bit sort key")
    location = db.tokens[db.offsets[rows[0]] + d]
    key = np.repeat(np.arange(len(held), dtype=np.int64) * universe_size, held)
    key += location
    del location
    key <<= row_bits
    key |= rows.pop()
    key.sort()
    ids = np.empty(len(key), dtype=np.int32)
    np.bitwise_and(key, (1 << row_bits) - 1, out=ids, casting="unsafe")
    key >>= row_bits
    bounds = np.ones(len(key) + 1, dtype=bool)  # where runs start, and the end of the last
    np.not_equal(key[1:], key[:-1], out=bounds[1:-1])
    backed = key[bounds[:-1]]  # the data-backed candidates' cells, ascending
    del key
    bounds = np.flatnonzero(bounds)
    # Summed in a type that holds every total, so the gathered weights are not widened first.
    counts = np.add.reduceat(db.weights[ids], bounds[:-1], dtype=narrowest(len(db), np.int32, np.int64))
    counts = counts.astype(np.int64)
    # The depth's draws, in this order: noise for every data-backed candidate
    # (frontier order, then ascending location); the depth's cells that would
    # pass as zero-count candidates; and the noisy count of each drawn cell
    # that is no data-backed candidate.
    draws = laplace_noise(params.noise_scale, rng, size=len(counts))
    draws += counts
    chosen = _passing_cells(cells, params.pass_probability(universe_size), rng)
    free = chosen[np.searchsorted(backed, chosen) == np.searchsorted(backed, chosen, "right")]
    values = sample_passing_noisy_count(params, universe_size, rng, size=len(free))
    kept = draws >= params.threshold(universe_size)
    expand = params.expand_threshold(universe_size)
    moving = kept & (draws >= expand)
    backed, counts, draws = backed[kept], counts[kept], draws[kept]
    # The next frontier's rows: those of expanded runs whose records go on past
    # depth d + 1, still grouped by node; empty-born nodes hold none.
    moves = np.repeat(moving, np.diff(bounds))
    moves &= length[ids] > d + 1
    going = np.add.reduceat(moves, bounds[:-1], dtype=np.int32)[kept]
    rows.append(ids[moves])
    owner, loc = np.divmod(backed, universe_size)
    bearer, born = np.divmod(free, universe_size)
    del backed, free
    # The depth's nodes, by parent's place on the frontier: kept children, then empty-born.
    empty = np.zeros(len(born), dtype=np.int64)
    pos = np.concatenate((owner, bearer))
    location = np.concatenate((loc, born))
    noisy = np.concatenate((draws, values))
    grow = np.flatnonzero(noisy >= expand)
    held = np.concatenate((going, empty))[grow]
    level = (pos, location, noisy, np.concatenate((counts, empty)))
    return level, grow, held


def _passing_cells(n: int, p: float, rng: NoiseStream) -> np.ndarray:
    """Each of ``range(n)`` independently with probability ``p``, ascending, without making it.

    Skips from one drawn cell to the next by Geometric(p) gaps, floor(log u /
    log(1 - p)) for u uniform (Devroye 1986, the skip method for Bernoulli
    sequences), drawn in batches of about the number still expected until they
    step past ``n - 1``. A u of 0 is an infinite gap and ends the draw.
    """
    if n < 0:
        raise ValueError(f"cell count must be >= 0, got {n!r}")
    steps, end = [np.empty(0)], -1.0
    while end < n - 1:
        expected = (n - 1 - end) * p
        with np.errstate(divide="ignore"):
            gaps = np.floor(np.log(uniforms(rng, int(expected + 3 * math.sqrt(expected)) + 1))
                            / math.log1p(-p))
        steps.append(end + np.cumsum(gaps + 1))
        end = steps[-1][-1]
    cells = np.concatenate(steps)
    return cells[cells < n].astype(np.int64)


def dump_tree(tree: PrefixTree) -> str:
    """Debug outline: one node per line, depth-indented token and noisy count.

    Nodes are in :meth:`PrefixTree.preorder`, siblings by location id. Neither
    true counts nor row order reach it; the dump is safe to share with a release.
    """
    nodes, _ = tree.preorder(np.arange(1, len(tree)))
    indent_by_depth = np.array(["  " * d for d in range(tree.depth.max())], dtype=object)
    indent = indent_by_depth[tree.depth[nodes] - 1].tolist()
    tokens = np.array(tree.universe.tokens, dtype=object)[tree.location[nodes]].tolist()
    return "".join(map("{}{} {:.2f}\n".format, indent, tokens, tree.noisy[nodes].tolist()))
