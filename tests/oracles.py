"""Reference implementations that tests compare the library against."""

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
