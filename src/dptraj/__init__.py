"""Differentially private sanitization of trajectory databases.

Pipeline: build a noisy prefix tree over the records, pruned by thresholds
on its noisy counts, restore the tree's count-consistency constraints, and
materialize a sanitized database; evaluate the release with count-query
relative error and top-k sequential-pattern overlap.
"""

from .datagen import GenConfig, generate, planted_routes
from .inference import consistent_estimates, consolidate, order_violations
from .model import (
    DataFormatError,
    LocationUniverse,
    Trajectory,
    TrajectoryDb,
    UnknownLocationError,
    load_db,
    load_universe,
    write_db,
    write_universe,
)
from .privacy import (
    BudgetLedger,
    PrivacyParams,
    RandomSource,
    budget_ledger,
    sample_pass_count,
    sample_passing_noisy_count,
)
from .release import ReleaseStats, generate_release, release_stats, release_tree, sanitize
from .tree import PrefixTree, build_noisy_tree, dump_tree
from .utility import (
    CountQuery,
    PresenceIndex,
    QueryWorkload,
    SeqPattern,
    eval_count_query,
    evaluate_workload,
    fsp_metrics,
    generate_workload,
    mine_top_k,
    relative_error,
)

__version__ = "0.1.0"
