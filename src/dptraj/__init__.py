"""Differentially private sanitization of trajectory databases.

Pipeline: build a noisy prefix tree over the records, pruned by thresholds
on its noisy counts, restore the tree's count-consistency constraints, and
materialize a sanitized database; evaluate the release with count-query
relative error and top-k sequential-pattern overlap.

Each exported name is imported from its module on first access (PEP 562), so
``from dptraj import load_db`` loads ``dptraj.reader`` and nothing else, and
no numpy until a file is read.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Release variants: "basic" releases the noisy counts, "full" the consistent ones.
VARIANTS = ("basic", "full")

_EXPORTS = {
    "datagen": "generate planted_routes",
    "inference": "consistent_estimates consolidate order_violations",
    "model": "ReleaseStats Trajectory TrajectoryDb release_stats write_db write_universe",
    "params": "GenConfig PrivacyParams",
    "privacy": "BudgetLedger RandomSource budget_ledger sample_passing_noisy_count",
    "reader": "DataFormatError LocationUniverse UnknownLocationError load_db load_universe",
    "release": "generate_release release_tree sanitize",
    "tree": "PrefixTree build_noisy_tree dump_tree",
    "utility": "CountQuery PresenceIndex QueryWorkload SeqPattern eval_count_query "
    "evaluate_workload fsp_metrics generate_workload mine_top_k relative_error",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = ["VARIANTS", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value
