"""Utility grid: count error, top-k pattern overlap and size of `sanitize`'s releases.

Sanitizes a fixed grid of synthetic corpora at fixed budgets and seeds, in
process, through ``dptraj``'s public API only, and writes one JSON file:

    PYTHONPATH=src python scripts/utility_grid.py --output UTILITY.json
    PYTHONPATH=src python scripts/utility_grid.py --output NEW.json --baseline OLD.json

The grid:

- corpora: the benchmark's planted and Zipf recipes (``perfbench/workloads.py``)
  at 400,000 records and generator seeds 1-5, and acceptance criterion 7's
  recipe (``tests/test_acceptance.py``, ``_stm_like``) at 200,000 records over
  250, 1,000, 4,000 and 8,000 locations;
- ``PrivacyParams(epsilon, height=12)`` with its defaults, epsilon in
  {0.5, 1, 2}, variant ``full``, sanitize seeds 1-3; each (epsilon, sanitize
  seed) pair draws from its own ``RandomSource``, seeded 1-3 at epsilon 0.5,
  4-6 at 1 and 7-9 at 2, so no two epsilons share their noise;
- per cell: the average relative count error of each of the four query
  subsets (2,500 queries each, eval seed 7, queries of height 12), TP@50,
  TP@100 and TP@250, released records, nodes per depth and empty-born nodes.
  The empty-born count is read from true counts; it is fine to report for a
  synthetic corpus, never for a real one.

``summary`` averages the cells over sanitize seeds, per corpus, epsilon and
generator-seed group (seed 1, on which the threshold rule was chosen, apart
from seeds 2-5). With ``--baseline``, a file this script wrote for another
commit, the output also holds that file's summary and the relative change of
each mean. Apart from ``seconds`` and ``sanitize_s``, two runs write the same
JSON. The whole grid takes about 2.5 minutes on one core.
"""

from __future__ import annotations

import argparse
import json
import time
from statistics import fmean

import numpy as np

from dptraj import (
    GenConfig,
    PrivacyParams,
    RandomSource,
    evaluate_workload,
    fsp_metrics,
    generate,
    generate_workload,
    mine_top_k,
    sanitize,
)

EPSILONS = (0.5, 1.0, 2.0)
HEIGHT = 12
SANITIZE_SEEDS = (1, 2, 3)
EVAL_SEED = 7
QUERIES_PER_SUBSET = 2500
TOPK = (50, 100, 250)

# perfbench/workloads.py's recipes.
_PLANTED = dict(
    n_locations=1012, avg_len=6.7, max_len=12, n_planted_routes=20, route_length=12,
    planted_fraction=0.95, route_skew=0.7, zipf_skew=0.6,
)
_ZIPF = dict(n_locations=1012, avg_len=6.7, max_len=12, n_planted_routes=0, zipf_skew=1.0)


def _stm_like(n_records: int, n_locations: int) -> GenConfig:
    """Acceptance criterion 7's recipe."""
    return GenConfig(
        n_locations=n_locations, n_records=n_records, avg_len=6.7, max_len=121,
        n_planted_routes=max(4, n_locations // 12), planted_fraction=0.95, route_length=12,
        route_skew=0.7, zipf_skew=0.6, seed=0,
    )


def corpora() -> list[tuple[str, str, GenConfig]]:
    """(corpus name, generator-seed group, recipe) for every corpus of the grid."""
    grid = []
    for name, recipe in (("planted-400k", _PLANTED), ("zipf-400k", _ZIPF)):
        for seed in range(1, 6):
            group = "seed1" if seed == 1 else "seeds2-5"
            grid.append((name, group, GenConfig(n_records=400_000, seed=seed, **recipe)))
    for n_locations in (250, 1000, 4000, 8000):
        grid.append((f"stm-200k-u{n_locations}", "seed0", _stm_like(200_000, n_locations)))
    return grid


def run_corpus(name: str, group: str, config: GenConfig) -> list[dict]:
    db, universe = generate(config)
    workload = generate_workload(universe, HEIGHT, QUERIES_PER_SUBSET, EVAL_SEED)
    raw_top = mine_top_k(db, max(TOPK))
    cells = []
    for i, epsilon in enumerate(EPSILONS):
        params = PrivacyParams(epsilon=epsilon, height=HEIGHT)
        for seed in SANITIZE_SEEDS:
            source = RandomSource(i * len(SANITIZE_SEEDS) + seed)
            started = time.perf_counter()
            release, tree = sanitize(db, universe, params, source, variant="full")
            sanitize_s = time.perf_counter() - started
            errors = evaluate_workload(db, release, workload, len(universe))
            top = mine_top_k(release, max(TOPK))
            cells.append({
                "corpus": name,
                "group": group,
                "gen_seed": config.seed,
                "n_locations": config.n_locations,
                "input_records": len(db),
                "epsilon": epsilon,
                "sanitize_seed": seed,
                "source_seed": source.seed,
                "count_error": [round(e, 6) for e in errors],
                "tp": {k: fsp_metrics(raw_top[:k], top[:k], k)[0] for k in TOPK},
                "released": len(release),
                "nodes": len(tree) - 1,
                "nodes_per_depth": np.bincount(tree.depth)[1:].tolist(),
                "empty_born": int((tree.true_count[1:] == 0).sum()),
                "sanitize_s": round(sanitize_s, 3),
            })
            print(
                f"{name} gen_seed={config.seed} epsilon={epsilon:g} seed={seed} "
                f"error={cells[-1]['count_error'][0]:.3f} tp250={cells[-1]['tp'][250]} "
                f"released={len(release)} nodes={len(tree) - 1} ({sanitize_s:.2f}s)",
                flush=True,
            )
    return cells


def summarize(cells: list[dict]) -> dict[str, dict]:
    """Means over sanitize seeds and generator seeds, per corpus, group and epsilon."""
    rows: dict[str, list[dict]] = {}
    for cell in cells:
        key = f"{cell['corpus']}/{cell['group']}/eps{cell['epsilon']:g}"
        rows.setdefault(key, []).append(cell)
    return {
        key: {
            "cells": len(group),
            "count_error": [round(fmean(c["count_error"][i] for c in group), 6) for i in range(4)],
            "mean_count_error": round(fmean(fmean(c["count_error"]) for c in group), 6),
            "tp": {str(k): round(fmean(c["tp"][k] for c in group), 3) for k in TOPK},
            "released": round(fmean(c["released"] for c in group)),
            "nodes": round(fmean(c["nodes"] for c in group)),
            "released_over_input": round(
                fmean(c["released"] / c["input_records"] for c in group), 4
            ),
        }
        for key, group in rows.items()
    }


def compare(summary: dict, baseline: dict) -> dict[str, dict]:
    """Relative change of each mean against the baseline's: (new - old) / old."""

    def change(new: float, old: float) -> float | None:
        return round((new - old) / old, 4) if old else None

    return {
        key: {
            "mean_count_error": change(row["mean_count_error"], baseline[key]["mean_count_error"]),
            "tp250": change(row["tp"]["250"], baseline[key]["tp"]["250"]),
            "released": change(row["released"], baseline[key]["released"]),
            "nodes": change(row["nodes"], baseline[key]["nodes"]),
        }
        for key, row in summary.items()
        if key in baseline
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", required=True, help="JSON file to write")
    parser.add_argument("--baseline", default=None, help="JSON file this script wrote before")
    args = parser.parse_args()
    started = time.perf_counter()
    cells = [cell for corpus in corpora() for cell in run_corpus(*corpus)]
    result = {
        "settings": {
            "epsilons": EPSILONS, "height": HEIGHT, "variant": "full",
            "sanitize_seeds": SANITIZE_SEEDS, "eval_seed": EVAL_SEED,
            "queries_per_subset": QUERIES_PER_SUBSET, "topk": TOPK,
        },
        "summary": summarize(cells),
        "cells": cells,
    }
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)["summary"]
        result["baseline_summary"] = baseline
        result["change"] = compare(result["summary"], baseline)
    result["seconds"] = round(time.perf_counter() - started, 1)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
