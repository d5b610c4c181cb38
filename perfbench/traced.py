"""Traced in-process run: the CLI's calls, in the CLI's order, with spans and counts.

For each command the replay calls the same exported ``dptraj`` names the CLI
calls and writes the same output files, so the harness can compare them byte
for byte with the CLI's. Spans are kept in memory and written out, with the
counts, when the run ends:

    python3 perfbench/traced.py --commands sanitize --inputs DIR --out DIR

A span records its name, start, end, parent span and run id (one run per
command). Work done in many tiny calls, such as ``RandomSource.stream`` once
per tree node, is recorded as one aggregate child span with its call count.
Spans of one run never overlap except by nesting, so a span's self time is its
duration minus the durations of its children.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from workloads import (
    CORPUS, COUNT_CSV, EPSILON, EVAL_SEED, FSP_CSV, HEIGHT, QUERIES_PER_SUBSET, RELEASE,
    SANITIZE_SEED, TOPK, UNIVERSE,
)

TRACE = "trace.json"
#: Queries per subset and patterns per database whose answers are re-derived
#: by a direct scan after the timed work.
ORACLE_QUERIES = 2
ORACLE_PATTERNS = 10


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.run: str | None = None
        self._open: list[int] = []

    def _record(self, name: str, **fields) -> dict:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run,
            **fields,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str):
        record = self._record(name, start=perf_counter())
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = perf_counter()
            record["seconds"] = record["end"] - record["start"]

    def aggregate(self, name: str, seconds: float, calls: int) -> None:
        """A child of the open span standing for ``calls`` calls that took ``seconds``."""
        self._record(name, seconds=seconds, calls=calls)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name."""
    child_seconds: Counter = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_seconds[s["parent"]] += s["seconds"]
    totals: Counter = Counter()
    for s in spans:
        totals[s["name"]] += s["seconds"] - child_seconds[s["id"]]
    return dict(totals)


def top_level_seconds(spans: list[dict]) -> float:
    return sum(s["seconds"] for s in spans if s["parent"] is None)


def _instrumentation_cost(n: int = 20000) -> float:
    """Seconds one timed call adds: a pair of clock reads and an accumulation."""
    acc = 0.0
    started = perf_counter()
    for _ in range(n):
        t = perf_counter()
        acc += perf_counter() - t
    return (perf_counter() - started) / n


def _load(tracer: Tracer, path: str, universe: str):
    from dptraj import load_db

    with tracer.span("model.load_db"):
        loaded = load_db(path, universe)
    tracer.add("model.input_mb", (os.path.getsize(path) + os.path.getsize(universe)) / 1e6)
    return loaded


def trace_sanitize(tracer: Tracer, inputs: Path, out: Path) -> dict:
    from dptraj import (
        PrivacyParams, RandomSource, build_noisy_tree, consistent_estimates, consolidate,
        generate_release, order_violations, write_db,
    )

    class TimedSource(RandomSource):
        """Times ``stream()``, which ``build_noisy_tree`` calls once per expanded node."""

        def __init__(self, seed: int):
            super().__init__(seed)
            self.calls = 0
            self.seconds = 0.0

        def stream(self, *key):
            started = perf_counter()
            generator = super().stream(*key)
            self.seconds += perf_counter() - started
            self.calls += 1
            return generator

    db, universe = _load(tracer, str(inputs / CORPUS), str(inputs / UNIVERSE))
    params = PrivacyParams(epsilon=EPSILON, height=HEIGHT)
    source = TimedSource(SANITIZE_SEED)
    with tracer.span("tree.build_noisy_tree"):
        tree = build_noisy_tree(db, universe, params, source)
        tracer.aggregate("privacy.stream", source.seconds, source.calls)
    with tracer.span("inference.consolidate"):
        flat = consolidate(tree)
    with tracer.span("inference.consistent_estimates"):
        consistent_estimates(tree, flat)
    with tracer.span("release.generate_release"):
        release = generate_release(tree, use_inference=True, flat=flat)
    release_path = out / RELEASE
    with tracer.span("model.write_db"):
        write_db(release, universe, str(release_path))
    with tracer.span("inference.order_violations"):
        violations = order_violations(tree)

    # The CLI manifest's tree walk, outside the spans.
    nodes = empty_born = depth = 0
    for node in tree.nodes():
        if node.parent is not None:
            nodes += 1
            empty_born += node.empty_born
            depth = max(depth, node.depth)
    tracer.add("model.output_mb", os.path.getsize(release_path) / 1e6)
    tracer.add("tree.nodes", nodes)
    tracer.add("tree.empty_born", empty_born)
    tracer.add("tree.depth", depth)
    tracer.add("tree.input_dup_factor", len(db) / len(set(db.trajectories)))
    tracer.add("privacy.stream.calls", source.calls)
    tracer.add("inference.order_violations", violations)
    tracer.add("release.records", len(release))
    tracer.add("release.dup_factor", len(release) / len(set(release.trajectories)))
    return {"events": source.calls}


def _query_sample(workload) -> list[tuple[int, int]]:
    rng = random.Random(EVAL_SEED)
    return [
        (s, q) for s, queries in enumerate(workload.subsets)
        for q in rng.sample(range(len(queries)), min(ORACLE_QUERIES, len(queries)))
    ]


def trace_eval_count(tracer: Tracer, inputs: Path, out: Path) -> dict:
    import numpy as np
    from dptraj import PresenceIndex, eval_count_query, generate_workload, relative_error
    from dptraj.utility import DEFAULT_SANITY_FRACTION

    raw, universe = _load(tracer, str(inputs / CORPUS), str(inputs / UNIVERSE))
    sanitized, _ = _load(tracer, str(inputs / RELEASE), str(inputs / UNIVERSE))
    with tracer.span("utility.generate_workload"):
        workload = generate_workload(universe, HEIGHT, QUERIES_PER_SUBSET, EVAL_SEED)
    sanity = DEFAULT_SANITY_FRACTION * len(raw)
    with tracer.span("utility.index_build"):
        raw_index = PresenceIndex(raw, len(universe))
    with tracer.span("utility.index_build"):
        sanitized_index = PresenceIndex(sanitized, len(universe))
    sampled = set(_query_sample(workload))
    answers = {}
    samples: list[float] = []
    averages = []
    with tracer.span("utility.query"):
        for s, queries in enumerate(workload.subsets):
            errors = []
            for q, query in enumerate(queries):
                t0 = perf_counter()
                raw_count = raw_index.count(query)
                t1 = perf_counter()
                sanitized_count = sanitized_index.count(query)
                t2 = perf_counter()
                samples += (t1 - t0, t2 - t1)
                if (s, q) in sampled:
                    answers[s, q] = (raw_count, sanitized_count)
                errors.append(relative_error(raw_count, sanitized_count, sanity))
            averages.append(sum(errors) / len(errors))
    with open(out / COUNT_CSV, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["subset", "max_query_len", "queries", "epsilon", "height", "variant",
             "sanity", "avg_relative_error"]
        )
        for i, (max_len, avg) in enumerate(zip(workload.max_lengths, averages), start=1):
            writer.writerow(
                [i, max_len, QUERIES_PER_SUBSET, "", HEIGHT, "", f"{sanity:.6f}", f"{avg:.6f}"]
            )

    mismatches = []
    for (s, q), got in sorted(answers.items()):
        query = workload.subsets[s][q]
        want = (eval_count_query(raw, query), eval_count_query(sanitized, query))
        if got != want:
            mismatches.append(f"subset {s + 1} query {q}: index {got}, scan {want}")
    index_bytes = sum(
        v.nbytes for index in (raw_index, sanitized_index)
        for v in vars(index).values() if isinstance(v, np.ndarray)
    )
    tracer.add("utility.index_mb", index_bytes / 1e6)
    p50, p999 = np.quantile(np.array(samples), [0.5, 0.999]) * 1e6
    tracer.add("utility.query_p50_us", float(p50))
    tracer.add("utility.query_p999_us", float(p999))
    tracer.add("utility.query.samples", len(samples))
    # The mean of the rounded CSV values, as the harness computes it from the CLI's CSV.
    rounded = [float(f"{avg:.6f}") for avg in averages]
    tracer.add("utility.count_rel_error", sum(rounded) / len(rounded))
    tracer.add("release.records", len(sanitized))
    tracer.add("release.dup_factor", len(sanitized) / len(set(sanitized.trajectories)))
    return {"events": len(samples), "oracle_failures": mismatches}


def _contains_in_order(pattern: tuple[int, ...], record: tuple[int, ...]) -> bool:
    rest = iter(record)
    return all(loc in rest for loc in pattern)


def trace_eval_fsp(tracer: Tracer, inputs: Path, out: Path) -> dict:
    from dptraj import fsp_metrics, mine_top_k

    raw, _ = _load(tracer, str(inputs / CORPUS), str(inputs / UNIVERSE))
    sanitized, _ = _load(tracer, str(inputs / RELEASE), str(inputs / UNIVERSE))
    k_max = max(TOPK)
    with tracer.span("utility.mine_top_k"):
        raw_patterns = mine_top_k(raw, k_max)
    with tracer.span("utility.mine_top_k"):
        sanitized_patterns = mine_top_k(sanitized, k_max)
    rows = []
    for k in TOPK:
        tp, fp, fd = fsp_metrics(raw_patterns[:k], sanitized_patterns[:k], k)
        rows.append([k, "", "", "", tp, fp, fd, min(k, len(raw_patterns)),
                     min(k, len(sanitized_patterns))])
    with open(out / FSP_CSV, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k", "epsilon", "height", "variant", "true_positives", "false_positives",
             "false_drops", "mined_raw", "mined_sanitized"]
        )
        writer.writerows(rows)

    rng = random.Random(EVAL_SEED)
    mismatches = []
    for label, db, patterns in (("raw", raw, raw_patterns), ("sanitized", sanitized, sanitized_patterns)):
        weights = Counter(db.trajectories)
        for p in rng.sample(patterns, min(ORACLE_PATTERNS, len(patterns))):
            support = sum(w for t, w in weights.items() if _contains_in_order(p.locations, t))
            if support != p.support:
                mismatches.append(f"{label} pattern {p.locations}: mined {p.support}, scan {support}")
    tracer.add("utility.fsp_tp_250", rows[-1][4])
    return {"events": 0, "oracle_failures": mismatches}


REPLAYS = {"sanitize": trace_sanitize, "eval-count": trace_eval_count, "eval-fsp": trace_eval_fsp}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", required=True, help="comma-separated CLI commands")
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    tracer = Tracer()
    events = 0
    oracle_failures: list[str] = []
    missing: list[str] = []
    for command in args.commands.split(","):
        tracer.run = command
        try:
            result = REPLAYS[command](tracer, args.inputs, args.out)
        except ImportError as exc:
            # A later version of the program no longer exports a name the
            # replay calls: that command's layer metrics are reported missing.
            missing.append(f"{command}: {exc}")
            continue
        events += result["events"]
        oracle_failures += result.get("oracle_failures", [])
    events += len(tracer.spans)
    traced = top_level_seconds(tracer.spans)
    overhead = events * _instrumentation_cost()
    tracer.add("trace.overhead_frac", overhead / traced if traced else 0.0)
    (args.out / TRACE).write_text(
        json.dumps(
            {
                "spans": tracer.spans,
                "counts": tracer.counts,
                "oracle_failures": oracle_failures,
                "missing": missing,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
