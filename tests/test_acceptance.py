"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Structural criteria are exact; statistical criteria
use fixed seeds and the stated tolerances, so the whole suite is
deterministic.
"""

import itertools
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dptraj.datagen import GenConfig, generate
from dptraj.privacy import (
    PrivacyParams,
    RandomSource,
    budget_ledger,
    sample_passing_noisy_count,
)
from dptraj.release import generate_release, sanitize
from dptraj.tree import _passing_cells
from dptraj.utility import evaluate_workload, fsp_metrics, generate_workload, mine_top_k

from conftest import make_universe
from oracles import NoThresholds, ZeroNoiseSource, isotonic_fit, isotonic_fit_minmax, records_db

SRC = str(Path(__file__).resolve().parent.parent / "src")

EPSILON_SWEEP = (0.5, 0.75, 1.0, 1.25, 1.5)
UTILITY_SEEDS = tuple(range(10))

#: Desk-scale transit-like corpus shared by the two utility criteria:
#: every record rides one of 20 lines for a geometric number of stops,
#: with a 5% unstructured background.
UTILITY_CORPUS = GenConfig(
    n_locations=200,
    n_records=100_000,
    avg_len=6.7,
    max_len=12,
    n_planted_routes=20,
    planted_fraction=0.95,
    route_length=12,
    route_skew=0.7,
    zipf_skew=0.6,
    seed=0,
)


def _report(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number}: {text} ... PASS")


@pytest.fixture(scope="module")
def utility_corpus():
    return generate(UTILITY_CORPUS)


@pytest.fixture(scope="module")
def utility_workload(utility_corpus):
    _, universe = utility_corpus
    return generate_workload(universe, height=12, per_subset=2000, seed=100)


def _stm_like(n_records: int, n_locations: int) -> GenConfig:
    return GenConfig(
        n_locations=n_locations,
        n_records=n_records,
        avg_len=6.7,
        max_len=121,
        n_planted_routes=max(4, n_locations // 12),
        planted_fraction=0.95,
        route_length=12,
        route_skew=0.7,
        zipf_skew=0.6,
        seed=0,
    )


def test_criterion_1_zero_noise_identity():
    rnd = random.Random(20240)
    params = NoThresholds(epsilon=1.0, height=8)
    source = ZeroNoiseSource()
    cases = []
    for _ in range(100):
        universe_size = rnd.randint(2, 20)
        rows = [
            tuple(rnd.randrange(universe_size) for _ in range(rnd.randint(1, 8)))
            for _ in range(rnd.randint(1, 500))
        ]
        cases.append((records_db(rows), make_universe(universe_size)))

    def timed_pass():
        started = time.perf_counter()
        for db, universe in cases:
            release, _ = sanitize(db, universe, params, source, variant="full")
            assert Counter(release.trajectories) == Counter(db.trajectories)
        return time.perf_counter() - started

    # The least of three passes: a busy host slows a pass, never speeds one up.
    elapsed = min(timed_pass() for _ in range(3))
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"zero-noise sanitize reproduces 100 random databases exactly ({elapsed:.2f}s)")


def test_criterion_2_isotonic_matches_brute_force():
    def brute_force(values):
        n = len(values)
        best, best_cost = None, float("inf")
        for mask in itertools.product([0, 1], repeat=n - 1):
            blocks = [[values[0]]]
            for v, cut in zip(values[1:], mask):
                (blocks.append([v]) if cut else blocks[-1].append(v))
            means = [sum(b) / len(b) for b in blocks]
            if any(a > b for a, b in zip(means, means[1:])):
                continue
            fit = [m for m, b in zip(means, blocks) for _ in b]
            cost = sum((f - v) ** 2 for f, v in zip(fit, values))
            if cost < best_cost:
                best_cost, best = cost, fit
        return best

    rnd = random.Random(555)
    started = time.perf_counter()
    for _ in range(1000):
        values = [rnd.uniform(-10, 10) for _ in range(rnd.randint(1, 6))]
        expected = brute_force(values)
        for fit in (isotonic_fit(values), isotonic_fit_minmax(values)):
            assert max(abs(a - b) for a, b in zip(fit, expected)) < 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(2, f"both isotonic implementations match brute force on 1000 sequences ({elapsed:.1f}s)")


def test_criterion_3_one_shot_empty_candidate_process():
    params = PrivacyParams(epsilon=1.0, height=2)
    m, trials = 50, 100_000
    started = time.perf_counter()

    # The process: one cell draw over ``trials`` nodes' m zero-count candidates each.
    process_rng = RandomSource(404).stream(0)
    cells = _passing_cells(trials * m, params.pass_probability(m), process_rng)
    pass_counts = np.bincount(cells // m, minlength=trials)
    process_values = sample_passing_noisy_count(
        params, m, process_rng, size=int(pass_counts.sum())
    )

    naive_rng = np.random.default_rng(405)
    noise = naive_rng.laplace(scale=params.noise_scale, size=(trials, m))
    naive_mask = noise >= params.threshold(m)
    naive_values = noise[naive_mask]

    total = trials * m
    p_process = pass_counts.sum() / total
    p_naive = naive_mask.sum() / total
    pooled = (pass_counts.sum() + naive_mask.sum()) / (2 * total)
    se_rate = math.sqrt(pooled * (1 - pooled) * 2 / total)
    assert abs(p_process - p_naive) < 3 * se_rate

    se_mean = math.sqrt(
        process_values.var() / len(process_values) + naive_values.var() / len(naive_values)
    )
    assert abs(process_values.mean() - naive_values.mean()) < 3 * se_mean
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(
        3,
        "one-shot empty-candidate sampling matches per-candidate simulation "
        f"(rate diff {abs(p_process - p_naive):.2e} < 3se, mean diff "
        f"{abs(process_values.mean() - naive_values.mean()):.3f} < 3se, {elapsed:.1f}s)",
    )


def test_criterion_4_children_never_exceed_parent():
    rnd = random.Random(777)
    checked_nodes = 0
    for run in range(50):
        config = GenConfig(
            n_locations=rnd.choice([30, 60, 120]),
            n_records=3000,
            avg_len=5.0,
            max_len=20,
            n_planted_routes=rnd.choice([0, 5]),
            planted_fraction=0.6,
            route_length=4,
            zipf_skew=rnd.choice([0.0, 1.0]),
            seed=run,
        )
        db, universe = generate(config)
        params = PrivacyParams(
            epsilon=rnd.choice([0.5, 1.0, 2.0]), height=rnd.choice([4, 8, 12])
        )
        _, tree = sanitize(db, universe, params, RandomSource(run), variant="full")
        child_total = np.bincount(tree.parent[1:], weights=tree.adjusted[1:], minlength=len(tree))
        internal = np.flatnonzero(tree.n_children[1:]) + 1
        assert (child_total[internal] <= tree.adjusted[internal] + 1e-9).all()
        checked_nodes += len(internal)
    _report(4, f"children's adjusted counts bounded by parent at {checked_nodes} internal nodes over 50 runs")


def test_criterion_5_count_query_utility_trend(utility_corpus, utility_workload):
    db, universe = utility_corpus
    started = time.perf_counter()

    means = []
    for epsilon in EPSILON_SWEEP:
        params = PrivacyParams(epsilon=epsilon, height=12)
        release, _ = sanitize(db, universe, params, RandomSource(0), variant="full")
        errors = evaluate_workload(db, release, utility_workload, len(universe))
        means.append(sum(errors) / len(errors))
    inversions = sum(1 for a, b in zip(means, means[1:]) if b > a)
    assert inversions <= 1, f"means {means}"

    params = PrivacyParams(epsilon=0.5, height=12)
    wins, improvements = 0, []
    for seed in UTILITY_SEEDS:
        release, tree = sanitize(db, universe, params, RandomSource(seed), variant="full")
        basic = generate_release(tree, use_inference=False)
        full_err = sum(evaluate_workload(db, release, utility_workload, len(universe))) / 4
        basic_err = sum(evaluate_workload(db, basic, utility_workload, len(universe))) / 4
        if full_err < basic_err:
            wins += 1
        improvements.append((basic_err - full_err) / basic_err)
    mean_improvement = sum(improvements) / len(improvements)
    assert wins >= 8, f"full beat basic in only {wins}/10 seeds"
    assert mean_improvement >= 0.10, f"mean improvement {mean_improvement:.3f}"

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report(
        5,
        f"relative error falls with budget ({[round(m, 4) for m in means]}, "
        f"{inversions} inversion[s]); inference wins {wins}/10 seeds with "
        f"{mean_improvement:.0%} mean improvement ({elapsed:.0f}s)",
    )


def test_criterion_6_pattern_mining_utility(utility_corpus):
    db, universe = utility_corpus
    started = time.perf_counter()
    raw_top = mine_top_k(db, 200)

    params = PrivacyParams(epsilon=1.0, height=12)
    primary_tp50 = None
    wins = {50: 0, 100: 0, 200: 0}
    for seed in UTILITY_SEEDS:
        release, tree = sanitize(db, universe, params, RandomSource(seed), variant="full")
        basic = generate_release(tree, use_inference=False)
        full_top = mine_top_k(release, 200)
        basic_top = mine_top_k(basic, 200)
        for k in (50, 100, 200):
            full_tp, _, _ = fsp_metrics(raw_top[:k], full_top[:k], k)
            basic_tp, _, _ = fsp_metrics(raw_top[:k], basic_top[:k], k)
            if full_tp >= basic_tp:
                wins[k] += 1
            if k == 50 and seed == UTILITY_SEEDS[0]:
                primary_tp50 = full_tp

    assert primary_tp50 >= 45, f"TP@50 = {primary_tp50}"
    for k, count in wins.items():
        assert count >= 8, f"full >= basic at k={k} in only {count}/10 seeds"

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report(
        6,
        f"top-50 overlap {primary_tp50}/50 after sanitization; inference at least "
        f"matches the basic variant in {min(wins.values())}/10 seeds ({elapsed:.0f}s)",
    )


def test_criterion_7_scalability():
    params = PrivacyParams(epsilon=1.0, height=12)

    def timed_run(n_records, n_locations):
        # The least of three runs: a busy host slows a run, never speeds one up.
        db, universe = generate(_stm_like(n_records, n_locations))
        times = []
        for _ in range(3):
            started = time.perf_counter()
            sanitize(db, universe, params, RandomSource(7), variant="full")
            times.append(time.perf_counter() - started)
        return min(times)

    record_times = [timed_run(n, 1012) for n in (100_000, 200_000, 400_000)]
    for smaller, bigger in zip(record_times, record_times[1:]):
        assert bigger <= 1.5 * (2 * smaller), f"record sweep {record_times}"

    location_times = [timed_run(200_000, size) for size in (250, 500, 1000)]
    for smaller, bigger in zip(location_times, location_times[1:]):
        assert bigger <= 1.5 * (2 * smaller), f"location sweep {location_times}"

    full_scale = timed_run(1_210_096, 1012)
    assert full_scale <= 120.0, f"full-scale run took {full_scale:.1f}s"
    _report(
        7,
        f"runtime stays within 1.5x linear under doubling (records "
        f"{[round(t, 2) for t in record_times]}s, locations "
        f"{[round(t, 2) for t in location_times]}s); full scale {full_scale:.1f}s <= 120s",
    )


@pytest.mark.parametrize("n_locations", [4000, 8000])
def test_large_universe_release_stays_near_input_size(n_locations):
    # On criterion 7's recipe an expanded node bears about kappa empty-born
    # children whatever |U| is. At the paper's fixed two-sigma threshold it bore
    # about 0.03 |U|, and the release was 7-9x the input here.
    db, universe = generate(_stm_like(20_000, n_locations))
    params = PrivacyParams(epsilon=1.0, height=12)
    release, _ = sanitize(db, universe, params, RandomSource(7), variant="full")
    assert len(release) <= 1.5 * len(db), f"released {len(release)} for {len(db)} records"


def test_criterion_8_budget_ledger_exact():
    heights = (1, 2, 3, 4, 7, 8, 12, 19, 20)
    epsilons = tuple(EPSILON_SWEEP) + (2.0, 3.0, 1e-3, 3 * math.sqrt(2))
    combos = 0
    for epsilon in epsilons:
        for height in heights:
            ledger = budget_ledger(PrivacyParams(epsilon=epsilon, height=height))
            assert ledger.height == height
            share = Fraction(epsilon) / height
            assert all(level == share for level in ledger.levels)
            assert ledger.total == Fraction(epsilon)
            combos += 1
    _report(8, f"per-level budget is epsilon/height and sums back exactly for {combos} parameter combinations")


def test_criterion_9_bit_identical_runs(tmp_path):
    def run_cli(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "dptraj", *map(str, args)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        return result

    corpus = tmp_path / "corpus.txt"
    universe = tmp_path / "universe.txt"
    run_cli(
        "gen", "--output", corpus, "--universe-out", universe,
        "--n-locations", "40", "--n-records", "4000", "--avg-len", "5",
        "--max-len", "12", "--n-planted-routes", "5", "--zipf-skew", "0.8",
        "--seed", "21",
    )

    releases = {}
    for tag in ("a", "b", "c"):
        out = tmp_path / f"release_{tag}.txt"
        run_cli(
            "sanitize", "--input", corpus, "--output", out, "--epsilon", "1.0",
            "--height", "8", "--seed", "33", "--universe", universe,
        )
        releases[tag] = out.read_bytes()
    assert releases["a"] == releases["b"], "same flags, same seed, different bytes"
    assert releases["a"] == releases["c"], "same flags, same seed, different bytes"

    reports = []
    for tag in ("a", "b", "c"):
        out = tmp_path / f"count_{tag}.csv"
        run_cli(
            "eval-count", "--raw", corpus, "--sanitized", tmp_path / "release_a.txt",
            "--universe", universe, "--height", "8", "--queries-per-subset", "50",
            "--seed", "5", "--output", out,
        )
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert reports[0] == reports[2]

    fsp_reports = []
    for tag in ("a", "b"):
        out = tmp_path / f"fsp_{tag}.csv"
        run_cli(
            "eval-fsp", "--raw", corpus, "--sanitized", tmp_path / "release_a.txt",
            "--universe", universe, "--topk", "10,20", "--output", out,
        )
        fsp_reports.append(out.read_bytes())
    assert fsp_reports[0] == fsp_reports[1]
    _report(9, "releases byte-identical across reruns; CSV reports across reruns")
