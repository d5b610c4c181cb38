import hashlib
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from dptraj.privacy import (
    KAPPA,
    PrivacyParams,
    RandomSource,
    budget_ledger,
    laplace_noise,
    sample_passing_noisy_count,
    uniforms,
)
from dptraj.release import sanitize
from dptraj.tree import _passing_cells, build_noisy_tree, dump_tree

from conftest import make_universe
from oracles import NoThresholds, ZeroNoiseSource, db_entries, entries_db, records_db


class TestPrivacyParams:
    def test_scale_from_budget_split(self):
        # sensitivity 1, per-level budget 0.5 -> scale 2
        params = PrivacyParams(epsilon=1.0, height=2)
        assert params.per_level == pytest.approx(0.5)
        assert params.noise_scale == pytest.approx(2.0)

    def test_threshold_worked_example(self):
        # At |U| = 1,012 the threshold sits three noise standard deviations up.
        params = PrivacyParams(epsilon=3.0, height=3)
        assert params.threshold(1012) == pytest.approx(3 * math.sqrt(2), rel=1e-4)
        assert params.threshold(1012) == pytest.approx(math.log(1012 / (2 * KAPPA)))
        assert params.pass_probability(1012) == pytest.approx(KAPPA / 1012)

    def test_pass_probability_constant_in_budget(self):
        # kappa / |U| over 2 kappa locations or more, and 1/2 (theta = 0) below.
        for epsilon, height in [(0.5, 12), (1.0, 7), (9.0, 2)]:
            params = PrivacyParams(epsilon=epsilon, height=height)
            for size in (15, 16, 1012, 8000):
                assert params.threshold(size) > 0
                assert params.pass_probability(size) == pytest.approx(KAPPA / size)
            for size in (0, 1, 2, 14):
                assert params.threshold(size) == 0.0
                assert params.pass_probability(size) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=0.0, height=3)
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=1.0, height=0)
        for bad in (math.nan, math.inf, -math.inf, 5e-324):
            with pytest.raises(ValueError, match="epsilon"):
                PrivacyParams(epsilon=bad, height=3)

    @given(
        st.one_of(
            st.floats(max_value=0.0),
            st.sampled_from([math.nan, math.inf, -math.inf]),
        ),
        st.integers(1, 20),
    )
    def test_rejects_non_finite_or_non_positive_epsilon(self, epsilon, height):
        with pytest.raises(ValueError, match="epsilon"):
            PrivacyParams(epsilon=epsilon, height=height)

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.integers(1, 20),
        st.integers(0, 10**7),
    )
    def test_accepts_finite_positive_parameters(self, epsilon, height, universe_size):
        params = PrivacyParams(epsilon=epsilon, height=height)
        assert math.isfinite(params.noise_scale) and params.noise_scale > 0
        theta = params.threshold(universe_size)
        assert math.isfinite(theta) and 0 <= theta <= params.expand_threshold(universe_size)
        assert 0 < params.pass_probability(universe_size) <= 0.5

    def test_unthresholded_params_disable_both_thresholds(self):
        # The noise-free tests' double; the library has no such setting.
        params = NoThresholds(epsilon=1.0, height=4)
        for size in (0, 14, 1012):
            assert params.threshold(size) == params.expand_threshold(size) == 0.0
            assert params.pass_probability(size) == 0.5

    def test_thresholds_cannot_be_turned_off(self):
        # Only the epsilon and the height are set; the thresholds follow from them.
        assert [f.name for f in fields(PrivacyParams)] == ["epsilon", "height"]
        with pytest.raises(TypeError):
            PrivacyParams(epsilon=1.0, height=3, thresholded=False)

    def test_expand_threshold(self):
        params = PrivacyParams(epsilon=1.0, height=12)
        assert params.expand_threshold(1012) == pytest.approx(12 * math.log(1012))  # 83.04
        # One form: the thresholds are ln(|U| / (2 kappa)) and ln|U| over the level budget.
        for size in (15, 16, 17, 1012, 8000):
            gap = params.expand_threshold(size) - params.threshold(size)
            assert gap == pytest.approx(math.log(2 * KAPPA) / params.per_level)
        # Below 2 kappa locations the threshold is 0, never above the expand threshold.
        for size in (2, 14):
            assert params.threshold(size) == 0.0 < params.expand_threshold(size)
        assert params.expand_threshold(0) == params.expand_threshold(1) == 0.0
        # An expanded empty-born node: its zero-count candidates pass and reach the
        # expand threshold with probability 1 / (2|U|) each, half a child in all.
        for size in (1, 2, 14, 15, 16, 17, 1012, 8000):
            above = math.exp(
                -params.per_level * (params.expand_threshold(size) - params.threshold(size))
            )
            assert size * params.pass_probability(size) * above == pytest.approx(0.5)


class TestNeighbouringAudit:
    """The tree's shape is epsilon-DP, checked on a pair of neighbouring databases.

    After StatDP (Ding et al., "Detecting Violations of Differential Privacy",
    CCS 2018): estimate an event's probability on D and on D' from fixed seeds,
    and require the Clopper-Pearson lower bound on either probability to be at
    most e^epsilon times the upper bound on the other.
    """

    RUNS = 10_000
    ALPHA = 1e-3  # each Clopper-Pearson interval is a 99.9% two-sided one

    def _bounds(self, hits):
        n, k = self.RUNS, hits
        low = stats.beta.ppf(self.ALPHA / 2, k, n - k + 1) if k else 0.0
        high = stats.beta.ppf(1 - self.ALPHA / 2, k + 1, n - k) if k < n else 1.0
        return low, high

    def test_expanded_node_reveals_no_record(self):
        # Event: node (0,) exists and has a child. Under a rule on true counts it
        # occurs only when a record backs (0,).
        universe = make_universe(64)
        params = PrivacyParams(epsilon=1.0, height=2)

        def hits(db):
            total = 0
            for seed in range(self.RUNS):
                tree = build_noisy_tree(db, universe, params, RandomSource(seed))
                node = np.flatnonzero((tree.depth == 1) & (tree.location == 0))
                total += bool(len(node)) and tree.n_children[node[0]] > 0
            return total

        (low, high), (low_other, high_other) = map(
            self._bounds, (hits(records_db([(0,)])), hits(records_db(())))
        )
        assert low <= math.exp(params.epsilon) * high_other
        assert low_other <= math.exp(params.epsilon) * high


class TestWrittenOrder:
    """The order of the written lines reads no true count, on a neighbouring pair.

    D is 1,000 records ``(L0)`` over 64 locations at height 1, and D' adds one
    ``(L63)``. Written in the build's row order, a data-backed L63 came before
    its empty-born siblings, so "L63 comes right after L0 and is not last" had
    probability 0.017 under D and 0.322 under D' (3,000 seeds each), a ratio
    of about 19 against e^epsilon = 2.72. Written by location id it cannot occur.
    """

    RUNS = 1_000

    def test_no_sibling_order_event(self):
        universe = make_universe(64)
        ids = {token: i for i, token in enumerate(universe.tokens)}
        params = PrivacyParams(epsilon=1.0, height=1)

        def follows(seq):
            return any(a == 0 and b == 63 for a, b in zip(seq, seq[1:-1]))

        released = 0
        for db in (entries_db([(0,)], [1000]), entries_db([(0,), (63,)], [1000, 1])):
            for seed in range(self.RUNS):
                release, tree = sanitize(db, universe, params, RandomSource(seed))
                lines = [loc for (loc,) in db_entries(release)]  # the distinct lines
                assert not follows(lines), seed
                assert not follows([ids[token] for token in dump_tree(tree).split()[::2]]), seed
                released += 63 in lines
        assert released  # L63 is written in some runs, so the event had its chance


class TestLaplace:
    def test_zero_noise_source_is_identity(self):
        # A zero-noise stream's first draw is the noise; its later draws place no cell.
        for size in (1, 3):
            stream = ZeroNoiseSource().stream(1)
            assert (5 + laplace_noise(2.0, stream, size=size) == 5.0).all()
            assert not len(_passing_cells(10**6, 0.5, stream))

    def test_rejects_bad_scale(self):
        rng = RandomSource(0).stream(0)
        with pytest.raises(ValueError):
            laplace_noise(0.0, rng, size=1)

    def test_moments(self):
        # Laplace(scale) has mean 0 and variance 2*scale^2
        rng = RandomSource(2024).stream(0)
        samples = laplace_noise(1.0, rng, size=1_000_000)
        assert abs(samples.mean()) < 0.01
        assert abs(samples.var() - 2.0) < 0.05

    def test_in_place_transform_keeps_every_bit(self):
        # The transform runs in place; it must equal the plain expression bit for
        # bit, also on the draws made again because their uniform was exactly 0.
        class _ZeroedWords:
            """A stream whose first call has every 1,000th 64-bit word zeroed."""

            def __init__(self):
                self.stream, self.calls = RandomSource(9).stream(0), 0

            def randbytes(self, n):
                words = np.frombuffer(self.stream.randbytes(n), dtype="<u8").copy()
                if not self.calls:
                    words[::1000] = 0
                self.calls += 1
                return words.tobytes()

        size = 200_000
        for scale in (1.0, 1.7, 12.0):
            rng = _ZeroedWords()
            got = laplace_noise(scale, rng, size=size)
            assert rng.calls == 2  # the 200 zeroed words are drawn again
            rng = _ZeroedWords()
            u = 0.5 - uniforms(rng, size)
            while (degenerate := u == 0.5).any():
                u[degenerate] = 0.5 - uniforms(rng, int(degenerate.sum()))
            want = -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))
            assert got.tobytes() == want.tobytes()

    def test_ks_against_analytic_cdf(self):
        rng = RandomSource(7).stream(1)
        samples = laplace_noise(1.5, rng, size=100_000)
        result = stats.kstest(samples, stats.laplace(scale=1.5).cdf)
        assert result.pvalue > 0.001


class TestPassCount:
    """How many of a depth's zero-count cells pass, as ``_passing_cells`` draws them."""

    def test_zero_candidates(self):
        p = PrivacyParams(epsilon=1.0, height=2).pass_probability(1012)
        assert len(_passing_cells(0, p, RandomSource(1).stream(0))) == 0

    def test_negative_rejected(self):
        p = PrivacyParams(epsilon=1.0, height=2).pass_probability(1012)
        with pytest.raises(ValueError):
            _passing_cells(-1, p, RandomSource(1).stream(0))

    def test_binomial_mean(self):
        # 100,000 nodes' cells over 1,012 locations in one draw: each node's count is
        # Binomial(1012, p).
        params = PrivacyParams(epsilon=1.0, height=2)
        p = params.pass_probability(1012)
        m, trials = 1012, 100_000
        cells = _passing_cells(m * trials, p, RandomSource(11).stream(0))
        draws = np.bincount(cells // m, minlength=trials)
        se = math.sqrt(m * p * (1 - p) / trials)
        assert abs(draws.mean() - m * p) < 3 * se
        assert abs(draws.var() / (m * p * (1 - p)) - 1) < 0.03

    def test_bounded_by_candidates(self):
        params = PrivacyParams(epsilon=0.1, height=1)  # over 10 locations, half pass
        p = params.pass_probability(10)
        rng = RandomSource(5).stream(0)
        for m in (1, 3, 10):
            for _ in range(200):
                cells = _passing_cells(m, p, rng)
                assert cells.dtype == np.int64 and 0 <= len(cells) <= m
                assert (cells >= 0).all() and (cells < m).all() and (np.diff(cells) > 0).all()


class TestPassingNoisyCount:
    def test_lower_edge_is_threshold(self):
        params = PrivacyParams(epsilon=2.0, height=2)

        class _Zero:
            def randbytes(self, n):
                return bytes(n)

        values = sample_passing_noisy_count(params, 1012, _Zero(), size=1)
        assert values == pytest.approx(params.threshold(1012))

    def test_support_above_threshold(self):
        params = PrivacyParams(epsilon=1.0, height=4)
        rng = RandomSource(21).stream(0)
        draws = sample_passing_noisy_count(params, 1012, rng, size=20_000)
        assert (draws >= params.threshold(1012)).all()

    def test_shifted_exponential_mean(self):
        params = PrivacyParams(epsilon=1.0, height=4)
        rng = RandomSource(22).stream(0)
        n = 1_000_000
        draws = sample_passing_noisy_count(params, 1012, rng, size=n)
        expected = params.threshold(1012) + 1.0 / params.per_level
        se = (1.0 / params.per_level) / math.sqrt(n)
        assert abs(draws.mean() - expected) < 3 * se


class TestStatisticalProcessEquivalence:
    def test_matches_per_candidate_simulation(self):
        # One-shot draw (the passing cells of ``trials`` nodes over m locations,
        # then conditional counts) versus noising each empty candidate
        # individually and keeping those >= threshold.
        params = PrivacyParams(epsilon=1.0, height=2)
        m, trials = 50, 20_000
        process_rng = RandomSource(31).stream(0)
        cells = _passing_cells(trials * m, params.pass_probability(m), process_rng)
        ks = np.bincount(cells // m, minlength=trials)
        values = sample_passing_noisy_count(params, m, process_rng, size=int(ks.sum()))

        naive_rng = np.random.default_rng(32)
        noise = naive_rng.laplace(scale=params.noise_scale, size=(trials, m))
        passing = noise >= params.threshold(m)
        naive_values = noise[passing]

        p_process = ks.sum() / (trials * m)
        p_naive = passing.sum() / (trials * m)
        pooled = (ks.sum() + passing.sum()) / (2 * trials * m)
        se_rate = math.sqrt(pooled * (1 - pooled) * 2 / (trials * m))
        assert abs(p_process - p_naive) < 3 * se_rate

        se_mean = math.sqrt(values.var() / len(values) + naive_values.var() / len(naive_values))
        assert abs(values.mean() - naive_values.mean()) < 3 * se_mean


class TestBudgetLedger:
    def test_twelve_equal_levels(self):
        ledger = budget_ledger(PrivacyParams(epsilon=1.0, height=12))
        assert ledger.height == 12
        assert all(share == Fraction(1.0) / 12 for share in ledger.levels)
        assert ledger.conserved

    def test_worked_example(self):
        ledger = budget_ledger(PrivacyParams(epsilon=3 * math.sqrt(2), height=3))
        assert float(ledger.levels[0]) == pytest.approx(math.sqrt(2))
        assert ledger.conserved

    def test_single_level(self):
        ledger = budget_ledger(PrivacyParams(epsilon=0.7, height=1))
        assert ledger.levels == (Fraction(0.7),)
        assert ledger.conserved

    def test_conservation_is_exact_for_awkward_splits(self):
        for epsilon in (0.1, 1.0, 0.3, 2.5, 1e-3):
            for height in (1, 3, 7, 12, 19):
                ledger = budget_ledger(PrivacyParams(epsilon=epsilon, height=height))
                assert ledger.total == Fraction(epsilon)

    def test_describe_mentions_every_level(self):
        ledger = budget_ledger(PrivacyParams(epsilon=1.0, height=3))
        lines = ledger.describe()
        assert len(lines) == 4
        assert "conserved=true" in lines[-1]


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = uniforms(RandomSource(42).stream(1), 5)
        b = uniforms(RandomSource(42).stream(1), 5)
        assert np.array_equal(a, b)

    def test_different_keys_decorrelate(self):
        a = uniforms(RandomSource(42).stream(1), 5)
        b = uniforms(RandomSource(42).stream(2), 5)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(-1)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5])
    @pytest.mark.parametrize("key", [(0,), (1,), (11,), (12,)])
    def test_stream_seeds_like_seed_sequence_of_seed_and_key(self, seed, key):
        # A stream is keyed by the sequence of the seed and its key, one depth:
        # call i of randbytes is SHAKE-256 of "dptraj/{seed}/{depth}/{i}", checked
        # here against hashlib's implementation. Were that to change, so would
        # every release made at a fixed seed.
        (depth,) = key
        stream = RandomSource(seed).stream(*key)
        for i, n in enumerate((64, 8, 0, 8)):
            text = f"dptraj/{seed}/{depth}/{i}".encode()
            assert stream.randbytes(n) == hashlib.shake_256(text).digest(n), i

    def test_stream_keys_are_distinct_and_pinned(self):
        firsts = {RandomSource(s).stream(d).randbytes(8) for s in range(200) for d in range(200)}
        assert len(firsts) == 200 * 200
        # Seed 42's depth-0 stream's first uniform, pinned.
        assert uniforms(RandomSource(42).stream(0), 1)[0] == 1683872911770086 / 2**53
