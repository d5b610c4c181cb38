import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "dptraj", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture()
def sample_paths(tmp_path, sample_file):
    universe = tmp_path / "universe.txt"
    universe.write_text("L1\nL2\nL3\nL4\n", encoding="utf-8")
    return sample_file, universe


class TestSanitize:
    def test_writes_release_and_manifest(self, tmp_path, sample_paths):
        data, universe = sample_paths
        out = tmp_path / "release.txt"
        result = run_cli(
            "sanitize", "--input", data, "--output", out, "--epsilon", "4.0",
            "--height", "3", "--seed", "11", "--universe", universe,
        )
        assert result.returncode == 0, result.stderr
        assert out.exists()
        assert "release.records=" in result.stdout
        assert "budget.total epsilon=4 conserved=true" in result.stdout
        assert "seed=11" in result.stdout

    def test_root_only_tree_releases_nothing(self, tmp_path):
        data = tmp_path / "empty.txt"
        data.write_text("", encoding="utf-8")
        universe = tmp_path / "u.txt"
        universe.write_text("a\nb\nc\n", encoding="utf-8")
        for variant in ("full", "basic"):
            out = tmp_path / f"{variant}.txt"
            result = run_cli(
                "sanitize", "--input", data, "--universe", universe, "--output", out,
                "--epsilon", "0.1", "--height", "3", "--seed", "1", "--variant", variant,
            )
            assert result.returncode == 0, (variant, result.stderr)
            assert "tree.nodes=0 " in result.stdout
            assert "release.records=0 " in result.stdout
            assert out.read_bytes() == b""

    def test_deterministic_given_seed(self, tmp_path, sample_paths):
        # threshold works out to 2.0 for this budget/height split
        data, universe = sample_paths
        outputs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            result = run_cli(
                "sanitize", "--input", data, "--output", out,
                "--epsilon", "4.242640687119285", "--height", "3", "--seed", "3",
                "--universe", universe,
            )
            assert result.returncode == 0, result.stderr
            assert "theta=2" in result.stdout
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_from_environment(self, tmp_path, sample_paths):
        data, universe = sample_paths
        out_env = tmp_path / "env.txt"
        result = run_cli(
            "sanitize", "--input", data, "--output", out_env, "--epsilon", "2.0",
            "--height", "4", "--universe", universe,
            env_extra={"DPTRAJ_SEED": "3"},
        )
        assert result.returncode == 0, result.stderr
        assert "seed=3" in result.stdout
        out_flag = tmp_path / "flag.txt"
        run_cli(
            "sanitize", "--input", data, "--output", out_flag, "--epsilon", "2.0",
            "--height", "4", "--seed", "3", "--universe", universe,
        )
        assert out_env.read_bytes() == out_flag.read_bytes()

    def test_variants_share_tree_but_not_release(self, tmp_path, sample_paths):
        data, universe = sample_paths
        dumps, releases = [], []
        for variant in ("basic", "full"):
            out = tmp_path / f"{variant}.txt"
            dump = tmp_path / f"{variant}.tree"
            result = run_cli(
                "sanitize", "--input", data, "--output", out, "--epsilon", "3.0",
                "--height", "3", "--seed", "5", "--universe", universe,
                "--variant", variant, "--dump-tree", dump,
            )
            assert result.returncode == 0, result.stderr
            dumps.append(dump.read_bytes())
            releases.append(out.read_bytes())
        assert dumps[0] == dumps[1]

    def test_missing_input_is_io_error(self, tmp_path, sample_paths):
        _, universe = sample_paths
        result = run_cli(
            "sanitize", "--input", tmp_path / "missing.txt",
            "--output", tmp_path / "o.txt", "--epsilon", "1.0", "--seed", "0",
            "--universe", universe,
        )
        assert result.returncode == 1

    def test_bad_epsilon_is_param_error(self, tmp_path, sample_paths):
        data, universe = sample_paths
        result = run_cli(
            "sanitize", "--input", data, "--output", tmp_path / "o.txt",
            "--epsilon", "0", "--seed", "0", "--universe", universe,
        )
        assert result.returncode == 2

    def test_out_of_range_params_are_param_errors(self, tmp_path, sample_paths):
        data, universe = sample_paths
        base = ("sanitize", "--input", data, "--output", tmp_path / "o.txt",
                "--seed", "0", "--universe", universe)
        for flags, name in [
            (("--epsilon", "inf"), "epsilon"),
            (("--epsilon", "1", "--theta-mult", "nan"), "theta multiplier"),
        ]:
            result = run_cli(*base, *flags)
            assert result.returncode == 2, flags
            assert name in result.stderr
        assert not (tmp_path / "o.txt").exists()

    def test_non_utf8_input_is_data_error(self, tmp_path, sample_paths):
        data, universe = sample_paths
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"L1 \xff\xfe L2\n")
        for input_path, universe_path in [(bad, universe), (data, bad)]:
            result = run_cli(
                "sanitize", "--input", input_path, "--output", tmp_path / "o.txt",
                "--epsilon", "1", "--seed", "0", "--universe", universe_path,
            )
            assert result.returncode == 1
            assert str(bad) in result.stderr

    def test_unknown_token_is_universe_error(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("A B\n", encoding="utf-8")
        universe = tmp_path / "u.txt"
        universe.write_text("A\n", encoding="utf-8")
        result = run_cli(
            "sanitize", "--input", data, "--output", tmp_path / "o.txt",
            "--epsilon", "1.0", "--seed", "0", "--universe", universe,
        )
        assert result.returncode == 3

    def test_derived_universe_warns_but_runs(self, tmp_path, sample_paths):
        data, _ = sample_paths
        out = tmp_path / "release.txt"
        result = run_cli(
            "sanitize", "--input", data, "--output", out, "--epsilon", "4.0",
            "--height", "3", "--seed", "2",
        )
        assert result.returncode == 0, result.stderr
        assert "universe" in result.stderr  # data-derived domain warning
        assert out.exists()

    def test_theta_mult_and_expand_empty_flags(self, tmp_path, sample_paths):
        data, universe = sample_paths
        out = tmp_path / "release.txt"
        result = run_cli(
            "sanitize", "--input", data, "--output", out, "--epsilon", "4.0",
            "--height", "3", "--seed", "2", "--universe", universe,
            "--theta-mult", "0.5", "--expand-empty",
        )
        assert result.returncode == 0, result.stderr
        assert "theta_mult=0.5" in result.stdout
        assert "expand_empty=true" in result.stdout


class TestEvalCount:
    def test_identity_run_reports_zero_errors(self, tmp_path, sample_paths):
        data, universe = sample_paths
        out = tmp_path / "report.csv"
        result = run_cli(
            "eval-count", "--raw", data, "--sanitized", data,
            "--universe", universe, "--height", "4",
            "--queries-per-subset", "20", "--seed", "1", "--output", out,
            "--epsilon", "1.0", "--variant", "full",
        )
        assert result.returncode == 0, result.stderr
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 4
        assert all(float(r["avg_relative_error"]) == 0.0 for r in rows)
        assert rows[0]["epsilon"] == "1.0"
        assert rows[0]["variant"] == "full"

    def test_default_sanity_fraction(self, tmp_path, sample_paths):
        data, universe = sample_paths
        out = tmp_path / "report.csv"
        result = run_cli(
            "eval-count", "--raw", data, "--sanitized", data,
            "--universe", universe, "--height", "4",
            "--queries-per-subset", "5", "--seed", "1", "--output", out,
        )
        assert result.returncode == 0, result.stderr
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert float(rows[0]["sanity"]) == pytest.approx(0.001 * 8)

    def test_empty_raw_is_data_error(self, tmp_path, sample_paths):
        data, universe = sample_paths
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        result = run_cli(
            "eval-count", "--raw", empty, "--sanitized", data, "--universe", universe,
            "--queries-per-subset", "5", "--seed", "1",
        )
        assert result.returncode == 1
        assert "raw database is empty" in result.stderr

    def test_non_finite_sanity_fraction_is_param_error(self, tmp_path, sample_paths):
        data, universe = sample_paths
        for value in ("nan", "inf", "0", "-0.5"):
            result = run_cli(
                "eval-count", "--raw", data, "--sanitized", data, "--universe", universe,
                "--queries-per-subset", "5", "--seed", "1", "--sanity-fraction", value,
                "--output", tmp_path / "o.csv",
            )
            assert result.returncode == 2, value
            assert "--sanity-fraction" in result.stderr
            assert "Traceback" not in result.stderr
        assert not (tmp_path / "o.csv").exists()

    def test_deterministic_reports(self, tmp_path, sample_paths):
        data, universe = sample_paths
        texts = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            run_cli(
                "eval-count", "--raw", data, "--sanitized", data,
                "--universe", universe, "--height", "8",
                "--queries-per-subset", "30", "--seed", "9", "--output", out,
            )
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


class TestPinnedRelease:
    """Release and tree-dump bytes at a fixed seed, on the criterion-9 corpus.

    The digests were recorded before the tree moved to preorder arrays; any
    change to a draw, to the child order or to the inference arithmetic shows
    up here.
    """

    CORPUS = "07c4cdd7e0a9fc577e9780745ca9237fd28e5f9231508c99029ae90894e17310"
    RUNS = {
        # flags: (release digest, --dump-tree digest)
        ("--variant", "full"): (
            "bd9c894d2818525b54cca342231d050a2d97df40496d7d9291ab0c28486a1d43",
            "c722e98df88cd603e5a9bc7c9fcd280be9d0a9a1c4164c45a4dd32ad832bf677",
        ),
        ("--variant", "basic"): (
            "caa36ad34721054f8f01be045f90b86962c77066d2510d836bd1e4d945692c61",
            "c722e98df88cd603e5a9bc7c9fcd280be9d0a9a1c4164c45a4dd32ad832bf677",
        ),
        ("--expand-empty",): (
            "661b99c089947364f5520176e4e97c666e92757cb6c3b7d0d6b16546749b0a5c",
            "4dea79050959720a65717f9806f8974bc027a63051818ff69abc336c07ccf633",
        ),
        # ~43% of empty candidates pass, so the one-shot sampler's swaps collide.
        ("--theta-mult", "0.1"): (
            "50ddeeef6613774743c0977534056b7203df7d2e0a08c41bb87153928acee06a",
            "ac2b2450866e4d7383889f6b2ccbfb91a2eb0b8044311439e874c58aa5e7a90b",
        ),
    }

    def test_release_and_dump_digests(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        universe = tmp_path / "universe.txt"
        result = run_cli(
            "gen", "--output", corpus, "--universe-out", universe,
            "--n-locations", "40", "--n-records", "4000", "--avg-len", "5",
            "--max-len", "12", "--n-planted-routes", "5", "--zipf-skew", "0.8",
            "--seed", "21",
        )
        assert result.returncode == 0, result.stderr
        assert hashlib.sha256(corpus.read_bytes()).hexdigest() == self.CORPUS
        for flags, (release_digest, dump_digest) in self.RUNS.items():
            out, dump = tmp_path / "release.txt", tmp_path / "tree.txt"
            result = run_cli(
                "sanitize", "--input", corpus, "--output", out, "--epsilon", "1.0",
                "--height", "8", "--seed", "33", "--universe", universe,
                "--dump-tree", dump, *flags,
            )
            assert result.returncode == 0, result.stderr
            assert hashlib.sha256(out.read_bytes()).hexdigest() == release_digest, flags
            assert hashlib.sha256(dump.read_bytes()).hexdigest() == dump_digest, flags


class TestEvalFsp:
    def test_identity_run_gets_full_overlap(self, tmp_path, sample_paths):
        data, universe = sample_paths
        out = tmp_path / "fsp.csv"
        result = run_cli(
            "eval-fsp", "--raw", data, "--sanitized", data,
            "--universe", universe, "--topk", "5,10", "--output", out,
        )
        assert result.returncode == 0, result.stderr
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["k"] for r in rows] == ["5", "10"]
        for row in rows:
            assert row["true_positives"] == row["mined_raw"]
            assert row["false_positives"] == "0"
            assert row["false_drops"] == "0"

    def test_oversized_k_flagged_in_counts(self, tmp_path, sample_paths):
        data, universe = sample_paths
        out = tmp_path / "fsp.csv"
        result = run_cli(
            "eval-fsp", "--raw", data, "--sanitized", data,
            "--universe", universe, "--topk", "100000", "--output", out,
        )
        assert result.returncode == 0, result.stderr
        row = next(csv.DictReader(out.read_text().splitlines()))
        assert int(row["mined_raw"]) < 100000

    def test_non_positive_max_pattern_len_is_param_error(self, tmp_path, sample_paths):
        data, universe = sample_paths
        for value in ("0", "-2"):
            result = run_cli(
                "eval-fsp", "--raw", data, "--sanitized", data,
                "--universe", universe, "--topk", "5", "--max-pattern-len", value,
            )
            assert result.returncode == 2, value
            assert "--max-pattern-len" in result.stderr

    def test_bad_topk_is_param_error(self, tmp_path, sample_paths):
        data, universe = sample_paths
        result = run_cli(
            "eval-fsp", "--raw", data, "--sanitized", data,
            "--universe", universe, "--topk", "0",
        )
        assert result.returncode == 2


class TestGenAndStats:
    def test_gen_writes_loadable_corpus(self, tmp_path):
        out = tmp_path / "corpus.txt"
        uni = tmp_path / "universe.txt"
        result = run_cli(
            "gen", "--output", out, "--universe-out", uni,
            "--n-locations", "12", "--n-records", "200", "--avg-len", "3",
            "--max-len", "10", "--seed", "4",
        )
        assert result.returncode == 0, result.stderr
        assert "records=200" in result.stdout
        stats = run_cli("stats", "--input", out, "--universe", uni)
        assert stats.returncode == 0, stats.stderr
        assert stats.stdout.startswith("length,count")
        assert "records=200" in stats.stderr

    def test_gen_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            '{"n_locations": 5, "n_records": 50, "avg_len": 2, "max_len": 6, "seed": 1}',
            encoding="utf-8",
        )
        out = tmp_path / "corpus.txt"
        result = run_cli(
            "gen", "--output", out, "--config", config, "--n-records", "75",
        )
        assert result.returncode == 0, result.stderr
        assert "records=75" in result.stdout

    def test_gen_deterministic(self, tmp_path):
        blobs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            run_cli(
                "gen", "--output", out, "--n-locations", "9", "--n-records", "100",
                "--avg-len", "4", "--max-len", "15", "--zipf-skew", "0.7",
                "--n-planted-routes", "2", "--seed", "12",
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_stats_histogram_matches_sample(self, tmp_path, sample_paths):
        data, universe = sample_paths
        out = tmp_path / "hist.csv"
        result = run_cli("stats", "--input", data, "--universe", universe, "--output", out)
        assert result.returncode == 0, result.stderr
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows == [["length", "count"], ["2", "3"], ["3", "4"], ["4", "1"]]
        assert "records=8 distinct_locations=4" in result.stdout
