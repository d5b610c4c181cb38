import csv
import hashlib
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None, stdin=None):
    """Run ``dptraj`` with ``args``; ``stdin`` (text) is fed to it through a pipe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "dptraj", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        input=stdin,
    )


@pytest.fixture()
def sample_paths(sample_file, sample_universe_file):
    return sample_file, sample_universe_file


@pytest.fixture(scope="module")
def recipe_corpus(tmp_path_factory):
    """The README recipe corpus, as the CI step makes it: 50 locations, 2,000 records."""
    directory = tmp_path_factory.mktemp("recipe")
    corpus, universe = directory / "corpus.txt", directory / "universe.txt"
    result = run_cli(
        "gen", "--output", corpus, "--universe-out", universe,
        "--n-locations", "50", "--n-records", "2000", "--avg-len", "5", "--max-len", "12",
        "--n-planted-routes", "5", "--zipf-skew", "0.6", "--seed", "1",
    )
    assert result.returncode == 0, result.stderr
    return corpus, universe


@pytest.mark.parametrize(
    "args",
    [
        ("sanitize", "--input", "{data}", "--output", "{out}", "--epsilon", "1.0",
         "--seed", "1", "--dump-tree", "{out}"),
        ("eval-count", "--raw", "{data}", "--sanitized", "{data}", "--seed", "1",
         "--output", "{out}"),
        ("eval-fsp", "--raw", "{data}", "--sanitized", "{data}", "--output", "{out}"),
        ("stats", "--input", "{data}", "--output", "{out}"),
    ],
    ids=lambda args: args[0],
)
def test_every_reader_requires_a_universe(tmp_path, sample_file, args):
    # Read without a public universe, each file would get its own ids.
    out = tmp_path / "out"
    result = run_cli(*(arg.format(data=sample_file, out=out) for arg in args))
    assert result.returncode == 2
    assert "--universe" in result.stderr
    assert result.stdout == "" and not out.exists()


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
        assert "privacy.claim=" not in result.stdout

    def test_manifest_keys_are_the_documented_ones(self, tmp_path, sample_paths):
        # The exact input size and the run time grow with the data, so neither is printed.
        data, universe = sample_paths
        documented = {
            "input", "universe", "epsilon", "height", "theta", "theta_expand", "variant",
            "conserved", "tree.nodes", "tree.empty_born", "inference.order_violations",
            "release.records", "output",
        }
        for variant, keys in (("full", documented),
                              ("basic", documented - {"inference.order_violations"})):
            result = run_cli(
                "sanitize", "--input", data, "--output", tmp_path / "release.txt",
                "--epsilon", "4.0", "--height", "3", "--seed", "11", "--universe", universe,
                "--variant", variant,
            )
            assert result.returncode == 0, result.stderr
            printed = {item.partition("=")[0] for item in result.stdout.split() if "=" in item}
            assert printed == keys, variant
            assert result.stderr == ""

    def test_root_only_tree_releases_nothing(self, tmp_path):
        data = tmp_path / "empty.txt"
        data.write_text("", encoding="utf-8")
        universe = tmp_path / "u.txt"
        universe.write_text("a\nb\nc\n", encoding="utf-8")
        for variant in ("full", "basic"):
            out = tmp_path / f"{variant}.txt"
            # Each zero-count candidate passes with probability 1/2; at seed 25 none does.
            result = run_cli(
                "sanitize", "--input", data, "--universe", universe, "--output", out,
                "--epsilon", "0.1", "--height", "3", "--seed", "25", "--variant", variant,
            )
            assert result.returncode == 0, (variant, result.stderr)
            assert "tree.nodes=0 " in result.stdout
            assert "release.records=0 " in result.stdout
            assert out.read_bytes() == b""

    def test_empty_input_with_empty_universe_releases_nothing(self, tmp_path):
        data, universe = tmp_path / "empty.txt", tmp_path / "empty-universe.txt"
        data.write_text("", encoding="utf-8")
        universe.write_text("", encoding="utf-8")
        out, dump = tmp_path / "release.txt", tmp_path / "tree.txt"
        result = run_cli(
            "sanitize", "--input", data, "--universe", universe, "--output", out,
            "--epsilon", "1.0", "--seed", "1", "--dump-tree", dump,
        )
        assert result.returncode == 0, result.stderr
        assert "tree.nodes=0 " in result.stdout
        assert "universe=0" in result.stdout
        assert out.read_bytes() == b"" and dump.read_bytes() == b""

    def test_deterministic_given_seed(self, tmp_path, sample_paths):
        # over 4 locations, fewer than 2 kappa, the pruning threshold is 0
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
            assert "theta=0" in result.stdout.split()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_exported_seed_variable_is_ignored(self, tmp_path, sample_paths):
        # A seed comes only from --seed: an exported variable left over from an
        # earlier shell must not make every release reuse one key.
        data, universe = sample_paths
        dumps = []
        for name in ("a", "b"):
            dump = tmp_path / f"{name}-tree.txt"
            result = run_cli(
                "sanitize", "--input", data, "--output", tmp_path / f"{name}.txt",
                "--epsilon", "2.0", "--height", "4", "--universe", universe,
                "--dump-tree", dump, env_extra={"DPTRAJ_SEED": "3"},
            )
            assert result.returncode == 0, result.stderr
            dumps.append(dump.read_bytes())
        assert dumps[0] and dumps[0] != dumps[1]

    def test_seed_is_never_printed(self, tmp_path, sample_paths):
        # Whoever holds the seed can redraw every noise value, so it is a key:
        # not printed whether given by flag or drawn.
        data, universe = sample_paths
        for flags in (["--seed", "123456789"], []):
            result = run_cli(
                "sanitize", "--input", data, "--output", tmp_path / "o.txt", "--epsilon", "2.0",
                "--height", "3", "--universe", universe, *flags,
            )
            assert result.returncode == 0, result.stderr
            for text in (result.stdout, result.stderr):
                assert "seed=" not in text
                assert "123456789" not in text

    def test_seed_out_keeps_a_drawn_seed_for_the_owner(self, tmp_path, sample_paths):
        # A drawn seed is written only where asked, owner-only, and reproduces the release.
        data, universe = sample_paths
        args = ("sanitize", "--input", data, "--universe", universe, "--epsilon", "2.0",
                "--height", "3")
        seed_file = tmp_path / "seed.txt"
        drawn = run_cli(*args, "--output", tmp_path / "drawn.txt", "--seed-out", seed_file)
        assert drawn.returncode == 0, drawn.stderr
        assert seed_file.stat().st_mode & 0o777 == 0o600
        seed = seed_file.read_text(encoding="utf-8")
        assert re.fullmatch(r"\d+\n", seed)
        for text in (drawn.stdout, drawn.stderr):
            assert "seed=" not in text and seed.strip() not in text
        again = run_cli(*args, "--output", tmp_path / "again.txt", "--seed", seed.strip())
        assert again.returncode == 0, again.stderr
        assert (tmp_path / "again.txt").read_bytes() == (tmp_path / "drawn.txt").read_bytes()
        # A given seed is written as given, and an open file loses its wider mode.
        seed_file.chmod(0o644)
        given = run_cli(*args, "--output", tmp_path / "given.txt", "--seed", "7",
                        "--seed-out", seed_file)
        assert given.returncode == 0, given.stderr
        assert seed_file.read_text(encoding="utf-8") == "7\n"
        assert seed_file.stat().st_mode & 0o777 == 0o600

    def test_seed_out_in_a_missing_directory_writes_no_release(self, tmp_path, sample_paths):
        # The seed file is made before any work, so a drawn key is never lost
        # behind a release that was written.
        data, universe = sample_paths
        out, dump = tmp_path / "release.txt", tmp_path / "tree.txt"
        seed_file = tmp_path / "missing" / "seed.txt"
        result = run_cli(
            "sanitize", "--input", data, "--universe", universe, "--output", out,
            "--epsilon", "2.0", "--height", "3", "--dump-tree", dump, "--seed-out", seed_file,
        )
        assert result.returncode == 1
        assert str(seed_file) in result.stderr and "Traceback" not in result.stderr
        assert result.stdout == ""
        assert not out.exists() and not dump.exists()

    def test_file_parts_and_a_pipe_give_the_same_outputs(
        self, tmp_path, recipe_corpus, monkeypatch, capsys
    ):
        # Read from the file in forced parts, in process, and from a pipe,
        # which is always one part: the release and the dump are the same bytes.
        from dptraj import cli, model

        corpus, universe = recipe_corpus
        monkeypatch.setattr(model, "_PART_BYTES", 1 << 10)
        monkeypatch.setattr(model, "_usable_cpus", lambda: 3)
        assert len(model._cuts(str(corpus))) == 4
        flags = ["--universe", str(universe), "--epsilon", "1", "--height", "8", "--seed", "42"]
        parts, pipe = ((tmp_path / f"{name}.txt", tmp_path / f"{name}-tree.txt")
                       for name in ("parts", "pipe"))
        assert cli.main(["sanitize", "--input", str(corpus), *flags, "--output", str(parts[0]),
                         "--dump-tree", str(parts[1])]) == 0
        capsys.readouterr()
        result = run_cli("sanitize", "--input", "/dev/stdin", *flags, "--output", pipe[0],
                         "--dump-tree", pipe[1], stdin=corpus.read_text(encoding="utf-8"))
        assert result.returncode == 0, result.stderr
        for got, want in zip(parts, pipe):
            assert got.read_bytes() == want.read_bytes()
        assert parts[0].stat().st_size and parts[1].stat().st_size

    def test_drawn_seed_has_128_bits(self):
        from dptraj.cli import _resolve_seed

        assert max(_resolve_seed(None).bit_length() for _ in range(64)) > 63

    def test_known_seed_recovers_depth_one_counts(self, tmp_path, recipe_corpus):
        # Why the seed is a key: with it, the public parameters and the dump,
        # anyone can redraw depth 0's Laplace vector and subtract it. Its i-th
        # value goes to the i-th distinct first location in id order.
        from dptraj import PrivacyParams, RandomSource, load_db
        from dptraj.privacy import laplace_noise

        corpus, universe_path = recipe_corpus
        dump = tmp_path / "tree.txt"
        result = run_cli(
            "sanitize", "--input", corpus, "--universe", universe_path, "--output",
            tmp_path / "release.txt", "--epsilon", "1", "--height", "8", "--seed", "42",
            "--dump-tree", dump,
        )
        assert result.returncode == 0, result.stderr
        db, universe = load_db(str(corpus), str(universe_path))
        firsts = np.repeat(db.tokens[db.offsets[:-1]], db.weights)
        locations, counts = np.unique(firsts, return_counts=True)
        true = {universe.tokens[loc]: n for loc, n in zip(locations.tolist(), counts.tolist())}
        rank = {token: i for i, token in enumerate(true)}  # ascending location ids
        depth_one = [
            line.split() for line in dump.read_text(encoding="utf-8").splitlines()
            if not line.startswith(" ") and line.split()[0] in true
        ]
        params = PrivacyParams(epsilon=1.0, height=8)

        def recovered(seed):
            noise = laplace_noise(params.noise_scale, RandomSource(seed).stream(0), len(true))
            return sum(
                abs(float(noisy) - noise[rank[token]] - true[token]) < 0.01
                for token, noisy in depth_one
            )

        assert len(depth_one) >= 20
        assert recovered(42) == len(depth_one)
        assert recovered(43) <= 1

    def test_reused_seed_reveals_an_added_record(self, tmp_path, recipe_corpus):
        # Why a seed is used for one release only: two releases under one seed
        # draw the same noise, so their depth-1 counts differ by exactly the
        # true difference of the inputs. Here, one record with a first location
        # that other records share.
        corpus, universe = recipe_corpus
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        added = tmp_path / "added.txt"
        added.write_text("".join(lines) + lines[0], encoding="utf-8")
        depth_one = []
        for name, data in (("corpus", corpus), ("added", added)):
            dump = tmp_path / f"{name}-tree.txt"
            result = run_cli(
                "sanitize", "--input", data, "--universe", universe, "--output",
                tmp_path / f"{name}.txt", "--epsilon", "1", "--height", "8", "--seed", "42",
                "--dump-tree", dump,
            )
            assert result.returncode == 0, result.stderr
            depth_one.append({
                token: float(noisy)
                for token, noisy in (line.split() for line in
                                     dump.read_text(encoding="utf-8").splitlines()
                                     if not line.startswith(" "))
            })
        before, after = depth_one
        assert len(before) >= 40 and before.keys() == after.keys()
        moved = {token: after[token] - before[token] for token in before
                 if after[token] != before[token]}
        assert moved.keys() == {lines[0].split()[0]}
        assert moved[lines[0].split()[0]] == pytest.approx(1.0, abs=0.011)  # two decimals

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
            (("--epsilon", "nan"), "epsilon"),
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

    def test_universe_line_with_two_tokens_is_data_error(self, tmp_path, sample_paths):
        data, _ = sample_paths
        universe = tmp_path / "u.txt"
        universe.write_text("L1 L2\nL3\nL4\n", encoding="utf-8")
        result = run_cli(
            "sanitize", "--input", data, "--output", tmp_path / "o.txt",
            "--epsilon", "1.0", "--seed", "0", "--universe", universe,
        )
        assert result.returncode == 1
        assert f"{universe}:1" in result.stderr

    def test_theta_mult_flag_and_expand_threshold(self, tmp_path, sample_paths):
        # The thresholds are worked out from public values; no flag sets them.
        data, universe = sample_paths
        result = run_cli(
            "sanitize", "--input", data, "--output", tmp_path / "release.txt",
            "--epsilon", "1", "--seed", "0", "--universe", universe, "--theta-mult", "2",
        )
        assert result.returncode == 2 and "--theta-mult" in result.stderr
        assert not (tmp_path / "release.txt").exists()
        wide = tmp_path / "wide-universe.txt"
        wide.write_text("".join(f"L{i}\n" for i in range(1, 1013)), encoding="utf-8")
        # ln(|U| / (2 kappa)), at least 0, and ln|U|, each over 4.0 / 3 per level.
        for path, theta, theta_expand in ((universe, "0", "1.03972"), (wide, "3.18209", "5.18976")):
            result = run_cli(
                "sanitize", "--input", data, "--output", tmp_path / "release.txt",
                "--epsilon", "4.0", "--height", "3", "--seed", "2", "--universe", path,
            )
            assert result.returncode == 0, result.stderr
            manifest = result.stdout.split()
            assert f"theta={theta}" in manifest and f"theta_expand={theta_expand}" in manifest
            assert not [item for item in manifest if item.startswith("theta_mult=")]


class TestSanitizeStages:
    """The CLI runs ``sanitize``'s steps, and drops its input once the tree is built."""

    def test_input_is_freed_before_consolidate(self, tmp_path, sample_paths, monkeypatch, capsys):
        from dptraj import cli, release

        data, universe = sample_paths
        loaded, alive = [], []
        load_db, consolidate = cli.load_db, release.consolidate

        def tracked_load_db(*args):
            db, universe = load_db(*args)
            loaded.append(weakref.ref(db))
            return db, universe

        def checked_consolidate(tree):
            alive.append(loaded[0]() is not None)
            return consolidate(tree)

        monkeypatch.setattr(cli, "load_db", tracked_load_db)
        monkeypatch.setattr(release, "consolidate", checked_consolidate)
        assert cli.main(
            ["sanitize", "--input", str(data), "--universe", str(universe),
             "--output", str(tmp_path / "release.txt"), "--epsilon", "4.0", "--height", "3",
             "--seed", "11"]
        ) == 0
        assert "release.records=" in capsys.readouterr().out
        assert alive == [False]

    def test_release_matches_library_sanitize(self, tmp_path):
        from dptraj import GenConfig, PrivacyParams, RandomSource, generate, sanitize
        from dptraj.model import write_db, write_universe

        db, universe = generate(
            GenConfig(n_locations=30, n_records=3000, avg_len=4, max_len=8, zipf_skew=0.8, seed=4)
        )
        corpus, universe_path = tmp_path / "corpus.txt", tmp_path / "universe.txt"
        write_db(db, universe, str(corpus))
        write_universe(universe, str(universe_path))
        for variant in ("full", "basic"):
            out, expected = tmp_path / f"{variant}.txt", tmp_path / f"{variant}-library.txt"
            result = run_cli(
                "sanitize", "--input", corpus, "--universe", universe_path, "--output", out,
                "--epsilon", "1.0", "--height", "6", "--seed", "9", "--variant", variant,
            )
            assert result.returncode == 0, result.stderr
            release, _ = sanitize(
                db, universe, PrivacyParams(epsilon=1.0, height=6), RandomSource(9), variant
            )
            assert len(release)
            write_db(release, universe, str(expected))
            assert out.read_bytes() == expected.read_bytes(), variant


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

    def test_empty_sanitized_scores_every_query_as_missed(self, tmp_path, sample_paths):
        data, universe = sample_paths
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "count.csv"
        result = run_cli(
            "eval-count", "--raw", data, "--sanitized", empty, "--universe", universe,
            "--height", "4", "--queries-per-subset", "5", "--seed", "1", "--output", out,
        )
        assert result.returncode == 0, result.stderr
        assert out.read_text(encoding="utf-8").splitlines() == [
            "subset,max_query_len,queries,epsilon,height,variant,sanity,avg_relative_error",
            "1,1,5,,4,,0.008000,1.000000",
            "2,2,5,,4,,0.008000,1.000000",
            "3,3,5,,4,,0.008000,0.600000",
            "4,4,5,,4,,0.008000,0.400000",
        ]

    def test_sanity_fraction_flag_is_rejected(self, tmp_path, sample_paths):
        # The bound is always 0.1% of the raw records; no flag sets it.
        data, universe = sample_paths
        result = run_cli(
            "eval-count", "--raw", data, "--sanitized", data, "--universe", universe,
            "--queries-per-subset", "5", "--seed", "1", "--sanity-fraction", "0.01",
            "--output", tmp_path / "o.csv",
        )
        assert result.returncode == 2
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

    def test_drawn_seed_is_printed_and_redraws_the_workload(self, tmp_path, recipe_corpus):
        # The seed draws only the public queries, so it is printed: a run
        # without one can be repeated. Raw and sanitized differ, so the CSV
        # depends on which queries were drawn.
        corpus, universe = recipe_corpus
        sanitized = tmp_path / "half.txt"
        sanitized.write_text(
            "".join(corpus.read_text(encoding="utf-8").splitlines(keepends=True)[::2]),
            encoding="utf-8",
        )
        args = (
            "eval-count", "--raw", corpus, "--sanitized", sanitized, "--universe", universe,
            "--height", "8", "--queries-per-subset", "50",
        )
        drawn = run_cli(*args, "--output", tmp_path / "drawn.csv")
        assert drawn.returncode == 0, drawn.stderr
        (seed,) = re.findall(r"^seed=(\d+) runtime_seconds=", drawn.stderr, re.MULTILINE)
        reports = {}
        for name, given in (("again", seed), ("next", int(seed) + 1)):
            result = run_cli(*args, "--seed", given, "--output", tmp_path / f"{name}.csv")
            assert result.returncode == 0, result.stderr
            assert f"seed={given} " in result.stderr
            reports[name] = (tmp_path / f"{name}.csv").read_bytes()
        assert reports["again"] == (tmp_path / "drawn.csv").read_bytes()
        assert reports["next"] != reports["again"]


class TestPinnedRelease:
    """Release and tree-dump bytes at a fixed seed, on the criterion-9 corpus and a narrow one.

    The digests were recorded when the pruning threshold came to follow the
    universe's size; any change to a draw, to the child order, to which nodes
    are kept or expanded or to the inference arithmetic shows up here.
    """

    CORPORA = {
        # --n-locations: corpus digest. Under 2 kappa locations the pruning threshold
        # is 0, so half of the empty candidates pass and the one-shot sampler's swaps collide.
        "40": "07c4cdd7e0a9fc577e9780745ca9237fd28e5f9231508c99029ae90894e17310",
        "12": "60e4f84010a05d09ebdceca346f0c9aaec9b0c81a955fc176a3d0436b119d2c6",
    }
    RUNS = {
        # (--n-locations, --variant): (release digest, --dump-tree digest)
        ("40", "full"): (
            "88897685d25ced88aab9ae4e9b59d8c79ecd2916fb68e1da6c739cabadcbf343",
            "0f7ff27ad9c41b0db385d3dac82b19b52070d1d403499d22b57f40304935a2b5",
        ),
        ("40", "basic"): (
            "7b50723e1b9509e738f1a1e558c8179c21f1f332d8dbdd261c24baa6ac27e9e5",
            "0f7ff27ad9c41b0db385d3dac82b19b52070d1d403499d22b57f40304935a2b5",
        ),
        ("12", "full"): (
            "e5510fee90f6fd3e9cdb50e04615ee6289b2e94d89dcbdc6dd44c4b66abd8cbf",
            "70d7726eaff7f4de6f5337ccbee726aabb07cc5a83ca4e48a43c239b25fe59e8",
        ),
    }

    def test_release_and_dump_digests(self, tmp_path):
        for n_locations, corpus_digest in self.CORPORA.items():
            corpus = tmp_path / f"corpus-{n_locations}.txt"
            universe = tmp_path / f"universe-{n_locations}.txt"
            result = run_cli(
                "gen", "--output", corpus, "--universe-out", universe,
                "--n-locations", n_locations, "--n-records", "4000", "--avg-len", "5",
                "--max-len", "12", "--n-planted-routes", "5", "--zipf-skew", "0.8",
                "--seed", "21",
            )
            assert result.returncode == 0, result.stderr
            assert hashlib.sha256(corpus.read_bytes()).hexdigest() == corpus_digest
        for (n_locations, variant), (release_digest, dump_digest) in self.RUNS.items():
            out, dump = tmp_path / "release.txt", tmp_path / "tree.txt"
            result = run_cli(
                "sanitize", "--input", tmp_path / f"corpus-{n_locations}.txt",
                "--universe", tmp_path / f"universe-{n_locations}.txt", "--output", out,
                "--epsilon", "1.0", "--height", "8", "--seed", "33", "--variant", variant,
                "--dump-tree", dump,
            )
            assert result.returncode == 0, result.stderr
            key = (n_locations, variant)
            assert hashlib.sha256(out.read_bytes()).hexdigest() == release_digest, key
            assert hashlib.sha256(dump.read_bytes()).hexdigest() == dump_digest, key


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

    def test_empty_sanitized_mines_nothing(self, tmp_path, sample_paths):
        data, universe = sample_paths
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "fsp.csv"
        result = run_cli(
            "eval-fsp", "--raw", data, "--sanitized", empty, "--universe", universe,
            "--topk", "3,5", "--output", out,
        )
        assert result.returncode == 0, result.stderr
        assert out.read_text(encoding="utf-8").splitlines() == [
            "k,epsilon,height,variant,true_positives,false_positives,false_drops,"
            "mined_raw,mined_sanitized",
            "3,,,,0,0,3,3,0",
            "5,,,,0,0,5,5,0",
        ]
        assert "only 0 patterns" in result.stderr

    def test_empty_raw_is_data_error(self, tmp_path, sample_paths):
        data, universe = sample_paths
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "fsp.csv"
        result = run_cli(
            "eval-fsp", "--raw", empty, "--sanitized", data, "--universe", universe,
            "--topk", "5", "--output", out,
        )
        assert result.returncode == 1
        assert "raw database is empty" in result.stderr
        assert not out.exists()


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
