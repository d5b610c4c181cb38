import builtins
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
            # Each zero-count candidate passes with probability 1/2; at seed 3 none does.
            result = run_cli(
                "sanitize", "--input", data, "--universe", universe, "--output", out,
                "--epsilon", "0.1", "--height", "3", "--seed", "3", "--variant", variant,
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

    @pytest.mark.parametrize("failure, code", [("missing input", 1), ("unknown location", 3)])
    def test_failed_run_keeps_the_seed_file(self, tmp_path, sample_paths, failure, code):
        # The key that PATH held still belongs to the release made with it: a
        # run that fails leaves PATH as it was, and no other file beside it.
        data, universe = sample_paths
        if failure == "missing input":
            data = tmp_path / "nosuch.txt"
        else:
            data = tmp_path / "unknown.txt"
            data.write_text("L1 L2\nL1 NOPE\n", encoding="utf-8")
        seed_file = tmp_path / "keep-seed.txt"
        seed_file.write_text("12345\n", encoding="utf-8")
        before = sorted(tmp_path.iterdir())
        result = run_cli(
            "sanitize", "--input", data, "--universe", universe, "--output", tmp_path / "o.txt",
            "--epsilon", "2.0", "--height", "3", "--seed-out", seed_file,
        )
        assert result.returncode == code, result.stderr
        assert seed_file.read_text(encoding="utf-8") == "12345\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_seed_out_that_cannot_be_replaced_keeps_the_key_beside_it(
        self, tmp_path, sample_paths
    ):
        # The release exists before the key is moved onto PATH; when the move
        # fails (PATH is a directory), the key stays in the file the error names.
        data, universe = sample_paths
        args = ("sanitize", "--input", data, "--universe", universe, "--epsilon", "2.0",
                "--height", "3")
        target = tmp_path / "seed-dir"
        target.mkdir()
        result = run_cli(*args, "--output", tmp_path / "drawn.txt", "--seed-out", target)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr and result.stdout == ""
        (kept,) = [p for p in tmp_path.iterdir() if p.name.startswith("seed-dir.")]
        assert re.fullmatch(r"seed-dir\.[0-9a-f]{8}", kept.name)
        assert 0 <= int(kept.read_text(encoding="utf-8")) < 2**128
        assert str(kept) in result.stderr
        assert kept.stat().st_mode & 0o777 == 0o600
        again = run_cli(*args, "--output", tmp_path / "again.txt",
                        "--seed", kept.read_text(encoding="utf-8").strip())
        assert again.returncode == 0, again.stderr
        assert (tmp_path / "again.txt").read_bytes() == (tmp_path / "drawn.txt").read_bytes()

    def test_file_parts_and_a_pipe_give_the_same_outputs(
        self, tmp_path, recipe_corpus, monkeypatch, capsys
    ):
        # Read from the file in forced parts, in process, and from a pipe,
        # which is always one part: the release and the dump are the same bytes.
        from dptraj import cli, reader

        corpus, universe = recipe_corpus
        monkeypatch.setattr(reader, "_PART_BYTES", 1 << 10)
        monkeypatch.setattr(reader, "_usable_cpus", lambda: 3)
        assert len(reader._cuts(str(corpus))) == 4
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

    def test_negative_seed_exits_before_reading_any_input(self, tmp_path, sample_paths):
        # The parser rejects the seed, so no input is opened (a missing one is not
        # an I/O error here) and no release, dump or seed file is written.
        data, universe = sample_paths
        for input_path in (tmp_path / "missing.txt", data):
            before = set(tmp_path.iterdir())
            result = run_cli(
                "sanitize", "--input", input_path, "--output", tmp_path / "o.txt",
                "--epsilon", "1", "--seed", "-1", "--universe", universe,
                "--dump-tree", tmp_path / "dump.txt", "--seed-out", tmp_path / "seed.txt",
            )
            assert result.returncode == 2, result.stderr
            assert "argument --seed:" in result.stderr and "Traceback" not in result.stderr
            assert set(tmp_path.iterdir()) == before

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
        # A query some raw record covers is missed entirely (error 1); the others score 0.
        from dptraj.model import load_db
        from dptraj.utility import eval_count_query, generate_workload

        db, ids = load_db(str(data), str(universe))
        missed = [
            sum(eval_count_query(db, q) > 0 for q in queries) / 5
            for queries in generate_workload(ids, 4, 5, seed=1).subsets
        ]
        assert 0 < min(missed) < 1
        assert out.read_text(encoding="utf-8").splitlines() == [
            "subset,max_query_len,queries,epsilon,height,variant,sanity,avg_relative_error",
            *(f"{i},{i},5,,4,,0.008000,{share:.6f}" for i, share in enumerate(missed, start=1)),
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


@pytest.mark.parametrize(
    "args",
    [
        ("eval-fsp", "--topk", "0"),
        ("eval-fsp", "--topk", "5,x"),
        ("eval-fsp", "--topk", ","),
        ("eval-count", "--height", "2"),
        ("eval-count", "--queries-per-subset", "0"),
        ("eval-count", "--seed", "-1"),
    ],
    ids=" ".join,
)
def test_bad_evaluator_parameter_exits_before_reading_any_input(
    tmp_path, sample_file, sample_universe_file, args
):
    # Both inputs are named, one is missing: a parameter error is found first.
    out = tmp_path / "out.csv"
    for raw, sanitized in ((tmp_path / "missing.txt", sample_file), (sample_file, sample_file)):
        result = run_cli(*args, "--raw", raw, "--sanitized", sanitized,
                         "--universe", sample_universe_file, "--output", out)
        assert result.returncode == 2, result.stderr
        assert f"argument {args[1]}" in result.stderr
        assert "Traceback" not in result.stderr and not out.exists()


def test_evaluators_hold_neither_numpy_random_nor_openssl(tmp_path, recipe_corpus):
    # The queries are drawn from random.Random and a drawn seed comes from
    # os.urandom: numpy.random (about 6 MB of RSS with what it imports) and
    # secrets' OpenSSL-backed hashlib (about 3.7 MB) are never loaded, apart
    # from what importing numpy loads by itself (numpy.random, before NumPy 2).
    corpus, universe = recipe_corpus
    script = (
        "import sys; import numpy; before = set(sys.modules); "
        "from dptraj.cli import main; code = main(sys.argv[1:]); "
        "print(code, *(m in set(sys.modules) - before "
        "for m in ('numpy.random', 'secrets', '_hashlib')))"
    )
    inputs = ("--raw", corpus, "--sanitized", corpus, "--universe", universe)
    for args in (
        ("eval-count", *inputs, "--height", "8", "--queries-per-subset", "50"),
        ("eval-fsp", *inputs, "--topk", "5,20"),
    ):
        result = subprocess.run(
            [sys.executable, "-c", script, *map(str, args), "--output", tmp_path / "out.csv"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "False", "False", "False"], args[0]


def test_sanitize_holds_neither_numpy_random_nor_openssl(tmp_path, recipe_corpus):
    # Every draw is SHAKE-256 from the standalone _sha3 module: numpy.random and
    # the OpenSSL-backed _hashlib that secrets and hashlib load are never loaded,
    # apart from what importing numpy loads by itself (numpy.random, before
    # NumPy 2), and neither are the evaluators.
    corpus, universe = recipe_corpus
    script = (
        "import sys; import numpy; before = set(sys.modules); "
        "from dptraj.cli import main; code = main(sys.argv[1:]); "
        "print(code, *(m in set(sys.modules) - before "
        "for m in ('numpy.random', 'secrets', '_hashlib', 'dptraj.utility')))"
    )
    for variant in ("full", "basic"):
        args = ("sanitize", "--input", corpus, "--universe", universe, "--epsilon", "1.0",
                "--height", "8", "--variant", variant, "--output", tmp_path / "release.txt")
        result = subprocess.run(
            [sys.executable, "-c", script, *map(str, args)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split()[-5:] == ["0", "False", "False", "False", "False"], variant


def test_each_module_loads_on_first_use():
    # The package resolves its exports lazily: loading a database loads the
    # reader alone, and the evaluators' module loads no tree, inference or noise.
    script = (
        "import sys; from dptraj import load_db; print(*sorted(m for m in sys.modules "
        "if m.startswith('dptraj'))); from dptraj import mine_top_k; "
        "print(*sorted(m for m in sys.modules if m.startswith('dptraj')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "dptraj dptraj.reader", "dptraj dptraj.model dptraj.reader dptraj.utility",
    ]


def test_every_input_is_read_before_numpy_is_imported(tmp_path, recipe_corpus, sample_paths):
    # The parse's line cache and lists, and the forked part readers, sit on a
    # process that numpy has not filled: every part this process parses, of a
    # file read in forked parts and of a small one, finds no numpy loaded.
    script = (
        "import sys; from dptraj import cli, reader; "
        "reader._PART_BYTES, reader._usable_cpus = 1 << 12, lambda: 2; "
        "seen, parse = [], reader._parse\n"
        "def recorded(*args):\n"
        "    parsed = parse(*args); seen.append('numpy' in sys.modules); return parsed\n"
        "reader._parse = recorded; code = cli.main(sys.argv[1:]); print(code, *seen)"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, dptraj.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert loaded.stdout.split() == ["False"], loaded.stderr
    (big, universe), (small, small_universe) = recipe_corpus, sample_paths
    with pytest.MonkeyPatch.context() as patch:
        from dptraj import reader

        patch.setattr(reader, "_PART_BYTES", 1 << 12)
        patch.setattr(reader, "_usable_cpus", lambda: 2)
        assert len(reader._cuts(str(big))) == 3 and reader._cuts(str(small)) == []
    out = tmp_path / "out"
    runs = [
        (args, data, universe_path)
        for data, universe_path in ((big, universe), (small, small_universe))
        for args in (
            ("sanitize", "--input", data, "--epsilon", "1", "--height", "4", "--seed", "1"),
            ("stats", "--input", data),
            ("eval-count", "--raw", data, "--sanitized", data, "--height", "4",
             "--queries-per-subset", "20", "--seed", "1"),
            ("eval-fsp", "--raw", data, "--sanitized", data, "--topk", "5"),
        )
    ]
    for args, data, universe_path in runs:
        result = subprocess.run(
            [sys.executable, "-c", script, *map(str, args), "--universe", str(universe_path),
             "--output", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert result.returncode == 0, result.stderr
        reads = 2 if args[0].startswith("eval") else 1
        assert result.stdout.splitlines()[-1].split() == ["0", *["False"] * reads], (args, data)


@pytest.mark.parametrize(
    "epsilon, height", [("0", "8"), ("nan", "8"), ("1e-308", "12")], ids=["zero", "nan", "subnormal"]
)
def test_bad_epsilon_exits_before_any_file_is_opened(
    tmp_path, sample_universe_file, monkeypatch, capsys, epsilon, height
):
    # epsilon 1e-308 split over 12 levels is a subnormal share. The parameters are
    # checked before any input is read: a missing --input is no I/O error, and no
    # file, the seed's included, is opened or written.
    from dptraj import cli

    opened = []
    for module, name in ((builtins, "open"), (os, "open")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda path, *a, real=real, **k: (
            opened.append(path), real(path, *a, **k))[1])
    before = set(tmp_path.iterdir())
    code = cli.main([
        "sanitize", "--input", str(tmp_path / "missing.txt"), "--universe",
        str(sample_universe_file), "--output", str(tmp_path / "o.txt"), "--epsilon", epsilon,
        "--height", height, "--seed", "1", "--seed-out", str(tmp_path / "seed.txt"),
    ])
    monkeypatch.undo()
    assert code == 2 and opened == []
    assert "epsilon" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before

def test_stats_loads_no_tree_noise_or_release(tmp_path, recipe_corpus):
    # stats reads one file and builds no tree, so it runs on the model alone.
    corpus, universe = recipe_corpus
    script = (
        "import sys; from dptraj.cli import main; code = main(sys.argv[1:]); "
        "print(code, *sorted(m for m in sys.modules if m.startswith('dptraj')))"
    )
    args = ("stats", "--input", corpus, "--universe", universe, "--output", tmp_path / "out.csv")
    result = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    code, *modules = result.stdout.splitlines()[-1].split()
    assert code == "0" and "dptraj.model" in modules
    assert not {"dptraj.tree", "dptraj.inference", "dptraj.privacy", "dptraj.release"} & {
        *modules
    }


def test_sanitize_and_stats_never_load_numpy_ma(tmp_path, recipe_corpus):
    # np.unique imports numpy.ma on its first call (about 16 ms and 1.7 MB of
    # RSS under NumPy 2.4); sanitize sets its peak while that is held.
    corpus, universe = recipe_corpus
    script = (
        "import sys; import numpy; before = set(sys.modules); "
        "from dptraj.cli import main; code = main(sys.argv[1:]); "
        "print(code, 'numpy.ma' in set(sys.modules) - before)"
    )
    release = tmp_path / "release.txt"
    for args in (
        ("sanitize", "--input", corpus, "--universe", universe, "--output", release,
         "--epsilon", "1.0", "--height", "8", "--seed", "42"),
        ("stats", "--input", release, "--universe", universe, "--output", tmp_path / "out.csv"),
    ):
        result = subprocess.run(
            [sys.executable, "-c", script, *map(str, args)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split()[-2:] == ["0", "False"], args[0]


def test_drawn_seeds_are_128_bit_integers(monkeypatch):
    from dptraj import cli

    seeds = [cli._resolve_seed(None) for _ in range(64)]
    assert all(0 <= seed < 2**128 for seed in seeds) and len(set(seeds)) == 64
    assert max(seed.bit_length() for seed in seeds) == 128  # fails with odds 2**-64
    monkeypatch.setattr(cli.os, "urandom", lambda n: bytes(range(1, n + 1)))
    assert cli._resolve_seed(None) == int.from_bytes(bytes(range(1, 17)), "big")
    assert cli._resolve_seed(5) == 5


class TestPinnedRelease:
    """Release and tree-dump bytes at a fixed seed, on the criterion-9 corpus and a narrow one.

    The digests were recorded when every draw came to be made from keyed
    SHAKE-256 streams and each depth's empty-born children to be placed by
    geometric skips over its (node, location) cells; any change
    to a draw, to the written order, to which nodes are kept or expanded or to
    the inference arithmetic shows up here. Each dump is also pinned by its
    sorted lines, which no change of the written order alone moves.
    """

    CORPORA = {
        # --n-locations: corpus digest. Under 2 kappa locations the pruning threshold is 0,
        # so each of the empty candidates passes with probability 1/2.
        "40": "07c4cdd7e0a9fc577e9780745ca9237fd28e5f9231508c99029ae90894e17310",
        "12": "60e4f84010a05d09ebdceca346f0c9aaec9b0c81a955fc176a3d0436b119d2c6",
    }
    RUNS = {
        # (--n-locations, --variant): (release digest, --dump-tree digest, sorted dump digest)
        ("40", "full"): (
            "0064b34599ef4d3f80b8c58a3b194cafbfad222a1179bee0e266703ef0fcb7b8",
            "41d5eed6785cdc02d7a6b0cc7c8f6d2ac6992e5d854b66c3169923fac8c32af1",
            "6b1d4b807a240cdae75b65d83b3758385262d9f07f359a8609470fa7d641f4ae",
        ),
        ("40", "basic"): (
            "e86bf563fbcfdacfa1394e6b5a5f57de07104663593aed732cccd8a3efbf4446",
            "41d5eed6785cdc02d7a6b0cc7c8f6d2ac6992e5d854b66c3169923fac8c32af1",
            "6b1d4b807a240cdae75b65d83b3758385262d9f07f359a8609470fa7d641f4ae",
        ),
        ("12", "full"): (
            "0133f9ad2e295089d350de60c2e763179675b3affa86e5d5f3c42f4e83a70e8c",
            "2c410ba2b1a2ab3722319d24fce5566e4850bddcfc2b2ed06f3e1ea672b5c885",
            "1c80facc973b643e50ae73b6f229589b371942132dbb332af46e3f36e984aa62",
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
        for key, (release_digest, dump_digest, sorted_dump_digest) in self.RUNS.items():
            n_locations, variant = key
            out, dump = tmp_path / "release.txt", tmp_path / "tree.txt"
            result = run_cli(
                "sanitize", "--input", tmp_path / f"corpus-{n_locations}.txt",
                "--universe", tmp_path / f"universe-{n_locations}.txt", "--output", out,
                "--epsilon", "1.0", "--height", "8", "--seed", "33", "--variant", variant,
                "--dump-tree", dump,
            )
            assert result.returncode == 0, result.stderr
            assert hashlib.sha256(out.read_bytes()).hexdigest() == release_digest, key
            # gen's tokens share one width, so location order is byte order.
            lines = out.read_bytes().splitlines(keepends=True)
            assert lines == sorted(lines), key
            assert hashlib.sha256(dump.read_bytes()).hexdigest() == dump_digest, key
            lines = sorted(dump.read_bytes().splitlines(keepends=True))
            assert hashlib.sha256(b"".join(lines)).hexdigest() == sorted_dump_digest, key


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
