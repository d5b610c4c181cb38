"""The benchmark's workloads: corpus recipe, command lines and why each was chosen.

Every workload generates its corpus with ``dptraj.datagen.generate`` from the
recipe below and the ``--seed`` argument (the seed is the generator seed), so
``--seed 1`` reproduces the README ``gen`` recipe. The commands themselves use
fixed seeds, as the README shows them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# Sanitize parameters, shared by the sanitize workloads and by the release the
# evaluate workload is prepared with.
EPSILON = 1.0
HEIGHT = 12
SANITIZE_SEED = 42
VARIANT = "full"

# Evaluation parameters.
QUERIES_PER_SUBSET = 2500
EVAL_SEED = 7
TOPK = (50, 100, 150, 200, 250)

# Files inside a prepared input directory, and outputs inside a command's
# output directory.
CORPUS = "corpus.txt"
UNIVERSE = "universe.txt"
RELEASE = "release.txt"
COUNT_CSV = "count.csv"
FSP_CSV = "fsp.csv"

_PLANTED = {
    "n_locations": 1012,
    "avg_len": 6.7,
    "max_len": 12,
    "n_planted_routes": 20,
    "route_length": 12,
    "planted_fraction": 0.95,
    "route_skew": 0.7,
    "zipf_skew": 0.6,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``GenConfig`` fields except ``seed``.
    gen: dict = field(hash=False)
    #: CLI subcommands run in order, once per measured pass.
    commands: tuple[str, ...]

    @property
    def needs_release(self) -> bool:
        """Evaluate workloads read a release made while the inputs are prepared."""
        return "sanitize" not in self.commands

    def scaled(self, n_records: int) -> "Workload":
        return replace(self, gen={**self.gen, "n_records": n_records})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sanitize-planted-1m",
            why="Paper's headline scale: 1.21M records repeating 23x, deep narrow tree; "
            "time goes to per-record grouping in tree and text I/O in model.",
            gen={**_PLANTED, "n_records": 1_210_096},
            commands=("sanitize",),
        ),
        Workload(
            name="sanitize-zipf-400k",
            why="Unplanted Zipf corpus with few repeated records and a wide tree, so "
            "inference and release do real work and duplicate-record gains vanish.",
            gen={
                "n_locations": 1012,
                "n_records": 400_000,
                "avg_len": 6.7,
                "max_len": 12,
                "n_planted_routes": 0,
                "zipf_skew": 1.0,
            },
            commands=("sanitize",),
        ),
        Workload(
            name="evaluate-planted-400k",
            why="eval-count and eval-fsp on a planted corpus and its release: only "
            "utility and the read side of model run; no tree is built.",
            gen={**_PLANTED, "n_records": 400_000},
            commands=("eval-count", "eval-fsp"),
        ),
    )
}


def cli_args(command: str, inputs: str, out: str) -> list[str]:
    """Arguments after ``dptraj`` for one command; ``inputs`` and ``out`` are directories."""
    corpus = f"{inputs}/{CORPUS}"
    universe = f"{inputs}/{UNIVERSE}"
    if command == "sanitize":
        return [
            "sanitize", "--input", corpus, "--universe", universe,
            "--output", f"{out}/{RELEASE}", "--epsilon", f"{EPSILON:g}",
            "--height", str(HEIGHT), "--seed", str(SANITIZE_SEED), "--variant", VARIANT,
        ]
    release = f"{inputs}/{RELEASE}"
    if command == "eval-count":
        return [
            "eval-count", "--raw", corpus, "--sanitized", release, "--universe", universe,
            "--height", str(HEIGHT), "--queries-per-subset", str(QUERIES_PER_SUBSET),
            "--seed", str(EVAL_SEED), "--output", f"{out}/{COUNT_CSV}",
        ]
    if command == "eval-fsp":
        return [
            "eval-fsp", "--raw", corpus, "--sanitized", release, "--universe", universe,
            "--topk", ",".join(map(str, TOPK)), "--output", f"{out}/{FSP_CSV}",
        ]
    raise ValueError(f"unknown command {command!r}")
