"""Command-line front end: generate, sanitize, evaluate, report.

Subcommands write plain text or CSV so runs compose in shell pipelines, and
read every trajectory file against one public list of locations, --universe.
Every command that consumes randomness takes --seed, draws a fresh 128-bit
seed without it, and is bit-reproducible given the same seed and flags. Each
command checks its parameters, reads every input (in forked parts, for a big
file) and only then imports numpy and the modules it runs: sanitize loads no
evaluator, nor numpy.random or OpenSSL, and the evaluators load no tree,
inference or noise. sanitize's and the evaluators' --seed must be
non-negative, and is checked, like sanitize's --epsilon, before any input is
read. sanitize's seed keys its SHAKE-256 noise streams
(dptraj.privacy.RandomSource): it is never printed, and --seed-out PATH keeps it
in an owner-only file, written beside PATH before any work and moved onto PATH
once the release is written.

sanitize's stdout manifest prints public parameters and noisy sizes, and one
confidential value: tree.empty_born=, computed from true counts. It stays
until the manifest is split into public and confidential fields, because
perfbench/run.py reads it.

Exit codes: 0 success, 1 I/O or data-format failure, 2 invalid parameters,
3 location outside the --universe file.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import fields
from typing import TYPE_CHECKING, Iterable, get_type_hints

# No numpy here: each command checks its parameters, reads its inputs and only
# then imports the modules it runs. gen's options are GenConfig's fields.
from . import VARIANTS
from .params import GenConfig, PrivacyParams
from .reader import (
    DataFormatError, LocationUniverse, UnknownLocationError, load_db, load_universe, read_records,
)

if TYPE_CHECKING:
    from .model import TrajectoryDb

EXIT_IO = 1
EXIT_PARAMS = 2
EXIT_UNIVERSE = 3


def _resolve_seed(value: int | None) -> int:
    return int.from_bytes(os.urandom(16), "big") if value is None else value


def _at_least(low: int, why: str = ""):
    """An argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}{why}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


_positive_int = _at_least(1)


def _topk(text: str) -> list[int]:
    """Comma-separated top-k sizes, as their distinct values in ascending order."""
    try:
        values = sorted({int(v) for v in text.split(",") if v.strip()})
    except ValueError:
        values = []
    if not values or values[0] < 1:
        raise argparse.ArgumentTypeError(f"needs positive integers, got {text!r}")
    return values


def _write_csv(path: str | None, header: list[str], rows: Iterable[list]) -> bool:
    """Write ``header`` and ``rows`` as CSV to ``path``, or to stdout for None or ``-``.

    Returns True when the table went to stdout.
    """
    to_stdout = path is None or path == "-"
    out = sys.stdout if to_stdout else open(path, "w", encoding="utf-8", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if not to_stdout:
            out.close()
    return to_stdout


def cmd_sanitize(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    params = PrivacyParams(epsilon=args.epsilon, height=args.height)
    pending = args.seed_out and f"{args.seed_out}.{os.urandom(4).hex()}"
    if pending:
        # The seed is a key: owner-only from creation on, and never printed. It goes to
        # a fresh file before any work, so no release loses its drawn key, and replaces
        # PATH once the release is written, so a failed run leaves the key PATH held.
        fd = os.open(pending, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(f"{seed}\n")
    try:
        db, universe = load_db(args.input, args.universe)
        from .inference import order_violations
        from .model import write_db
        from .privacy import RandomSource, budget_ledger
        from .release import release_tree
        from .tree import build_noisy_tree, dump_tree

        # The steps of ``sanitize``, with the input freed once the tree is built:
        # the later steps read only the tree.
        tree = build_noisy_tree(db, universe, params, RandomSource(seed))
        del db
        release = release_tree(tree, use_inference=(args.variant == "full"))
        write_db(release, universe, args.output)
        if args.dump_tree:
            with open(args.dump_tree, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(dump_tree(tree))
    except BaseException:
        if pending:
            os.remove(pending)
        raise
    if pending:
        os.replace(pending, args.seed_out)  # if this fails, the key stays in ``pending``

    print(f"input={args.input} universe={len(universe)}")
    print(
        f"epsilon={params.epsilon:g} height={params.height} "
        f"theta={params.threshold(len(universe)):.6g} "
        f"theta_expand={params.expand_threshold(len(universe)):.6g} variant={args.variant}"
    )
    for line in budget_ledger(params).describe():
        print(line)
    print(f"tree.nodes={len(tree) - 1} tree.empty_born={int((tree.true_count[1:] == 0).sum())}")
    if args.variant == "full":
        print(f"inference.order_violations={order_violations(tree)}")
    print(f"release.records={len(release)} output={args.output}")
    return 0


def _load_inputs(args: argparse.Namespace) -> tuple[TrajectoryDb, TrajectoryDb, LocationUniverse]:
    """The evaluators' ``--raw`` (not empty) and ``--sanitized`` databases, and the universe.

    Both files are read before numpy is imported.
    """
    universe = load_universe(args.universe)
    raw = read_records(args.raw, universe)
    if not raw.weights:
        raise DataFormatError(f"{args.raw}: raw database is empty")
    sanitized = read_records(args.sanitized, universe)
    from .model import as_db

    return as_db(raw), as_db(sanitized), universe


def cmd_eval_count(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    raw, sanitized, universe = _load_inputs(args)
    from .utility import DEFAULT_SANITY_FRACTION, evaluate_workload, generate_workload

    workload = generate_workload(universe, args.height, args.queries_per_subset, seed)
    sanity = DEFAULT_SANITY_FRACTION * len(raw)
    started = time.perf_counter()
    averages = evaluate_workload(raw, sanitized, workload, len(universe))
    runtime = time.perf_counter() - started
    _write_csv(
        args.output,
        ["subset", "max_query_len", "queries", "epsilon", "height", "variant",
         "sanity", "avg_relative_error"],
        (
            [i, max_len, args.queries_per_subset, args.epsilon_label, args.height,
             args.variant_label, f"{sanity:.6f}", f"{avg:.6f}"]
            for i, (max_len, avg) in enumerate(zip(workload.max_lengths, averages), start=1)
        ),
    )
    # The seed draws only the public queries, not noise: printed so the workload can be redrawn.
    print(f"seed={seed} runtime_seconds={runtime:.3f}", file=sys.stderr)
    return 0


def cmd_eval_fsp(args: argparse.Namespace) -> int:
    raw, sanitized, _ = _load_inputs(args)
    from .utility import fsp_metrics, mine_top_k

    started = time.perf_counter()
    raw_patterns = mine_top_k(raw, args.topk[-1], args.max_pattern_len)
    sanitized_patterns = mine_top_k(sanitized, args.topk[-1], args.max_pattern_len)
    rows = [
        [k, args.epsilon_label, args.height_label, args.variant_label,
         *fsp_metrics(raw_patterns[:k], sanitized_patterns[:k], k),
         min(k, len(raw_patterns)), min(k, len(sanitized_patterns))]
        for k in args.topk
    ]
    runtime = time.perf_counter() - started
    _write_csv(
        args.output,
        ["k", "epsilon", "height", "variant", "true_positives", "false_positives",
         "false_drops", "mined_raw", "mined_sanitized"],
        rows,
    )
    print(f"runtime_seconds={runtime:.3f}", file=sys.stderr)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from .datagen import generate
    from .model import write_db, write_universe

    values = {f.name: getattr(args, f.name) for f in fields(GenConfig)}
    values["seed"] = _resolve_seed(args.seed)
    config = GenConfig(**{name: v for name, v in values.items() if v is not None})
    db, universe = generate(config)
    write_db(db, universe, args.output)
    if args.universe_out:
        write_universe(universe, args.universe_out)
    print(
        f"records={len(db)} universe={len(universe)} seed={config.seed} output={args.output}"
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    db, _ = load_db(args.input, args.universe)
    from .model import release_stats

    stats = release_stats(db)
    to_stdout = _write_csv(args.output, ["length", "count"], stats.length_histogram.items())
    summary = f"records={stats.records} distinct_locations={stats.distinct_locations}"
    print(summary, file=sys.stderr if to_stdout else sys.stdout)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dptraj",
        description="Sanitize trajectory databases under differential privacy "
        "and evaluate the released data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sanitize", help="produce a differentially private release")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--height", type=int, default=12)
    p.add_argument("--seed", type=_at_least(0), default=None)
    p.add_argument("--universe", required=True, help="public universe file, one token per line")
    p.add_argument("--variant", choices=VARIANTS, default="full")
    p.add_argument("--dump-tree", default=None, dest="dump_tree", metavar="PATH")
    p.add_argument(
        "--seed-out", default=None, dest="seed_out", metavar="PATH",
        help="write the seed used, given or drawn, to PATH (mode 0600); keep it secret",
    )
    p.set_defaults(func=cmd_sanitize)

    # What both evaluators take; --height is an int for eval-count, a label for eval-fsp.
    evaluator = argparse.ArgumentParser(add_help=False)
    evaluator.add_argument("--raw", required=True)
    evaluator.add_argument("--sanitized", required=True)
    evaluator.add_argument("--universe", required=True)
    evaluator.add_argument("--output", default=None, help="CSV path (default stdout)")
    label = "label echoed into the CSV"
    evaluator.add_argument("--epsilon", default="", dest="epsilon_label", help=label)
    evaluator.add_argument("--variant", default="", dest="variant_label", help=label)

    p = sub.add_parser(
        "eval-count", parents=[evaluator], help="relative-error report over a random query workload"
    )
    p.add_argument(
        "--height", type=_at_least(4, " (the first query subset's lengths reach height/4)"),
        default=12,
    )
    p.add_argument(
        "--queries-per-subset", type=_positive_int, default=10000, dest="queries_per_subset"
    )
    p.add_argument("--seed", type=_at_least(0), default=None)
    p.set_defaults(func=cmd_eval_count)

    p = sub.add_parser(
        "eval-fsp", parents=[evaluator], help="top-k sequential-pattern overlap report"
    )
    p.add_argument(
        "--topk", type=_topk, default="100", help="comma-separated k values, e.g. 50,100,200"
    )
    p.add_argument("--max-pattern-len", type=_positive_int, default=None, dest="max_pattern_len")
    p.add_argument("--height", default="", dest="height_label", help=label)
    p.set_defaults(func=cmd_eval_fsp)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--output", required=True)
    p.add_argument("--universe-out", default=None, dest="universe_out")
    types = get_type_hints(GenConfig)
    for f in fields(GenConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=types[f.name], default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="length histogram of a trajectory file")
    p.add_argument("--input", required=True)
    p.add_argument("--universe", required=True)
    p.add_argument("--output", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownLocationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNIVERSE
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
