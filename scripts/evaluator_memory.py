"""Peak memory and time of `eval-count`, `eval-fsp` and raw mining, against a baseline checkout.

Runs the evaluators of this checkout and of a baseline checkout in turns,
each in a fresh process, on one input directory with ``corpus.txt``,
``release.txt`` and ``universe.txt`` (the layout ``perfbench/prepare.py``
writes):

    python3 perfbench/prepare.py --gen '{"n_locations": 1012, "n_records": 400000,
        "avg_len": 6.7, "max_len": 12, "n_planted_routes": 0, "zipf_skew": 1.0}' \\
        --seed 1 --release --out INPUTS
    python3 scripts/evaluator_memory.py --inputs INPUTS --baseline OLD_CHECKOUT --pairs 10

One pair runs, for the baseline and then for this checkout:

- ``eval-count`` and ``eval-fsp`` with the benchmark's evaluation parameters
  (``perfbench/workloads.py``): wall time and peak RSS (``ru_maxrss`` from
  ``os.wait4``);
- ``mine_top_k`` on the raw corpus alone, at the largest top-k, timed in
  process after loading (``mine_s``).

Prints one JSON object: per checkout the median of each figure, and per
figure the number of pairs in which this checkout's value was lower, and
the first 12 hex digits of each checkout's ``count.csv`` and ``fsp.csv``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import COUNT_CSV, FSP_CSV, TOPK, cli_args  # noqa: E402

MINE = """
import sys, time
from dptraj import load_db, mine_top_k
raw, _ = load_db(sys.argv[1], sys.argv[2])
started = time.perf_counter()
mine_top_k(raw, int(sys.argv[3]))
print(time.perf_counter() - started)
"""


def _run(argv: list[str], src: Path) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MB and stdout of one child process."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    started = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = child.stdout.read().decode()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{argv[3:5]} failed under {src}")
    return wall, usage.ru_maxrss / 1024.0, out


def one_pass(src: Path, inputs: Path, out: Path) -> dict[str, float]:
    figures = {}
    for command in ("eval-count", "eval-fsp"):
        argv = [sys.executable, "-m", "dptraj", *cli_args(command, str(inputs), str(out))]
        wall, rss, _ = _run(argv, src)
        figures[f"{command}_s"], figures[f"{command}_mb"] = wall, rss
    _, _, printed = _run(
        [sys.executable, "-c", MINE, str(inputs / "corpus.txt"), str(inputs / "universe.txt"),
         str(max(TOPK))],
        src,
    )
    figures["mine_s"] = float(printed)
    return figures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--baseline", required=True, type=Path, help="another checkout's root")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    sources = {"baseline": args.baseline.resolve() / "src", "change": ROOT / "src"}
    runs: dict[str, list[dict]] = {name: [] for name in sources}
    with tempfile.TemporaryDirectory() as tmp:
        outs = {name: Path(tmp) / name for name in sources}
        for out in outs.values():
            out.mkdir()
        for _ in range(args.pairs):
            for name, src in sources.items():
                runs[name].append(one_pass(src, args.inputs.resolve(), outs[name]))
        digests = {
            name: {
                f: hashlib.sha256((out / f).read_bytes()).hexdigest()[:12]
                for f in (COUNT_CSV, FSP_CSV)
            }
            for name, out in outs.items()
        }
    keys = runs["change"][0].keys()
    print(json.dumps({
        "inputs": str(args.inputs),
        "pairs": args.pairs,
        "median": {
            name: {k: round(statistics.median(r[k] for r in rs), 4) for k in keys}
            for name, rs in runs.items()
        },
        "change_lower_in": {
            k: sum(c[k] < b[k] for b, c in zip(runs["baseline"], runs["change"])) for k in keys
        },
        "digests": digests,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
