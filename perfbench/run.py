"""dptraj benchmark: times the ``dptraj`` CLI from outside, one fresh process per command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout it lives in and builds nothing.
The seed is the corpus generator's seed. Inputs are prepared (and cached under
``.perfbench/``) before anything is timed. Then the run measures passes of the
workload's commands, closed loop, one command at a time with the CLI's default
``--threads 1``, until ``--seconds`` have passed and at least two passes ran.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` measures the CLI
the same way (one pass minimum, no set-up samples) and then runs the traced
in-process replay (``traced.py``) once, and prints the per-layer metrics.

Every command's outputs are checked; a command fails on a nonzero exit, a
timeout or a failed check. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Progress and failure
details go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from prepare import ensure_inputs, input_key, src_digest
from traced import TRACE, self_times, top_level_seconds
from workloads import (
    COUNT_CSV, CORPUS, FSP_CSV, HEIGHT, QUERIES_PER_SUBSET, RELEASE, TOPK, UNIVERSE,
    WORKLOADS, Workload, cli_args,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run, preparation included, stops starting work after this many seconds.
RUN_LIMIT_S = 165.0
MIN_PASSES = 2
MIN_PASSES_TRACED = 1
SETUP_SAMPLES = 3

END_TO_END = {"cli_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics. Self times are named after their span plus ``.s``.
PER_LAYER = {
    "model.load_db.s": "s",
    "model.write_db.s": "s",
    "model.input_mb": "MB",
    "model.output_mb": "MB",
    "tree.build_noisy_tree.s": "s",
    "tree.nodes": "count",
    "tree.empty_born": "count",
    "tree.depth": "count",
    "tree.input_dup_factor": "ratio",
    "privacy.stream.calls": "count",
    "privacy.stream.s": "s",
    "inference.consolidate.s": "s",
    "inference.consistent_estimates.s": "s",
    "inference.order_violations.s": "s",
    "inference.order_violations": "count",
    "release.generate_release.s": "s",
    "release.records": "count",
    "release.dup_factor": "ratio",
    "utility.generate_workload.s": "s",
    "utility.index_build.s": "s",
    "utility.index_mb": "MB",
    "utility.query.s": "s",
    "utility.query_p50_us": "us",
    "utility.query_p999_us": "us",
    "utility.mine_top_k.s": "s",
    "utility.count_rel_error": "ratio",
    "utility.fsp_tp_250": "patterns",
    "cli.sanitize_s": "s",
    "cli.eval_count_s": "s",
    "cli.eval_fsp_s": "s",
    "cli.wall_s": "s",
    "cli.other_s": "s",
    "trace.overhead_frac": "fraction",
}

#: Counts that must repeat exactly across runs of one code version and seed.
EXACT_COUNTS = (
    "tree.nodes", "tree.empty_born", "release.records", "inference.order_violations",
    "privacy.stream.calls", "utility.count_rel_error", "utility.fsp_tp_250",
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Proc:
    """One finished child process."""

    name: str
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    failures: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


class Runner:
    """Starts child processes one at a time and keeps every outcome."""

    def __init__(self, env: dict, workdir: Path, deadline: float):
        self.env = env
        self.workdir = workdir
        self.deadline = deadline
        self.procs: list[Proc] = []

    def remaining(self) -> float:
        return self.deadline - perf_counter()

    def run(self, name: str, argv: list[str]) -> Proc:
        """Run ``argv`` to completion; peak RSS comes from this child's own rusage."""
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        timeout = max(self.remaining(), 1.0)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = perf_counter()
            child = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env
            )
            timer = threading.Timer(timeout, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
        proc = Proc(
            name=name,
            returncode=child.returncode,
            wall_s=wall,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )
        if proc.returncode != 0:
            reason = "timed out" if proc.returncode == -9 and wall >= timeout else "exit"
            proc.fail(f"{reason} {proc.returncode}: {proc.stderr.strip()[-500:]}")
        self.procs.append(proc)
        return proc


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def release_problem(path: Path, universe_path: Path) -> str | None:
    """Why a release file breaks the output contract, or None."""
    tokens = set(universe_path.read_text(encoding="utf-8").split())
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            record = line.split()
            if not 1 <= len(record) <= HEIGHT:
                return f"{path.name}:{lineno}: record length {len(record)} outside 1..{HEIGHT}"
            if not tokens.issuperset(record):
                return f"{path.name}:{lineno}: token outside the universe"
    return None


def manifest_counts(stdout: str) -> dict[str, int]:
    wanted = ("tree.nodes", "tree.empty_born", "inference.order_violations", "release.records")
    counts = {}
    for item in stdout.split():
        key, _, value = item.partition("=")
        if key in wanted:
            counts[key] = int(value)
    return counts


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Checker:
    """Output checks for CLI commands; outputs of one command must repeat byte for byte."""

    def __init__(self, inputs: Path, out: Path):
        self.inputs = inputs
        self.out = out
        self.digests: dict[str, str] = {}
        self.counts: dict[str, float] = {}
        self._release_problems: dict[str, str | None] = {}

    def check(self, proc: Proc) -> None:
        if proc.failures:
            return
        try:
            getattr(self, "_" + proc.name.replace("-", "_"))(proc)
        except (OSError, ValueError, KeyError) as exc:
            proc.fail(f"unreadable output: {exc!r}")

    def _digest(self, proc: Proc, path: Path) -> str:
        """Digest of ``path``; the command fails if it differs from its first output."""
        digest = sha256(path)
        first = self.digests.setdefault(proc.name, digest)
        if digest != first:
            proc.fail(f"{path.name} differs from the first {proc.name} of this run")
        return digest

    def _sanitize(self, proc: Proc) -> None:
        if "conserved=true" not in proc.stdout:
            proc.fail("manifest does not print conserved=true")
        release = self.out / RELEASE
        digest = self._digest(proc, release)
        if digest not in self._release_problems:
            self._release_problems[digest] = release_problem(release, self.inputs / UNIVERSE)
        if self._release_problems[digest]:
            proc.fail(self._release_problems[digest])
        counts = manifest_counts(proc.stdout)
        if len(counts) != 4:
            proc.fail(f"manifest counts incomplete: {counts}")
        self.counts.update(counts)

    def _eval_count(self, proc: Proc) -> None:
        path = self.out / COUNT_CSV
        self._digest(proc, path)
        if proc.failures:
            return
        rows = read_csv(path)
        errors = [float(r["avg_relative_error"]) for r in rows]
        if [r["subset"] for r in rows] != ["1", "2", "3", "4"] or any(
            r["queries"] != str(QUERIES_PER_SUBSET) for r in rows
        ):
            proc.fail(f"{path.name}: unexpected rows {rows}")
        elif not all(math.isfinite(e) and e >= 0 for e in errors):
            proc.fail(f"{path.name}: bad relative errors {errors}")
        else:
            self.counts["utility.count_rel_error"] = sum(errors) / len(errors)

    def _eval_fsp(self, proc: Proc) -> None:
        path = self.out / FSP_CSV
        self._digest(proc, path)
        if proc.failures:
            return
        rows = read_csv(path)
        if [int(r["k"]) for r in rows] != list(TOPK) or any(
            int(r["true_positives"]) + int(r["false_drops"]) != int(r["mined_raw"]) for r in rows
        ):
            proc.fail(f"{path.name}: unexpected rows {rows}")
        else:
            self.counts["utility.fsp_tp_250"] = int(rows[-1]["true_positives"])


def check_exact_repeat(store: Path, counts: dict, blame: Proc) -> None:
    """Compare counts with those recorded by earlier runs of this code and seed."""
    recorded = json.loads(store.read_text()) if store.is_file() else {}
    for key, value in counts.items():
        if key in EXACT_COUNTS and key in recorded and recorded[key] != value:
            blame.fail(f"{key}={value} but an earlier run of this code and seed had {recorded[key]}")
    if not blame.failures:
        recorded.update({k: v for k, v in counts.items() if k in EXACT_COUNTS})
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(recorded, sort_keys=True))


def measure(
    runner: Runner, workload: Workload, inputs: Path, out: Path, seconds: float,
    setups: int, min_passes: int, tamper=None,
) -> tuple[list[float], dict[str, list[float]], list[float], Checker]:
    """Closed-loop passes over the workload's commands, with set-up samples interleaved."""
    files = [inputs / CORPUS] + ([inputs / RELEASE] if workload.needs_release else [])
    setup_argv = [
        sys.executable, "-c",
        "import sys; from dptraj import load_db\nfor p in sys.argv[2:]: load_db(p, sys.argv[1])",
        str(inputs / UNIVERSE), *map(str, files),
    ]
    checker = Checker(inputs, out)
    setup_s: list[float] = []
    walls: dict[str, list[float]] = {c: [] for c in workload.commands}
    pass_s: list[float] = []

    def setup_sample() -> None:
        proc = runner.run("setup", setup_argv)
        if not proc.failures:
            setup_s.append(proc.wall_s)

    started = perf_counter()
    while len(pass_s) < min_passes or perf_counter() - started < seconds:
        if pass_s and runner.remaining() < 1.5 * max(pass_s):
            log("stopping early: another pass would overrun the run's time limit")
            break
        if len(setup_s) < setups:
            setup_sample()
        total = 0.0
        for command in workload.commands:
            proc = runner.run(command, [sys.executable, "-m", "dptraj",
                                        *cli_args(command, str(inputs), str(out))])
            if tamper is not None:
                tamper(command, out)
            checker.check(proc)
            walls[command].append(proc.wall_s)
            total += proc.wall_s
        pass_s.append(total)
        log(f"pass {len(pass_s)}: " + ", ".join(f"{c} {w[-1]:.3f} s" for c, w in walls.items()))
    while len(setup_s) < setups and runner.remaining() > 3 * max(setup_s, default=10.0):
        setup_sample()
    return pass_s, walls, setup_s, checker


def traced_metrics(
    runner: Runner, workload: Workload, inputs: Path, walls: dict, checker: Checker, state: Path
) -> tuple[dict[str, float], dict]:
    trace_out = runner.workdir / "traced"
    trace_out.mkdir()
    proc = runner.run("traced", [
        sys.executable, str(HERE / "traced.py"), "--commands", ",".join(workload.commands),
        "--inputs", str(inputs), "--out", str(trace_out),
    ])
    if proc.failures:
        return {}, {}
    shutil.copy(trace_out / TRACE, state / f"last-trace-{workload.name}.json")
    trace = json.loads((trace_out / TRACE).read_text())
    missing = trace["missing"]
    for problem in trace["oracle_failures"]:
        proc.fail(f"oracle: {problem}")
    traced_commands = [c for c in workload.commands if not any(m.startswith(c + ":") for m in missing)]
    for command in traced_commands:
        name = {"sanitize": RELEASE, "eval-count": COUNT_CSV, "eval-fsp": FSP_CSV}[command]
        if checker.digests.get(command) not in (None, sha256(trace_out / name)):
            proc.fail(f"traced {name} differs from the CLI's")
    counts = trace["counts"]
    for key, value in checker.counts.items():
        if key in counts and counts[key] != value:
            proc.fail(f"traced {key}={counts[key]} but the CLI gave {value}")

    values: dict[str, float] = {f"{name}.s": s for name, s in self_times(trace["spans"]).items()}
    values.update(counts)
    medians = {c: statistics.median(w) for c, w in walls.items() if w}
    for command in ("sanitize", "eval-count", "eval-fsp"):
        values[f"cli.{command.replace('-', '_')}_s"] = medians.get(command, 0.0)
    values["cli.wall_s"] = sum(medians.values())
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "cli.other_s":
            if not missing:
                metrics[name] = values["cli.wall_s"] - top_level_seconds(trace["spans"])
        elif name in values:
            metrics[name] = values[name]
        elif not missing:
            metrics[name] = 0.0  # the workload does not run this layer
    absent = sorted(set(PER_LAYER) - set(metrics))
    if absent:
        log(f"missing layer metrics ({'; '.join(missing)}): {', '.join(absent)}")
    return metrics, counts


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, tamper=None) -> dict:
    """Prepare, measure and check one workload; returns the result object."""
    began = perf_counter()
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    digest = src_digest(ROOT / "src")
    state = ROOT / ".perfbench"
    workdir = state / "runs" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    out = workdir / "out"
    out.mkdir(parents=True)
    try:
        # Byte-compiles the package once, so no measured process pays for it.
        warm = subprocess.run([sys.executable, "-c", "import dptraj"], env=env,
                              capture_output=True, text=True, timeout=60)
        if warm.returncode != 0:
            raise RuntimeError(f"cannot import dptraj:\n{warm.stderr}")
        runner = Runner(env, workdir, began + RUN_LIMIT_S)
        inputs, meta = ensure_inputs(ROOT, workload, seed, digest, env, runner.remaining())
        log(f"{workload.name} seed={seed}: inputs ready after {perf_counter() - began:.1f} s")
        pass_s, walls, setup_s, checker = measure(
            runner, workload, inputs, out, seconds,
            setups=0 if trace else SETUP_SAMPLES,
            min_passes=MIN_PASSES_TRACED if trace else MIN_PASSES,
            tamper=tamper,
        )
        if workload.needs_release:
            checker.counts["release.records"] = meta["release_records"]
        if trace:
            metrics, traced_counts = traced_metrics(runner, workload, inputs, walls, checker, state)
            checker.counts.update({k: v for k, v in traced_counts.items() if k in EXACT_COUNTS})
        else:
            commands = [p for p in runner.procs if p.name in workload.commands]
            metrics = {}
            if pass_s:
                metrics["cli_s"] = statistics.median(pass_s)
            if setup_s:
                metrics["setup_s"] = statistics.median(setup_s)
            if commands:
                metrics["peak_rss_mb"] = max(p.peak_rss_mb for p in commands)
        store = state / "counts" / f"{workload.name}-{input_key(workload, seed, digest)}.json"
        last_command = next(p for p in reversed(runner.procs) if p.name != "setup")
        check_exact_repeat(store, checker.counts, last_command)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [p for p in runner.procs if p.failures]
    for p in failed:
        log(f"FAILED {p.name}: {'; '.join(p.failures)}")
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not failed,
        "attempted": len(runner.procs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="dptraj benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "dptraj" / "__init__.py").is_file():
        log(f"error: no dptraj sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        log(f"error: {exc}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
