"""Tiny-scale self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced on a corpus of a few
thousand records, and checks that:

- each run is correct and prints every metric BENCHMARK.json names, with its unit;
- in the traced run, the self times plus ``cli.other_s`` add up to ``cli.wall_s``;
- a deliberately corrupted release file is caught by the output checks and
  counted as a failed command;
- without the program's sources next to it the benchmark exits nonzero and
  prints no result.

Exits 0 when every check holds and prints each problem otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import ROOT, run_workload
from workloads import RELEASE, WORKLOADS

TINY_RECORDS = 3000


def declared(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(label: str, result: dict, expected_units: dict[str, str]) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected_units:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: {printed}")
    return problems


def check_self_times(label: str, metrics: dict) -> list[str]:
    values = {name: m["value"] for name, m in metrics.items()}
    self_time = sum(v for name, v in values.items() if name.endswith(".s"))
    gap = self_time + values["cli.other_s"] - values["cli.wall_s"]
    return [] if abs(gap) < 1e-6 else [f"{label}: self times + cli.other_s miss cli.wall_s by {gap}"]


def check_corruption() -> list[str]:
    def corrupt(command, out):
        if command == "sanitize":
            with open(out / RELEASE, "a", encoding="utf-8") as fh:
                fh.write("not-a-location\n")

    workload = WORKLOADS["sanitize-zipf-400k"].scaled(TINY_RECORDS)
    result = run_workload(workload, seed=1, seconds=0, trace=False, tamper=corrupt)
    if result["correct"] or result["failed"] < 2:
        return [f"corrupted release not caught: {result}"]
    return []


def check_without_sources() -> list[str]:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", next(iter(WORKLOADS)),
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"without sources: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name, workload in WORKLOADS.items():
        tiny = workload.scaled(TINY_RECORDS)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            label = f"{name} trace={int(trace)}"
            result = run_workload(tiny, seed=1, seconds=0, trace=trace)
            problems += check_result(label, result, declared(spec, key))
            if trace:
                problems += check_self_times(label, result["metrics"])
            print(f"ran {label}", file=sys.stderr)
    problems += check_corruption()
    problems += check_without_sources()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
