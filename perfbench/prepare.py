"""Input preparation: a workload's corpus (and, for evaluate workloads, its release).

Inputs are cached under ``.perfbench/inputs``, keyed by the corpus recipe, the
seed and a digest of ``src/``, so a second run with the same seed and code
reuses them. Preparation runs in its own process and is never timed.

As a script it prepares one input directory:

    python3 perfbench/prepare.py --gen '{"n_locations": 50, ...}' --seed 1 \\
        [--release] --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import (
    CORPUS, EPSILON, HEIGHT, RELEASE, SANITIZE_SEED, UNIVERSE, VARIANT, Workload,
)

META = "meta.json"
#: Prepared input sets kept per workload; older ones are deleted.
KEEP_PER_WORKLOAD = 2


def src_digest(src: Path) -> str:
    """Digest of every source file under ``src`` (compiled caches excluded)."""
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        if "__pycache__" in path.parts:
            continue
        h.update(path.relative_to(src).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def input_key(workload: Workload, seed: int, digest: str) -> str:
    recipe = json.dumps(
        {"gen": workload.gen, "release": workload.needs_release, "seed": seed, "src": digest},
        sort_keys=True,
    )
    return hashlib.sha256(recipe.encode()).hexdigest()[:16]


def ensure_inputs(
    root: Path, workload: Workload, seed: int, digest: str, env: dict, timeout: float
) -> tuple[Path, dict]:
    """Directory holding the workload's inputs for ``seed``, preparing it if needed."""
    base = root / ".perfbench" / "inputs" / workload.name
    target = base / input_key(workload, seed, digest)
    if not (target / META).is_file():
        tmp = target.with_name(target.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--gen", json.dumps(workload.gen),
            "--seed", str(seed), "--out", str(tmp),
        ]
        if workload.needs_release:
            argv.append("--release")
        try:
            done = subprocess.run(argv, env=env, timeout=timeout, capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            shutil.rmtree(tmp, ignore_errors=True)
            raise RuntimeError(f"input preparation took more than {timeout:.0f} s") from None
        if done.returncode != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            raise RuntimeError(f"input preparation failed:\n{done.stderr}")
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    os.utime(target / META)
    stale = sorted(
        (p for p in base.iterdir() if (p / META).is_file()),
        key=lambda p: (p / META).stat().st_mtime,
        reverse=True,
    )[KEEP_PER_WORKLOAD:]
    for old in stale:
        shutil.rmtree(old, ignore_errors=True)
    return target, json.loads((target / META).read_text())


def _prepare(gen: dict, seed: int, release: bool, out: Path) -> None:
    from dptraj import GenConfig, PrivacyParams, RandomSource, generate, sanitize
    from dptraj.model import write_db, write_universe

    db, universe = generate(GenConfig(**gen, seed=seed))
    write_db(db, universe, str(out / CORPUS))
    write_universe(universe, str(out / UNIVERSE))
    meta = {}
    if release:
        params = PrivacyParams(epsilon=EPSILON, height=HEIGHT)
        released, _ = sanitize(db, universe, params, RandomSource(SANITIZE_SEED), variant=VARIANT)
        write_db(released, universe, str(out / RELEASE))
        meta["release_records"] = len(released)
    # Written last: its presence marks a complete input directory.
    (out / META).write_text(json.dumps(meta))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gen", required=True, help="GenConfig fields as JSON, without seed")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--release", action="store_true", help="also sanitize the corpus")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    _prepare(json.loads(args.gen), args.seed, args.release, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
