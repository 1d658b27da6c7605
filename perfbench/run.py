"""Benchmark of the quandles package: census, coset construction, mesh round trip.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from ./src.  Each
pass runs in a fresh interpreter (child.py), one at a time, so every pass
starts with cold caches as a CLI user's does.  Passes repeat until the next
one would end after S seconds (at least one pass).  Every pass checks its
outputs against golden.json and reference.py.

With --trace 0 the result reports, as medians over the passes, pass_s (one
pass), setup_s (import plus input generation), peak_rss_mb, and ok_ratio
(operations checked correct over operations attempted).  pass_s and setup_s
are seconds at a reference host speed: the host's speed is probed while
they run and the raw seconds are scaled by it (speed.py), because the
shared host's own speed varies by up to a factor of two.  With --trace 1
untraced and traced passes alternate; the result reports the per-layer
metrics of the traced passes (medians) and trace.overhead, the median
traced pass_s over the median untraced pass_s.  The spans of the last
traced pass are written to .bench_out/spans-NAME.jsonl.

Before the result, one line gives the environment; the last line of
standard output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("brute-6", "connected-6", "mesh-roundtrip")
# Every run must exit within this many seconds; a pass still running when
# the budget is gone is killed and counted as failed.
RUN_BUDGET_S = 170.0
# numpy's BLAS would otherwise start a thread pool in every pass; the
# workloads are meant to run on one thread.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def environment() -> dict:
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        git_rev = git.stdout.strip() if git.returncode == 0 else None
    except OSError:  # no git on this machine
        git_rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def run_pass(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One child pass; raises RuntimeError when it crashes or prints no result."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(int(traced))]
    if traced:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd.append(str(out_dir / f"spans-{workload}.jsonl"))
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT, timeout=timeout, env=CHILD_ENV
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"pass exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quandles" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC / 'quandles'}\n")
        return 2

    start = perf_counter()
    print(json.dumps({"environment": environment()}), flush=True)
    golden_problems = reference.golden_problems(reference.load_golden())
    attempted, failed = 1, int(bool(golden_problems))
    problems = list(golden_problems)

    kinds = (False, True) if args.trace else (False,)
    passes: dict[bool, list[dict]] = {False: [], True: []}
    rounds: list[float] = []
    while True:
        round_start = perf_counter()
        try:
            for traced in kinds:
                timeout = max(1.0, RUN_BUDGET_S - (perf_counter() - start))
                result = run_pass(args.workload, args.seed, traced, timeout)
                passes[traced].append(result)
                attempted += result["attempted"]
                failed += result["failed"]
                problems += result["problems"]
        except RuntimeError as exc:
            attempted += 1
            failed += 1
            problems.append(str(exc))
            break
        rounds.append(perf_counter() - round_start)
        if perf_counter() - start + statistics.median(rounds) > args.seconds:
            break

    print(json.dumps({"passes": [
        {"traced": traced, **{k: p[k] for k in ("pass_s", "setup_s", "wall_s", "speed")}}
        for traced in kinds for p in passes[traced]
    ]}))
    for problem in problems:
        sys.stderr.write(f"problem: {problem}\n")
    if not all(passes[traced] for traced in kinds):
        sys.stderr.write("error: no pass completed\n")
        return 1

    def median(key: str, traced: bool = False) -> float:
        return statistics.median(p[key] for p in passes[traced])

    if args.trace:
        # median_low keeps counts whole: it is always one of the passes' values.
        layers = passes[True][0]["layers"]
        metrics = {
            name: {"value": statistics.median_low(p["layers"][name][0] for p in passes[True]),
                   "unit": unit}
            for name, (_, unit) in layers.items()
        }
        metrics["trace.overhead"] = {"value": median("pass_s", True) / median("pass_s"), "unit": "ratio"}
    else:
        metrics = {
            "pass_s": {"value": median("pass_s"), "unit": "s"},
            "setup_s": {"value": median("setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
