"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a spatecon checkout. Each run

1. generates the workload's inputs from the seed in a separate process
   (``gen.py``), so input generation never reaches set-up time or memory;
2. with ``--trace 0``, starts a few set-up probes (``workload.py --probe``)
   for a median set-up time;
3. starts the workload process (``workload.py``), which runs whole rounds
   of the workload's operations for S seconds, reads its peak RSS and then
   checks the outputs;
4. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics (``--trace 0``) or the per-layer metrics
   (``--trace 1``).

Every child process runs with BLAS and OpenMP pinned to one thread
(``CHILD_ENV``). The program's calls are single-threaded, and a second
BLAS thread only spins: on a 2-core machine it doubled the CPU time and
left the wall time as it was. Every file a run writes goes to
``perfbench/_work/`` and is removed at the end. The process exits
non-zero, without a result line, if spatecon's sources are not in the
current directory or any step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("gaussian_five_kinds", "probit_knn_scan", "large_gaussian_slm")
SETUP_PROBES = 2
RUN_TIMEOUT_S = 170  # a run must end within 180 s; a step past this is killed
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def step(args: list[str], deadline: float) -> None:
    timeout = max(deadline - time.monotonic(), 1.0)
    subprocess.run([sys.executable, *args], check=True, timeout=timeout,
                   stdout=subprocess.DEVNULL, env=CHILD_ENV)


def main() -> int:
    parser = argparse.ArgumentParser(description="spatecon benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="input size; tiny is for the self-test")
    args = parser.parse_args()

    if not Path("src/spatecon/__init__.py").is_file():
        print("error: run from the root of a spatecon checkout (no src/spatecon)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        step([str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
              "--dir", str(work), "--size", args.size], deadline)
        common = [str(HERE / "workload.py"), "--workload", args.workload, "--dir", str(work),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                step([*common, "--probe", "--t0", repr(time.monotonic())], deadline)
            setups = [json.loads(p.read_text())["setup_s"] for p in work.glob("probe-*.json")]
        step([*common, "--t0", repr(time.monotonic())], deadline)
        result = json.loads((work / "result.json").read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [result["setup_s"]]), "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
