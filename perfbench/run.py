"""chaoslab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mixture-central --seed 0 --seconds 25 --trace 0

Runs from the root of a checkout and imports chaoslab from its ``src``.  The
thread counts are fixed here, identically for every commit: CHAOSLAB_THREADS
and the BLAS threads are min(2, nproc).  Set-up time is the time from spawning
a fresh process to its first timed call (``import chaoslab`` plus building the
inputs), taken as the median over seven processes after one warm-up.  The
workload then runs in a closed loop in one process for ``--seconds``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 6  # plus the measured process itself: seven set-up samples
TIMEOUT_S = 170.0

sys.path.insert(0, str(HERE))
from spans import LAYER_METRICS  # noqa: E402
from workloads import NAMES  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def worker_env() -> dict:
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        CHAOSLAB_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run a worker; return (seconds until it printed ``ready``, its stdout lines)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=worker_env(),
        cwd=ROOT,
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - started
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker {args} exited with {code} (first line {first.strip()!r})")
    return ready_s, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chaoslab benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chaoslab" / "__init__.py").is_file():
        print(f"perfbench: no chaoslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    try:
        spawn(common + ["--probe"], deadline)  # warm-up: byte-compile, page cache
        setups = [spawn(common + ["--probe"], deadline)[0] for _ in range(SETUP_PROBES)]
        ready_s, lines = spawn(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        result = json.loads(lines[-1])
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(ready_s)

    if args.trace:
        metrics = {
            name: {"value": result["layers"][name], "unit": LAYER_METRICS[name][0]}
            for name in LAYER_METRICS
        }
    else:
        values = {
            "wall_s": result["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    failed_frac = result["failed"] / result["attempted"]
    print(f"fingerprint: {json.dumps(result['fingerprint'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    for name in result.get("untraced_targets", []):
        print(f"perfbench: {name} not found, so not traced", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        + " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items() if not args.trace)
        + f" failed_frac={failed_frac:g} (of {result['attempted']} calls)"
        + f" verdict={result['verdict']} exit_code={result['exit_code']}"
        + f" digest={result['digest']} ({'recorded' if result['recorded'] else 'not recorded'})"
        + (f" trace_file={result['trace_file']}" if args.trace else "")
    )
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
