"""One benchmark process: set up a workload, report readiness, run it in a closed loop.

Started by ``run.py`` with the thread counts and ``PYTHONPATH`` already set.
It prints ``ready`` once chaoslab is imported and the inputs are built (the
parent times that as set-up), then calls the workload until ``--seconds`` are
used and prints one JSON line with the timings, the checks and, when tracing,
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
RECORDED = HERE / "recorded.json"


def import_program() -> None:
    """Import chaoslab from this checkout's ``src``, nowhere else."""
    src = (ROOT / "src").resolve()
    if not (src / "chaoslab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no chaoslab sources under {src}")
    import chaoslab
    import chaoslab.cli  # noqa: F401  (the CLI workloads' entry point)

    if Path(chaoslab.__file__).resolve().parent != src / "chaoslab":
        sys.exit(f"perfbench: imported chaoslab from {chaoslab.__file__}, not {src}")


def fingerprint() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_config = f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}"
    except (TypeError, KeyError):
        blas_config = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "CHAOSLAB_THREADS": os.environ.get("CHAOSLAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas": blas_config,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def expected_for(workload: str, seed: int, size: str) -> tuple[str | None, int | None]:
    """Recorded digest and exit code for this seed, or (None, exit code all seeds share)."""
    if size != "full":
        return None, None
    record = json.loads(RECORDED.read_text(encoding="utf-8"))["workloads"].get(workload, {})
    entry = record.get("seeds", {}).get(str(seed))
    if entry is not None:
        return entry["digest"], entry["exit_code"]
    codes = {e["exit_code"] for e in record.get("seeds", {}).values()}
    return None, codes.pop() if len(codes) == 1 else None


def run_loop(workload, seconds: float, trace: bool, expected_digest, expected_exit) -> dict:
    """Call ``workload`` until ``seconds`` are used; alternate untraced and traced calls when tracing."""
    from spans import LAYER_METRICS, Tracer, layer_metrics

    tracer = Tracer() if trace else None
    min_calls = 4 if trace else 3
    reps = []
    layers = []
    failures = []
    reference = expected_digest
    started = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        cpu0 = os.times()
        t0 = time.perf_counter()
        try:
            raw = workload.run()
        finally:
            t1 = time.perf_counter()
            cpu1 = os.times()
            if traced:
                tracer.uninstall()
        outcome = workload.check(raw)
        wall = t1 - t0
        cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
        reps.append({"wall": wall, "cpu": cpu, "traced": traced})
        reference = reference or outcome.digest
        problems = list(outcome.problems)
        if outcome.digest != reference:
            problems.append(f"digest {outcome.digest} != {reference}")
        if expected_exit is not None and outcome.exit_code != expected_exit:
            problems.append(f"exit code {outcome.exit_code} != recorded {expected_exit}")
        if problems:
            failures.append(problems)
        if traced:
            layers.append(layer_metrics(tracer.spans, tracer.counts, bytes_written=outcome.bytes_written))
        elapsed = time.perf_counter() - started
        if len(reps) >= min_calls and elapsed + statistics.median(r["wall"] for r in reps) > seconds:
            break

    plain = [r for r in reps if not r["traced"]]
    result = {
        "attempted": len(reps),
        "failed": len(failures),
        "problems": failures[:3],
        "wall_s": statistics.median(r["wall"] for r in plain),
        "digest": reference,
        "exit_code": outcome.exit_code,
        "verdict": "pass" if outcome.passed else "fail",
        "recorded": expected_digest is not None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        metrics = {name: statistics.median(rep[name] for rep in layers) for name in layers[0]}
        traced_wall = statistics.median(r["wall"] for r in reps if r["traced"])
        metrics["proc.cpu_s"] = statistics.median(r["cpu"] for r in plain)
        metrics["proc.cpu_per_wall"] = statistics.median(r["cpu"] / r["wall"] for r in plain)
        metrics["trace.overhead_frac"] = traced_wall / result["wall_s"] - 1.0
        result["layers"] = {name: metrics[name] for name in LAYER_METRICS}
        result["untraced_targets"] = tracer.missing
        result["spans"] = tracer.export()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--probe", action="store_true", help="exit once set up (set-up timing)")
    parser.add_argument("--once", action="store_true", help="one untimed call; print its digest")
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.NAMES:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    SCRATCH.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        workload = workloads.build(args.workload, args.seed, args.size, out_dir)
        print("ready", flush=True)
        if args.probe:
            return 0
        if args.once:
            outcome = workload.check(workload.run())
            print(json.dumps({"seed": args.seed, "digest": outcome.digest, "exit_code": outcome.exit_code,
                              "verdict": "pass" if outcome.passed else "fail",
                              "problems": outcome.problems}), flush=True)
            return 0
        expected_digest, expected_exit = expected_for(args.workload, args.seed, args.size)
        result = run_loop(workload, args.seconds, bool(args.trace), expected_digest, expected_exit)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result["fingerprint"] = fingerprint()
    spans = result.pop("spans", None)
    if spans is not None:
        trace_file = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "fingerprint": result["fingerprint"],
            "columns": ["repetition", "name", "start", "end", "parent"], "spans": spans,
        }), encoding="utf-8")
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
