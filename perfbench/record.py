"""Maintenance commands for the benchmark's recorded data.

    python3 perfbench/record.py digests --seeds 0-31   # record digests and exit codes
    python3 perfbench/record.py table [--seed 0] [--write]   # the baseline table
    python3 perfbench/record.py spread --seeds 1-10 [--workloads ...]   # run-to-run spread

``digests`` runs each workload once per seed and stores the output digest and
exit code in ``recorded.json``; later runs of those seeds must reproduce them
exactly.  ``table`` runs every workload untraced and traced and prints the
baseline table (end-to-end metrics and the layers with the largest self time);
``--write`` stores it in ``recorded.json``.  ``spread`` repeats untraced runs
over several seeds and prints, per end-to-end metric, the quartile distance
as a share of the median next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDED = HERE / "recorded.json"

sys.path.insert(0, str(HERE))
from run import worker_env  # noqa: E402
from workloads import NAMES  # noqa: E402


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    return json.loads(out[-1]), out[-2]


def load() -> dict:
    return json.loads(RECORDED.read_text(encoding="utf-8"))


def save(data: dict) -> None:
    RECORDED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def cmd_digests(args) -> None:
    data = load()
    for workload in args.workloads:
        seeds = data["workloads"].setdefault(workload, {}).setdefault("seeds", {})
        for seed in seed_list(args.seeds):
            lines = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                 "--seed", str(seed), "--once"],
                cwd=ROOT, env=worker_env(), capture_output=True, text=True, check=True,
            ).stdout.splitlines()
            entry = json.loads(lines[-1])
            if entry["problems"]:
                sys.exit(f"{workload} seed {seed}: {entry['problems']}")
            seeds[str(seed)] = {k: entry[k] for k in ("digest", "exit_code", "verdict")}
            print(f"{workload} seed={seed} {entry['verdict']} {entry['digest']}", flush=True)
            save(data)


def cmd_table(args) -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = {}
    for workload in args.workloads:
        plain, _ = bench(workload, args.seed, config["run_seconds"], 0)
        traced, _ = bench(workload, args.seed, config["run_seconds"], 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        wall = plain["metrics"]["wall_s"]["value"]
        shares = sorted(
            ((v / wall, k) for k, v in layers.items() if k.endswith("self_s") or k.endswith(".s")),
            reverse=True,
        )
        rows[workload] = {
            "seed": args.seed,
            **{k: v["value"] for k, v in plain["metrics"].items()},
            "failed_frac": plain["failed"] / plain["attempted"],
            "layers": layers,
            "top_layers": [[k, round(share, 3)] for share, k in shares[:4]],
        }
    print("| workload | wall_s | setup_s | peak_rss_mb | failed_frac | largest layer times (share of wall_s) |")
    print("|---|---|---|---|---|---|")
    for workload, row in rows.items():
        top = ", ".join(f"{k} {share:.0%}" for k, share in row["top_layers"])
        print(f"| {workload} | {row['wall_s']:.3f} s | {row['setup_s']:.3f} s | "
              f"{row['peak_rss_mb']:.0f} MB | {row['failed_frac']:g} | {top} |")
    if args.write:
        data = load()
        data["baseline"] = rows
        save(data)


def cmd_spread(args) -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            result, line = bench(workload, seed, config["run_seconds"], 0)
            print(line, flush=True)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect result")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            print(f"SPREAD {workload} {name}: median={median:.6g} spread={(q3 - q1) / median:.4f} "
                  f"bound={bounds[name]} n={len(vals)}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("digests", cmd_digests), ("table", cmd_table), ("spread", cmd_spread)):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--workloads", nargs="+", default=list(NAMES), choices=NAMES)
        if name == "table":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--write", action="store_true")
        else:
            p.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,5,9")
    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
