"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import worker_env  # noqa: E402
from spans import LAYER_METRICS, Tracer, _RepeatTracker, span_totals, union_length  # noqa: E402
from workloads import NAMES  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_emitted_and_traced_digest_matches_untraced(workload):
    digests = {}
    for trace, spec in ((0, CONFIG["end_to_end"]), (1, CONFIG["per_layer"])):
        proc = run_tiny(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in spec}
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        digests[trace] = re.search(r"digest=(\w+)", lines[-2]).group(1)
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workload", NAMES)
def test_recorded_digest_reproduces(workload):
    recorded = json.loads((HERE / "recorded.json").read_text(encoding="utf-8"))
    entry = recorded["workloads"][workload]["seeds"]["0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", "0", "--once"],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["digest"], result["exit_code"]) == (entry["digest"], entry["exit_code"])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_tiny("berry-esseen", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in CONFIG["workloads"]] == list(NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in CONFIG["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in LAYER_METRICS.items()
    ]
    assert [m["name"] for m in CONFIG["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    setup = next(m for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in CONFIG["end_to_end"])


def test_union_length_counts_overlaps_once():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_children_once():
    root = ["outer", 0.0, 10.0, None]
    recursive = ["outer", 1.0, 4.0, root]
    parallel_a = ["leaf", 5.0, 8.0, root]
    parallel_b = ["leaf", 6.0, 9.0, root]
    nested = ["leaf", 2.0, 3.0, recursive]
    totals = span_totals([root, recursive, parallel_a, parallel_b, nested])
    # outer: 10 - (3 + 4) own, plus 3 - 1 for the recursive call
    assert totals["outer"] == {"calls": 2.0, "s": 10.0, "self_s": 5.0}
    assert totals["leaf"] == {"calls": 3.0, "s": 5.0, "self_s": 7.0}


def test_repeat_tracker_keys_on_live_buffers():
    import numpy as np

    tracker = _RepeatTracker()
    paths = np.zeros((4, 9))
    assert not tracker.is_repeat(paths[:, :-1], 0)
    assert tracker.is_repeat(paths[:, :-1], 0)
    assert not tracker.is_repeat(paths[:, :-1], 2)
    assert not tracker.is_repeat(paths[:, 1:], 0)
    del paths
    assert not tracker.is_repeat(np.zeros((4, 9))[:, :-1], 0)


def test_tracer_wraps_every_binding_and_restores_it():
    import numpy as np

    import chaoslab.cli  # noqa: F401
    import chaoslab.fbm
    import chaoslab.limits
    import chaoslab.rng
    from chaoslab.weights import WeightFunction

    original = chaoslab.rng.normal_rows
    original_call = WeightFunction.__dict__["__call__"]
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert chaoslab.fbm.normal_rows is not original
        assert chaoslab.limits.normal_rows is chaoslab.fbm.normal_rows
        chaoslab.limits.normal_rows(3, 510, 4, 2)
        WeightFunction.cosine(1.0, 1.0)(np.zeros(3))
    finally:
        tracer.uninstall()
    assert chaoslab.fbm.normal_rows is original and chaoslab.limits.normal_rows is original
    assert WeightFunction.__dict__["__call__"] is original_call
    assert tracer.counts["rng.normals_requested"] == 8
    assert tracer.counts["rng.normals_generated"] == 2 * 512 * 2
    assert [s[0] for s in tracer.spans] == ["rng.normal_rows", "weights.eval"]
