"""The determinism contract: every entry of ``determinism.py``, the benchmark
workloads' seed-0 digests and exit codes included, at two machine settings."""

import json
import os
import subprocess
import sys
from pathlib import Path

from determinism import PINS

HERE = Path(__file__).resolve().parent
# (OPENBLAS_NUM_THREADS = OMP_NUM_THREADS, CHAOSLAB_THREADS); the BLAS reads its
# thread count once, when it loads, so each setting runs in its own interpreter
SETTINGS = (("1", "1"), ("2", "3"))


def test_every_pin_holds_at_two_blas_and_pool_thread_counts():
    path = os.pathsep.join(filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]))
    runs = {
        (blas, pool): subprocess.Popen(
            [sys.executable, str(HERE / "determinism.py")], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": blas,
                            "OMP_NUM_THREADS": blas, "CHAOSLAB_THREADS": pool},
        )
        for blas, pool in SETTINGS
    }
    try:
        outputs = {setting: run.communicate(timeout=300) for setting, run in runs.items()}
    finally:
        for run in runs.values():
            run.kill()
    expected = json.loads(json.dumps({name: pin.recorded for name, pin in PINS.items()}))
    moved = {}
    for (blas, pool), (out, err) in outputs.items():
        assert runs[blas, pool].returncode == 0, err[-2000:]
        got = json.loads(out)
        moved[f"BLAS threads {blas}, CHAOSLAB_THREADS {pool}"] = [n for n in expected if got.get(n) != expected[n]]
    assert not any(moved.values()), f"entries that moved: {moved}"
