"""Every demo script runs to completion against the package sources."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# demos with a reduced mode run in it
QUICK_FLAGS = {"fourth_moment_scan.py": ["--quick"]}


def test_every_demo_is_listed():
    assert [d.name for d in DEMOS] == [
        "fourth_moment_scan.py",
        "identity_showcase.py",
        "lag_sum_convergence.py",
        "mixture_walkthrough.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path, run_python):
    assert run_python(str(demo), *QUICK_FLAGS.get(demo.name, []), cwd=tmp_path).strip()
