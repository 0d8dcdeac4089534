"""Static scans of the sources (no unused imports, no new knobs), and a check
that no subcommand needs scipy.

No linter ships with the project, so the first scan is pyflakes' F401 check
in small: a name an import binds must be read somewhere in its module, be
listed in the module's ``__all__`` (a re-export), or sit on a line marked
``# noqa: F401``.  Names are matched module-wide, not per scope, so the check
can miss an import shadowed by a local name but never flags a used one.

The second is a ratchet on the package's knobs: the defaulted parameters of
its public functions and methods plus the field defaults of its public
dataclasses and NamedTuples ("public" meaning no leading underscore).  A
change that adds an option raises ``MAX_KNOBS`` in its own diff.

The last two tests run all seven subcommands, and the exact half, each in a
fresh interpreter with every scipy import refused by a ``sys.meta_path`` finder:
both samplers (white noise and circulant), ``berry-esseen`` at any H (Phi is
a numpy port of ``ndtr``), the Brownian example, the exact tables, the ρ^q
series, the blocked tr M⁴ and the FFT branch of A_n.  scipy is a test
dependency only: some tests compare against its functions.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py")
)
MAX_KNOBS = 35


def _bound_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name an import statement binds, with its line; noqa lines excluded."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name.split(".")[0]
            bound.setdefault(name, node.lineno)
    return bound


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, and the names its ``__all__`` lists."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        )
        if is_all and isinstance(node.value, (ast.List, ast.Tuple)):
            names.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    read = _read_names(tree)
    unused = {name: line for name, line in _bound_names(tree, source.splitlines()).items()
              if name not in read}
    assert not unused, f"unused imports in {path.relative_to(ROOT)}: {unused}"


def test_the_scan_flags_an_unused_import_and_spares_the_exempt_ones():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import dumps, loads\n"
        "__all__ = ['dumps']\n"
        "def f(x):\n"
        "    from pathlib import Path\n"
        "    return loads(Path(x).read_text())\n"
    )
    tree = ast.parse(source)
    bound = _bound_names(tree, source.splitlines())
    assert sorted(name for name in bound if name not in _read_names(tree)) == ["os"]


def _is_record(node: ast.ClassDef) -> bool:
    """A class decorated with ``dataclass`` or derived from ``NamedTuple``."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    names = {getattr(d, "id", getattr(d, "attr", None)) for d in decorators}
    bases = {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
    return "dataclass" in names or "NamedTuple" in bases


def _knobs(tree: ast.Module) -> list[str]:
    """One entry per default of a public function, method or record field."""
    def defaults(func, owner: str) -> list[str]:
        if func.name.startswith("_"):
            return []
        args = func.args
        count = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        return [owner + func.name] * count

    knobs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            knobs += defaults(node, "")
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    knobs += defaults(item, node.name + ".")
                elif isinstance(item, ast.AnnAssign) and item.value is not None and _is_record(node):
                    knobs.append(f"{node.name}.{item.target.id}")
    return knobs


def test_the_package_grows_no_new_knobs():
    knobs = []
    for path in sorted((ROOT / "src" / "chaoslab").glob("*.py")):
        knobs += [f"{path.stem}.{knob}" for knob in _knobs(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(knobs) <= MAX_KNOBS, knobs


def test_the_knob_count_covers_functions_methods_and_record_fields():
    source = (
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "def _g(a=1): pass\n"
        "@dataclass(frozen=True)\n"
        "class R:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    def h(self, z=None): pass\n"
        "class T(NamedTuple):\n"
        "    w: float = 1.0\n"
        "class Plain:\n"
        "    v: int = 3\n"
        "class _Hidden(NamedTuple):\n"
        "    u: int = 0\n"
    )
    assert _knobs(ast.parse(source)) == ["f", "f", "R.y", "R.h", "T.w"]


_SCIPY_PROBE = """
import json, sys
from chaoslab.cli import main

class RefuseScipy:
    # a meta path finder under which every scipy import fails
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"scipy is refused in this probe: {name}")
        return None

out, runs = sys.argv[1], json.loads(sys.argv[2])
sys.meta_path.insert(0, RefuseScipy)
for argv in runs:
    assert main([*argv, "--out", out]) in (0, 1), argv
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def _scipy_modules_after(tmp_path, runs: list[list[str]]) -> list[str]:
    """The scipy modules loaded after ``runs`` of the CLI in a fresh interpreter
    in which every scipy import is refused."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path), json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_numpy_only_subcommands_never_load_scipy(tmp_path):
    config = tmp_path / "identities.json"
    config.write_text(json.dumps({"instances": 12}), encoding="utf-8")
    runs = [
        ["limit-test", "--q", "2", "--H", "0.3", "--n", "4096", "--m", "4", "--weight", "cos:1,1"],
        ["example-brownian", "--n", "16", "--m", "8"],
        ["identities", "--config", str(config)],
        ["constants"],
        ["fbm", "--n", "1024", "--m", "4"],
        ["fbm", "--H", "0.3", "--n", "16", "--m", "5"],
        # white noise at H = 1/2 and circulant elsewhere; Phi is the ndtr port
        ["berry-esseen", "--H", "0.5", "--n", "16,600", "--m", "64"],
        ["berry-esseen", "--H", "0.4", "--n", "16", "--m", "64"],
        ["fbm", "--H", "0.5", "--n", "64", "--m", "4"],
        ["variation", "--H", "0.5", "--n", "64", "--m", "8"],
    ]
    assert _scipy_modules_after(tmp_path, runs) == []


_EXACT_HALF_PROBE = """
import json, sys
from chaoslab.fbm import FbmGrid, bounds_suite, sample_paths
from chaoslab.identities import run_identity_suite
from chaoslab.limits import chaos2_fourth_moment_exact
from chaoslab.variations import A_N_DIRECT_MAX_LAGS, a_n_statistic, sigma_hq
from chaoslab.weights import WeightFunction

run_identity_suite(seed=0, instances=12)
bounds_suite(0)
sigma_hq(0.47, 2)
sigma_hq(0.7, 4)
chaos2_fourth_moment_exact(0.3, 4160)  # the blocked branch
n = 1024  # circulant, and at H = 0.45 every lag is in the band: the FFT branch
assert n - 1 > A_N_DIRECT_MAX_LAGS
a_n_statistic(sample_paths(FbmGrid(0.45, n), 4, seed=0), 2, WeightFunction.cosine(1.0, 1.0))
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_the_exact_half_and_the_a_n_fft_never_load_scipy():
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _EXACT_HALF_PROBE],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1]) == []
