"""Static scans of the sources (no unused imports, no new knobs, no scipy), and
a check that no subcommand needs scipy.

No linter ships with the project, so the first scan is pyflakes' F401 check
in small: a name an import binds must be read somewhere in its module, be
listed in the module's ``__all__`` (a re-export), or sit on a line marked
``# noqa: F401``.  Names are matched module-wide, not per scope, so the check
can miss an import shadowed by a local name but never flags a used one.

The second is a ratchet on the package's knobs: the defaulted parameters of
its public functions and methods plus the field defaults of its public
dataclasses and NamedTuples ("public" meaning no leading underscore).  A
change that adds an option raises ``MAX_KNOBS`` in its own diff.

scipy is no dependency, not even of the tests: a third scan finds no
module that imports scipy or asks ``importorskip`` for it.  The last test
runs all seven subcommands and then the exact half in one fresh interpreter
with every scipy import refused by a ``sys.meta_path`` finder: both samplers
(white noise and circulant), ``berry-esseen`` at any H (Phi is a numpy port
of ``ndtr``), the Brownian example, the exact tables, the ρ^q series, tr M⁴'s
diagonal recursion and A_n.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py")
)
MAX_KNOBS = 32


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


def _scipy_imports(tree: ast.Module) -> list[int]:
    """The lines that import scipy, or ask ``importorskip`` for it."""
    def names(node) -> list:
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            return [node.module]
        func = getattr(node, "func", None)
        if getattr(func, "attr", getattr(func, "id", None)) == "importorskip":
            return [getattr(arg, "value", None) for arg in node.args[:1]]
        return []
    return [node.lineno for node in ast.walk(tree)
            if any(str(name).split(".")[0] == "scipy" for name in names(node))]


def test_no_source_imports_scipy():
    found = {str(path.relative_to(ROOT)): _scipy_imports(ast.parse(path.read_text(encoding="utf-8")))
             for path in SOURCES}
    assert not {path: lines for path, lines in found.items() if lines}
    name = "scipy.special"  # not spelled inside the call, so a grep for the guarded calls stays empty
    source = f'import scipy.fft\nfrom scipy import linalg\nimportorskip({name!r})\nx = "import scipy"\n'
    assert _scipy_imports(ast.parse(source)) == [1, 2, 3]


_SCIPY_PROBE = """
import json, sys

class RefuseScipy:
    # a meta path finder under which every scipy import fails
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"scipy is refused in this probe: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy)
from chaoslab.cli import main
from chaoslab.fbm import FbmGrid, bounds_suite, sample_paths
from chaoslab.identities import run_identity_suite
from chaoslab.limits import chaos2_fourth_moment_exact
from chaoslab.variations import a_n_statistic, sigma_hq
from chaoslab.weights import WeightFunction

out, runs = sys.argv[1], json.loads(sys.argv[2])
for argv in runs:
    assert main([*argv, "--out", out]) in (0, 1), argv
run_identity_suite(seed=0, instances=12)
bounds_suite(0)
sigma_hq(0.47, 2)
sigma_hq(0.7, 4)
chaos2_fourth_moment_exact(0.3, 4160)  # tr M^4's FFT first row and recursion
for n in (64, 1024):  # A_n's FFT at a short grid and a long one
    a_n_statistic(sample_paths(FbmGrid(0.45, n), 4, seed=0), 2, WeightFunction.cosine(1.0, 1.0))
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_numpy_only_subcommands_never_load_scipy(tmp_path, run_python):
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
    out = run_python("-c", _SCIPY_PROBE, str(tmp_path), json.dumps(runs))
    assert json.loads(out.splitlines()[-1]) == []
