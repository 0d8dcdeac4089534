"""No unused imports in the package, its tests or its demos.

No linter ships with the project, so this is pyflakes' F401 check in small:
a name an import binds must be read somewhere in its module, be listed in the
module's ``__all__`` (a re-export), or sit on a line marked ``# noqa: F401``.
Names are matched module-wide, not per scope, so the check can miss an
import shadowed by a local name but never flags a used one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py")
)


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
