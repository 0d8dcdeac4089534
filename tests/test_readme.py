"""The README quick tour runs as written, and the package namespace is its imports."""

import ast
import re
from pathlib import Path

import pytest

import chaoslab

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_package_namespace_is_the_tour_imports():
    imported = {
        alias.name
        for block in BLOCKS
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "chaoslab"
        for alias in node.names
    }
    assert set(chaoslab.__all__) - {"__version__"} == imported
    assert all(hasattr(chaoslab, name) for name in chaoslab.__all__)
