"""Every module-level import under ``src/domlab`` is used in its module.

A name imported only so that something outside the module can patch it
(``perfbench/tracer.py``) carries ``# noqa: F401`` on its import line.
``__init__.py`` re-exports the package API and is not checked.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "domlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            imported.add(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os\nfrom typing import Callable, Iterator\n\ndef f() -> Iterator:\n    pass\n"
    assert unused_imports(source) == ["Callable", "os"]
    assert unused_imports("from x import y  # noqa: F401\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == [], path.name
