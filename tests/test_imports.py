"""No module of src/, tests/ or tools/ imports a name it never uses.

No linter is installed, so the scan is done here with ast.  A name an
import binds is used when the module reads it anywhere or lists it in
`__all__`.  A package's `__init__.py` imports its submodules' names to
re-export them, so its relative imports count as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source, package_init=False):
    """(line, name) of each name the module source imports and never uses."""
    tree = ast.parse(source)
    bound = {}  # name -> the line of the import that binds it
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (package_init and node.level):
                continue
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES]
)
def test_every_import_is_used(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source, path.name == "__init__.py") == []


def test_scan_finds_what_is_not_used():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from .a import b, c as d\n"
        "from .e import f\n"
        "__all__ = ['d']\n"
        "os.path.join(b)\n"
    )
    assert unused_imports(source) == [(2, "json"), (5, "f")]
    assert unused_imports(source, package_init=True) == [(2, "json")]
