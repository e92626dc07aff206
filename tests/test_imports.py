"""Static check that every import in src/ and tests/ is used.

No linter ships with the project, so this walks each file's syntax tree with
the standard library's ``ast``.  A name bound by an import counts as used
when it is read anywhere in the file (attribute roots included) or listed in
``__all__``.  ``from __future__`` imports are compiler directives, and an
``__init__.py`` imports to re-export, so neither is ever reported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str, filename: str = "<string>") -> list:
    """(line, name) of each imported name that the source never reads."""
    tree = ast.parse(source, filename)
    if Path(filename).name == "__init__.py":
        return []
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in getattr(node.value, "elts", [])
                     if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports_in_src_or_tests():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 10
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in files
             for line, name in unused_imports(path.read_text(encoding="utf-8"), str(path))]
    assert found == []


@pytest.mark.parametrize("source, filename, expected", [
    ("import os\n", "m.py", [(1, "os")]),
    ("import os.path\nos.sep\n", "m.py", []),
    ("import numpy as np\nx = np.zeros(1)\n", "m.py", []),
    ("from a import b, c as d\nprint(b)\n", "m.py", [(1, "d")]),
    ("from __future__ import annotations\n", "m.py", []),
    ("from .errors import Error\n", "pkg/__init__.py", []),
    ("from .errors import Error\n__all__ = ['Error']\n", "m.py", []),
    ("from typing import Optional\ndef f(x: Optional[int]): pass\n", "m.py", []),
    ("from a import *\n", "m.py", []),
])
def test_unused_import_check_itself(source, filename, expected):
    assert unused_imports(source, filename) == expected
