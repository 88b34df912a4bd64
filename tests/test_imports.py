"""Every module of the package uses each name it imports.

A stdlib-ast scan: an imported name that no expression in the module reads
(as a name, the root of an attribute chain, or an entry of ``__all__``) is
dead. ``__init__.py`` files are skipped, since their imports are re-exports,
and so are ``from __future__`` imports.
"""

import ast
from pathlib import Path

import pentestflow

PACKAGE_DIR = Path(pentestflow.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            )
    return sorted(
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    )


def test_oracle_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport json as j\n"
        "from typing import Any, Sequence\n"
        "def f(x: Sequence) -> None:\n    os.getcwd()\n"
    )
    assert unused_imports(source) == ["Any (line 5)", "j (line 4)"]


def test_package_modules_have_no_unused_imports():
    modules = sorted(
        path for path in PACKAGE_DIR.rglob("*.py") if path.name != "__init__.py"
    )
    assert modules
    found = {
        str(path.relative_to(PACKAGE_DIR)): unused
        for path in modules
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
