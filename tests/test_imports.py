"""Dead code checks over the package source.

Every module uses each name it imports: a stdlib-ast scan treats an imported
name that no expression in the module reads (as a name, the root of an
attribute chain, or an entry of ``__all__``) as dead. ``__init__.py`` files
are skipped, since their imports are re-exports, and so are ``from
__future__`` imports.

Every module-level function, class and constant (a name a module-level
assignment binds), and every method of a module-level class but dunders, is
named somewhere in the package source outside its own definition, is listed
in an ``__all__``, or is on ``KEPT_DEFINITIONS`` with the reason it stays.
"""

import ast
import re
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


# name -> why it stays although nothing in the package names it
KEPT_DEFINITIONS = {
    "ScriptedBackend": (
        "the perfbench scripted model's backend and the tests' fake model"
    ),
    "MANIFEST_NAME": (
        "perfbench/tracing.py joins it to RagStore.root on every traced retrieve"
    ),
}


def _assigned_names(node: ast.stmt) -> list[str]:
    """Names a module-level assignment binds, including tuple unpacking."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return []
    return [
        leaf.id
        for target in targets
        for leaf in ast.walk(target)
        if isinstance(leaf, ast.Name)
    ]


def _span(node: ast.AST) -> tuple[int, int]:
    """First and last line of a definition, its decorators included."""
    return min([d.lineno for d in node.decorator_list] + [node.lineno]), node.end_lineno


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and constants, and methods of
    module-level classes other than dunders, that no other line of the given
    sources (module name -> text) names as a word, and no ``__all__``
    lists."""
    exported: set[str] = set()
    definitions = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, node.name, *_span(node)))
                if isinstance(node, ast.ClassDef):
                    definitions.extend(
                        (module, f"{node.name}.{method.name}", *_span(method))
                        for method in node.body
                        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not method.name.startswith("__")
                    )
            elif "__all__" in _assigned_names(node):
                exported.update(
                    e.value for e in node.value.elts if isinstance(e, ast.Constant)
                )
            else:
                definitions.extend(
                    (module, name, node.lineno, node.end_lineno)
                    for name in _assigned_names(node)
                )
    dead = []
    for module, name, first, last in definitions:
        word = re.compile(rf"\b{re.escape(name.rpartition('.')[2])}\b")
        named = any(
            word.search(line)
            for other, text in sources.items()
            for number, line in enumerate(text.splitlines(), start=1)
            if other != module or not first <= number <= last
        )
        if not named and name not in exported:
            dead.append(f"{module}.{name}")
    return sorted(dead)


def test_dead_definition_oracle():
    sources = {
        "a": (
            "__all__ = ['exported']\n"
            "def exported():\n    pass\n"
            "def recursive():\n    return recursive()\n"
            "@decorator\ndef used():\n    pass\n"
            'class Lonely:\n    """Only Lonely itself names Lonely."""\n'
            "def mentioned():\n    pass\n"
        ),
        "b": "from a import used\nused()\n# mentioned by a comment\n",
    }
    assert dead_definitions(sources) == ["a.Lonely", "a.recursive"]


def test_dead_method_oracle():
    sources = {
        "a": (
            "class Used:\n"
            "    def __init__(self):\n        self.helper()\n"
            "    def helper(self):\n        pass\n"
            "    @property\n    def shown(self):\n        return 1\n"
            "    def unused(self):\n        pass\n"
            "    def loop(self):\n        return self.loop()\n"
        ),
        "b": "from a import Used\nprint(Used().shown)\n",
    }
    assert dead_definitions(sources) == ["a.Used.loop", "a.Used.unused"]


def test_dead_constant_oracle():
    sources = {
        "a": (
            "__all__ = ['EXPORTED']\n"
            "EXPORTED = 1\n"
            "UNUSED = 2  # UNUSED on its own line does not count\n"
            "SELF = [\n    'SELF',\n]\n"
            "USED_HERE: int = 3\n"
            "LEFT, RIGHT = 4, 5\n"
            "def f():\n    return USED_HERE + LEFT\n"
        ),
        "b": "from a import f\nf()\nIMPORTED_ELSEWHERE = 6\nprint(IMPORTED_ELSEWHERE)\n",
    }
    assert dead_definitions(sources) == ["a.RIGHT", "a.SELF", "a.UNUSED"]


def test_package_has_no_dead_definitions():
    paths = sorted(PACKAGE_DIR.rglob("*.py"))
    sources = {path.stem: path.read_text(encoding="utf-8") for path in paths}
    assert len(sources) == len(paths)  # module stems are unique
    # the allowlist holds exactly what the scan flags, so an entry that is
    # deleted, or becomes named, has to leave it
    assert dead_definitions(sources) == sorted(
        f"{module}.{name}"
        for module, text in sources.items()
        for name in KEPT_DEFINITIONS
        if re.search(rf"^(?:(?:class|def) {name}\b|{name}\s*[:=])", text, re.M)
    )


# A chat session's turn list is the gateway's own state: a stateless call
# relies on no other module reading or rewriting it.
HISTORY_OWNER = "gateway.py"


def history_accesses(source: str) -> list[int]:
    """Lines of the source that read or write a ``.history`` attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "history"
    )


def test_history_access_oracle():
    source = (
        "def f(session, runner):\n"
        "    runner.command_history.append(1)\n"
        "    history = []\n"
        "    session.history.clear()\n"
        "    session.history = history\n"
        "    return getattr(session, 'history_len', 0)\n"
    )
    assert history_accesses(source) == [4, 5]


def test_only_the_gateway_touches_session_history():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert any(path.name == HISTORY_OWNER for path in modules)
    found = {
        str(path.relative_to(PACKAGE_DIR)): lines
        for path in modules
        if path.name != HISTORY_OWNER
        and (lines := history_accesses(path.read_text(encoding="utf-8")))
    }
    assert found == {}
