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

Every defaulted parameter of a package function, method or constructor (a
frozen dataclass's defaulted fields included) is passed, by keyword or by
position, in some call in the package or the benchmark, or is on
``KEPT_PARAMETERS`` with the reason it stays: a value that nothing sets is a
knob that does nothing. A ``Record`` subclass's fields count as passed,
since its ``from_dict`` sets each of them from JSON.

No module but ``records.py`` defines a ``to_dict`` or ``from_dict``, apart
from the overrides on ``CODEC_OVERRIDES`` with the reason each stays.
"""

import ast
import re
from pathlib import Path

import pentestflow

PACKAGE_DIR = Path(pentestflow.__file__).resolve().parent
BENCHMARK_DIR = Path(__file__).resolve().parents[1] / "perfbench"


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


# Every persisted record derives to_dict and from_dict from its fields
# through records.py; a hand-written one is a second spelling of the fields.
CODEC_OWNER = "records.py"
# module.Class.method -> why it overrides the derived one
CODEC_OVERRIDES = {
    "knowledge.VulnerabilityNode.to_dict": (
        "node files hold sorted exploits and sources, and no unknown epss"
    ),
    "pipeline.RunConfig.from_dict": "a bad --config file exits with code 2",
}


def codec_definitions(module: str, source: str) -> list[str]:
    """Each function or method named to_dict or from_dict, as
    module[.Class].name."""
    tree = ast.parse(source)
    owner = {
        fn: f"{cls.name}."
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
    }
    return sorted(
        f"{module}.{owner.get(node, '')}{node.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ("to_dict", "from_dict")
    )


def test_codec_definition_oracle():
    source = (
        "class Saved(Record):\n"
        "    def to_dict(self):\n        return super().to_dict()\n"
        "    def as_dict(self):\n        return {}\n"
        "class Loaded:\n"
        "    @classmethod\n    def from_dict(cls, raw):\n        return cls()\n"
        "def to_dict(x):\n    return x.to_dict()\n"
    )
    assert codec_definitions("a", source) == [
        "a.Loaded.from_dict",
        "a.Saved.to_dict",
        "a.to_dict",
    ]


def test_only_records_defines_the_codec():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert any(path.name == CODEC_OWNER for path in modules)
    found = [
        name
        for path in modules
        if path.name != CODEC_OWNER
        for name in codec_definitions(path.stem, path.read_text(encoding="utf-8"))
    ]
    assert sorted(found) == sorted(CODEC_OVERRIDES)


# parameter -> why it stays although no call in the package or the benchmark
# passes it
KEPT_PARAMETERS = {
    "gateway.ChatSession.complete_structured(max_repairs)": (
        "tests bound one call's repairs apart from the session's"
    ),
    "gateway.HttpChatBackend(timeout)": "tests time calls to a local server out",
    "gateway.ReplayBackend(entries)": "tests replay transcripts held in memory",
    "gateway.ScriptedBackend(responses)": "tests script a fixed list of replies",
    "gateway.register_schema(replace)": "tests re-register their own schemas",
    "pipeline.run_pipeline(backend_factory)": "public keyword of run_pipeline",
    "pipeline.run_pipeline(clock)": "public keyword of run_pipeline",
    "pipeline.run_pipeline(connectors)": "public keyword of run_pipeline",
    "pipeline.run_pipeline(executor)": "public keyword of run_pipeline",
    "rag.HashingEmbedder(dimension)": (
        "tests check the embedder against its oracle at small dimensions"
    ),
    "rag.RagStore.index(chunk_size)": "tests chunk small documents finely",
    "rag.RagStore.index(overlap)": "tests chunk small documents finely",
    "sandbox.CommandSpec(env_overrides)": "tests run commands in a set environment",
    "sandbox.CommandSpec(timeout)": (
        "tests time commands out; ROADMAP item 9 decides who sets it"
    ),
    "sandbox.CommandSpec(working_dir)": "tests run commands in a set directory",
    "sandbox.SandboxExecutor(denylist_path)": (
        "an operator's own denylist file, handed to InteractivityGuard"
    ),
    "sandbox.SandboxExecutor(output_cap)": "tests cap output far below the default",
}


def _decorator_names(node: ast.ClassDef | ast.FunctionDef) -> set[str]:
    names = set()
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name):
            names.add(decorator.id)
        elif isinstance(decorator, ast.Attribute):
            names.add(decorator.attr)
    return names


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call)
        and any(
            k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value
            for k in d.keywords
        )
        for d in node.decorator_list
    )


def _signature(fn: ast.FunctionDef, bound: bool) -> tuple[list[str], list[str]]:
    """(names a positional argument fills, in order; defaulted names) of a
    function; a bound method's first parameter fills from the receiver."""
    args = fn.args
    ordered = [a.arg for a in args.posonlyargs + args.args]
    defaulted = ordered[len(ordered) - len(args.defaults) :]
    defaulted += [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    return ordered[1:] if bound else ordered, defaulted


def _is_record(node: ast.ClassDef) -> bool:
    return any(isinstance(b, ast.Name) and b.id == "Record" for b in node.bases)


def _callables(module: str, text: str):
    """(label, name a call uses, positional names, defaulted names) of each
    module-level function, each method but dunders other than __init__ (a
    class's constructor, called by the class name), and each frozen
    dataclass's constructor; a record's constructor has no defaulted name
    left unset, since from_dict passes every field."""
    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef):
            yield (f"{module}.{node.name}", node.name, *_signature(node, False))
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_frozen_dataclass(node):
            fields = [
                f
                for f in node.body
                if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
            ]
            yield (
                f"{module}.{node.name}",
                node.name,
                [f.target.id for f in fields],
                []
                if _is_record(node)
                else [f.target.id for f in fields if f.value is not None],
            )
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            bound = "staticmethod" not in _decorator_names(fn)
            if fn.name == "__init__":
                yield (f"{module}.{node.name}", node.name, *_signature(fn, bound))
            elif not fn.name.startswith("__"):
                label = f"{module}.{node.name}.{fn.name}"
                yield (label, fn.name, *_signature(fn, bound))


def _calls(text: str):
    """(callee name, call) of each call: ``f(...)`` and ``x.f(...)`` call f,
    and ``cls(...)`` in a class body calls that class."""
    tree = ast.parse(text)
    owner = {
        node: cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in ast.walk(cls)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = owner.get(node, "cls") if func.id == "cls" else func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        yield name, node


def unpassed_parameters(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of the sources' (module name -> text) functions,
    methods and constructors that no call in the sources or in the callers'
    texts passes. Calls match by name alone, so a call reaches every
    definition of that name; one that spreads ``*args`` or ``**kwargs``
    passes every parameter."""
    definitions = [
        entry for module, text in sources.items() for entry in _callables(module, text)
    ]
    passed: dict[str, set[str]] = {label: set() for label, *_ in definitions}
    for text in [*sources.values(), *callers]:
        for name, call in _calls(text):
            spread = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            )
            for label, callee, ordered, defaulted in definitions:
                if callee != name:
                    continue
                if spread:
                    passed[label].update(defaulted)
                passed[label].update(ordered[: len(call.args)])
                passed[label].update(k.arg for k in call.keywords if k.arg)
    return sorted(
        f"{label}({parameter})"
        for label, _, _, defaulted in definitions
        for parameter in defaulted
        if parameter not in passed[label]
    )


def test_unpassed_parameter_oracle():
    sources = {
        "a": (
            "from dataclasses import dataclass\n"
            "def f(x, by_position=1, by_keyword=2, unset=3, *, kw_unset=4):\n"
            "    pass\n"
            "class C:\n"
            "    def __init__(self, unset=None, spread=None):\n"
            "        pass\n"
            "    def m(self, set_by_b=0):\n"
            "        return self\n"
            "    @classmethod\n"
            "    def make(cls, unset=0):\n"
            "        return cls(**{})\n"
            "    def __call__(self, dunder=0):\n"
            "        pass\n"
            "@dataclass(frozen=True)\n"
            "class Value:\n"
            "    required: int\n"
            "    positional: int = 0\n"
            "    unset: str = ''\n"
            "@dataclass\n"
            "class State:\n"
            "    count: int = 0\n"
            "@dataclass(frozen=True)\n"
            "class Saved(Record):\n"
            "    read_from_json: str = ''\n"
        ),
        "b": "from a import f, C, Value\nf(1, 2, by_keyword=3)\nValue(1, 2)\n",
    }
    callers = ["from a import C\nC().m(set_by_b=1)\n"]
    assert unpassed_parameters(sources, callers) == [
        "a.C.make(unset)",
        "a.Value(unset)",
        "a.f(kw_unset)",
        "a.f(unset)",
    ]
    assert unpassed_parameters(sources, []) == [
        "a.C.m(set_by_b)",
        "a.C.make(unset)",
        "a.Value(unset)",
        "a.f(kw_unset)",
        "a.f(unset)",
    ]


def test_every_defaulted_parameter_is_passed():
    paths = sorted(PACKAGE_DIR.rglob("*.py"))
    sources = {path.stem: path.read_text(encoding="utf-8") for path in paths}
    callers = [
        path.read_text(encoding="utf-8") for path in sorted(BENCHMARK_DIR.glob("*.py"))
    ]
    assert callers
    # the allowlist holds exactly what the scan flags, so an entry whose
    # parameter is deleted, or becomes passed, has to leave it
    assert unpassed_parameters(sources, callers) == sorted(KEPT_PARAMETERS)
