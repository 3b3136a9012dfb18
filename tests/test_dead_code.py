"""Guards against code that nothing reaches.

A ``def`` or ``class`` under ``src/repro`` whose name is used nowhere —
not in ``src/``, ``tests/``, ``examples/``, ``benchmarks/`` nor
``perf/`` — is dead weight: delete it, or give it the caller it was
written for.  Every name a package lists in ``__all__`` must resolve.

A *use* is a name or attribute reference, or an identifier inside a
string that is not a docstring (name strings dispatch through
``getattr`` and ``perf/``'s span bindings).  Definitions, docstrings,
comments, imports and ``__all__`` entries are not uses, so a name that
is only defined, documented and re-exported still counts as unused.

Likewise a settings field that only tests or examples set is a
constant in disguise: every field of the settings classes must be
chosen by library, experiment or perf code.
"""

from __future__ import annotations

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "examples", "benchmarks", "perf")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree: ast.AST) -> set:
    """ids of the string constants that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _exported_strings(tree: ast.AST) -> set:
    """ids of the string constants listed in ``__all__``."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)):
            found.update(id(element) for element in ast.walk(node.value)
                         if isinstance(element, ast.Constant))
    return found


def _uses(tree: ast.AST) -> Counter:
    """How often each identifier is used (not defined) in ``tree``."""
    skip = _docstrings(tree) | _exported_strings(tree)
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            uses.update(_IDENTIFIER.findall(node.value))
    return uses


def _definitions():
    """``(path, line, name)`` of every def and class under ``src/repro``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield path, node.lineno, node.name


def test_every_definition_is_used_somewhere():
    uses: Counter = Counter()
    for directory in SEARCHED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            uses.update(_uses(ast.parse(path.read_text(),
                                        filename=str(path))))
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path, line, name in _definitions()
              if not (name.startswith("__") and name.endswith("__"))
              and uses[name] == 0]
    assert not unused, "defined but never used:\n" + "\n".join(unused)


def _packages():
    for init in sorted(PACKAGE.rglob("__init__.py")):
        parts = init.parent.relative_to(PACKAGE.parent).parts
        yield ".".join(parts)


@pytest.mark.parametrize("package", list(_packages()))
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing: {missing}"


#: Settings classes, each with the module that defines it.
SETTINGS = {
    "Options": "src/repro/lsm/options.py",
    "GatewayConfig": "src/repro/service/gateway.py",
    "ReplicationConfig": "src/repro/service/replication.py",
    "RetryPolicy": "src/repro/storage/retry.py",
}
#: Where a setting counts as chosen: library code, experiments, perf.
CALLERS = ("src", "perf", "benchmarks")


def _fields(path: Path, cls: str) -> list:
    """The annotated (dataclass) field names of ``cls`` in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return [stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)]
    raise AssertionError(f"{cls} not found in {path}")


def _keywords(path: Path) -> set:
    """Every keyword-argument name passed to any call in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {keyword.arg for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for keyword in node.keywords if keyword.arg is not None}


@pytest.mark.parametrize("cls", sorted(SETTINGS))
def test_every_setting_is_chosen_by_a_caller(cls):
    """A settings field that no caller passes is a constant in disguise.

    Fails when a field of ``cls`` is never passed as a keyword argument
    — to the class, to ``with_changes`` or to any helper — anywhere
    under ``src/`` (outside the defining module), ``perf/`` or
    ``benchmarks/``; tests and examples do not count.  Such a field
    becomes a named module constant.  What the guard does not see: a
    field passed only at its default value, or a field whose name is
    only passed as a keyword to some unrelated callable.
    """
    defining = ROOT / SETTINGS[cls]
    passed: set = set()
    for directory in CALLERS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path != defining:
                passed |= _keywords(path)
    unchosen = [name for name in _fields(defining, cls)
                if name not in passed]
    assert not unchosen, f"{cls} fields no caller passes: {unchosen}"
