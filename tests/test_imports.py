"""Lints over the package source.

- Every name a module imports is used in that module. `__init__.py` is
  exempt: it imports names to re-export them.
- Every top-level `_private` function is referenced somewhere in the
  package outside its own definition, so no helper lives only for tests.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lnd"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_lint_sees_an_unused_import():
    source = "from fractions import Fraction\nimport os.path\nimport re\nre.compile('x')\n"
    assert _unused_imports(source) == ["line 1: Fraction", "line 2: os"]


def _names(tree) -> set[str]:
    """Every name, attribute and imported name referenced in `tree`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or not node.name.startswith("_"):
                continue
            rest = [n for n in tree.body if n is not node]
            used = set().union(*(_names(n) for n in rest))
            for other, other_tree in trees.items():
                if other != name:
                    used |= _names(other_tree)
            if node.name not in used:
                found.append(f"{name}: {node.name}")
    return found


def test_every_private_function_has_a_caller_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private_functions(sources) == []


def test_the_lint_sees_an_uncalled_private_function():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _orphan():\n    return _orphan()\n",
        "b.py": "from .a import _used\n_used()\n",
    }
    assert _unreferenced_private_functions(sources) == ["a.py: _orphan"]
