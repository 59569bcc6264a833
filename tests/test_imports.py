"""Lints over the package source.

- Every name a module imports is used in that module. `__init__.py` is
  exempt: it imports names to re-export them.
- Every top-level `_private` function is referenced somewhere in the
  package outside its own definition, so no helper lives only for tests.
- Every public top-level function and public method is referenced by name
  somewhere in the package outside `__init__.py` and its own definition,
  or is named in README's Library import list.
- Every field of a `NamedTuple` in the package is read as an attribute
  somewhere in the package or its tests, so no record carries state that
  nothing reads.  A read is matched by attribute name alone.

A reference to a top-level function counts only when it resolves to the
function's module: a bare name in that module, a `from .mod import name`,
or `mod.name`, so `operator.add` does not count for a function `add`.
Methods keep bare attribute matching: any attribute or name spelled like
the method counts, since the type of `obj` in `obj.method` is not known.
"""

import ast
import re
from collections import Counter
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


def _references(node) -> Counter:
    """How often each name, attribute and imported name occurs in `node`."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _definitions(tree):
    """Each top-level function and each method of a top-level class, with
    its qualified name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _resolved_references(module: str, node, modules) -> Counter:
    """References in `node`, code of `module`, as (defining module, name):
    a bare name is its own module's, a name imported by `from .mod import`
    is mod's, and `mod.name` is mod's."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[module, sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            if f"{sub.value.id}.py" in modules:
                out[f"{sub.value.id}.py", sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module:
            out.update((f"{sub.module}.py", alias.name) for alias in sub.names)
    return out


def _unreferenced(sources: dict[str, str], selected) -> list[str]:
    """The definitions `selected(qualname)` picks that no code in `sources`
    references outside the definition itself: a top-level function by
    references resolved to its module, a method by bare name."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    bare = sum((_references(tree) for tree in trees.values()), Counter())
    resolved = sum(
        (_resolved_references(name, tree, trees) for name, tree in trees.items()), Counter()
    )
    out = []
    for name, tree in trees.items():
        for qualname, node in _definitions(tree):
            if not selected(qualname):
                continue
            if "." in qualname:
                seen = bare[node.name] - _references(node)[node.name]
            else:
                key = (name, node.name)
                seen = resolved[key] - _resolved_references(name, node, trees)[key]
            if not seen:
                out.append(f"{name}: {qualname}")
    return out


def _unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    return _unreferenced(sources, lambda q: q.startswith("_") and "." not in q)


def _unreferenced_public_functions(sources: dict[str, str], library: set[str]) -> list[str]:
    return _unreferenced(
        sources,
        lambda q: not q.rpartition(".")[2].startswith("_") and q not in library,
    )


def _library_names() -> set[str]:
    """The names that README's Library example imports from lnd."""
    readme = (SRC.parent.parent / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    imported = re.search(r"from lnd import \(([^)]*)\)", section).group(1)
    return {name.strip() for name in imported.split(",")}


def test_every_private_function_has_a_caller_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private_functions(sources) == []


def test_the_lint_sees_an_uncalled_private_function():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _orphan():\n    return _orphan()\n",
        "b.py": "from .a import _used\n_used()\n",
    }
    assert _unreferenced_private_functions(sources) == ["a.py: _orphan"]


def test_every_public_function_is_reached_from_the_package_or_the_library():
    sources = {path.name: path.read_text() for path in MODULES}
    assert _unreferenced_public_functions(sources, _library_names()) == []


def test_the_lint_sees_an_orphan_public_function():
    sources = {
        "a.py": (
            "def used():\n    pass\n\ndef orphan():\n    return orphan()\n\n"
            "def documented():\n    pass\n\n"
            "class C:\n    def method(self):\n        return used()\n\n"
            "    def lonely(self):\n        pass\n\n"
            "    def __str__(self):\n        return ''\n"
        ),
        "b.py": "from .a import C\nC().method()\n",
    }
    assert _unreferenced_public_functions(sources, {"documented"}) == [
        "a.py: orphan",
        "a.py: C.lonely",
    ]


def test_the_lint_resolves_a_function_reference_to_its_module():
    # `add` in a.py shares its name with operator.add and set.add, which
    # b.py uses; neither is a reference to a.add.  `a.used()` is one to used.
    sources = {
        "a.py": "def add(p, q):\n    return p\n\ndef used():\n    pass\n",
        "b.py": (
            "from functools import reduce\nfrom operator import add\nfrom . import a\n\n"
            "seen = set()\nseen.add(reduce(add, [1, 2]))\na.used()\n"
        ),
    }
    assert _unreferenced_public_functions(sources, set()) == ["a.py: add"]


def _unread_record_fields(sources: dict[str, str], readers: list[str]) -> list[str]:
    """The NamedTuple fields defined in `sources` that no code in `sources`
    or `readers` reads as an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        read.update(
            sub.attr
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
        )
    out = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases
            ):
                out += [
                    f"{name}: {node.name}.{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and item.target.id not in read
                ]
    return out


def test_every_record_field_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    tests = [path.read_text() for path in sorted(Path(__file__).parent.glob("*.py"))]
    assert _unread_record_fields(sources, tests) == []


def test_the_lint_sees_an_unread_record_field():
    sources = {
        "a.py": (
            "from typing import NamedTuple\n\n"
            "class R(NamedTuple):\n    used: int\n    tested: int\n    orphan: int\n\n"
            "class Plain:\n    unread: int\n"
        ),
        "b.py": "from .a import R\nr = R(1, 2, 3)\nprint(r.used)\nr.orphan = 4\n",
    }
    assert _unread_record_fields(sources, ["r.tested\n"]) == ["a.py: R.orphan"]
