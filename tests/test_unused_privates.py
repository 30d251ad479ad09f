"""Every module-level private function or class, and every method, in
src/torsionlab is used.

Two AST scans.  A top-level `def _name` or `class _name` must be referenced
somewhere in the package, as a loaded name or an attribute, outside its own
definition.  A method defined on a class must be read as an attribute
somewhere in src/, tests/ or scripts/, outside its own definition.  A helper
or method that only its own body (or nothing) mentions is dead and gets
deleted rather than kept around.  Dunder names are skipped.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torsionlab"

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (*FUNCS, ast.ClassDef)


def _references(node: ast.AST) -> Counter:
    """How often each identifier is read below node, as a name or attribute."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def unused_privates(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) for each top-level private def or class that no
    module references outside its own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFS):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if total[node.name] - _references(node)[node.name] == 0:
                found.append((module, node.name, node.lineno))
    return sorted(found)


def test_scan_finds_private_helpers_only_their_own_body_uses():
    sources = {
        "a.py": (
            "def _used():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Dead:\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    return _used()\n"
        ),
        "b.py": "from . import a\nclass _Kept:\n    pass\nx = a._Kept\n",
    }
    assert unused_privates(sources) == [("a.py", "_Dead", 5), ("a.py", "_recursive", 3)]


def test_no_private_helper_in_the_package_is_unreferenced():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unused_privates(sources) == []


def _attribute_reads(node: ast.AST) -> Counter:
    """How often each name is read as an attribute below node."""
    return Counter(
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def unused_methods(sources: dict[str, str], readers: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, Class.method, line) for each non-dunder method of a class in
    sources that no file in readers reads as an attribute outside the
    method's own definition."""
    reads = sum((_attribute_reads(ast.parse(text)) for text in readers.values()), Counter())
    found = []
    for module, text in sources.items():
        for cls in ast.walk(ast.parse(text)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, FUNCS) or node.name.startswith("__"):
                    continue
                if reads[node.name] - _attribute_reads(node)[node.name] == 0:
                    found.append((module, f"{cls.name}.{node.name}", node.lineno))
    return sorted(found)


def test_scan_finds_methods_nothing_reads():
    sources = {
        "a.py": (
            "class A:\n"
            "    def read(self):\n"
            "        return self._private()\n"
            "    def _private(self):\n"
            "        return 1\n"
            "    def dead(self):\n"
            "        return self.dead()\n"
            "    def __eq__(self, other):\n"
            "        return True\n"
            "    @property\n"
            "    def shown(self):\n"
            "        return 2\n"
            "    def only_assigned(self):\n"
            "        pass\n"
            "A.only_assigned = None\n"
        ),
    }
    readers = {**sources, "test_a.py": "from a import A\nA().read()\nprint(A().shown)\n"}
    assert unused_methods(sources, readers) == [
        ("a.py", "A.dead", 6),
        ("a.py", "A.only_assigned", 13),
    ]


def test_no_method_in_the_package_is_unread():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = {
        str(path.relative_to(ROOT)): path.read_text()
        for folder in ("src", "tests", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    assert unused_methods(sources, readers) == []
