"""Every local that a function in src/torsionlab stores is also read.

An AST scan: for each function, the names it binds (assignment, loop, with,
comprehension and walrus targets) that nothing inside it loads, its nested
functions and lambdas included.  Names that begin with "_" are deliberate
throwaways and names declared global or nonlocal belong to another scope,
so both are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "torsionlab"


def unused_locals(source: str) -> list[tuple[str, str, int]]:
    """(function, name, line of first store) for each local stored, never loaded."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored: dict[str, int] = {}
        loaded: set[str] = set()
        foreign: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                stored.setdefault(sub.id, sub.lineno)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                loaded.add(sub.id)
            elif isinstance(sub, (ast.Global, ast.Nonlocal)):
                foreign.update(sub.names)
        for name, line in stored.items():
            if name not in loaded and name not in foreign and not name.startswith("_"):
                found.append((node.name, name, line))
    return sorted(found, key=lambda hit: hit[2])


def test_scan_finds_stored_but_unread_locals():
    source = (
        "def f(xs):\n"
        "    a, b = xs\n"
        "    for i in xs:\n"
        "        pass\n"
        "    _, c = xs\n"
        "    def g():\n"
        "        nonlocal c\n"
        "        c = 1\n"
        "    return a + c + sum(y for y in xs)\n"
    )
    assert unused_locals(source) == [("f", "b", 2), ("f", "i", 3)]


def test_no_function_in_the_package_stores_a_local_it_never_reads():
    found = [
        f"{path.name}:{line} {name} in {func}"
        for path in sorted(SRC.glob("*.py"))
        for func, name, line in unused_locals(path.read_text())
    ]
    assert found == []
