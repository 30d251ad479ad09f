"""Every name that a module of src/torsionlab imports is read in it.

An AST scan of each module but __init__.py (which imports to re-export):
the names bound by its import statements, at any depth, that no Name node
of the module loads.  `from __future__` imports bind nothing and are
skipped.  A leftover import after a deletion is dead code that the
unused-locals and unused-privates scans do not see.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "torsionlab"


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(bound name, line) for each imported name the module never loads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    loaded: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    unused = [(name, line) for name, line in bound.items() if name not in loaded]
    return sorted(unused, key=lambda hit: hit[1])


def test_scan_finds_imported_names_never_read():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .linalg import Mat, rank as _rank\n"
        "def f(m: Mat) -> int:\n"
        "    import math\n"
        "    return os.path.sep + _rank(m)\n"
    )
    assert unused_imports(source) == [("json", 2), ("np", 4), ("math", 7)]


def test_no_module_in_the_package_imports_a_name_it_never_reads():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name, line in unused_imports(path.read_text())
    ]
    assert found == []
