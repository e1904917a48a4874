"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import grhopf

SRC = Path(grhopf.__file__).parent


def _unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every name path imports and never reads.  An
    attribute access `mod.f` reads `mod`; annotations are read too, even
    under `from __future__ import annotations`, which is itself exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    # __init__.py imports names to re-export them
    found = {
        path.name: _unused_imports(path)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_an_unused_import_is_caught(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .keys import BasisKey, UnitKey\n"
        "from .qtpoly import QTPolynomial as P\n"
        "def f(k: BasisKey) -> int:\n"
        "    return os.sep\n",
        encoding="utf-8",
    )
    assert _unused_imports(path) == [(3, "UnitKey"), (4, "P")]
