"""Source hygiene: no module of the package imports a name it never uses,
nothing it defines goes unreferenced, what only tests or demos reach is
public, what only tests reach is kept on purpose, and importing the package
loads no process pool machinery."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import grhopf

SRC = Path(grhopf.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


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


def _names(node) -> Counter:
    """How often each name is read under node, as a name or an attribute."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and of
    each of their methods that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _unreferenced(package: Path, roots) -> list[tuple[str, str]]:
    """(file, qualified name) of every definition in package/*.py whose
    name is read nowhere under roots but inside the definition itself.
    Names match by spelling only, so a method counts as read wherever an
    attribute of its name is; the package's __init__.py re-exports names
    and reads none."""
    read = Counter()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if path != package / "__init__.py":
                read += _names(ast.parse(path.read_text(encoding="utf-8")))
    return [
        (path.name, qualname)
        for path in sorted(package.glob("*.py"))
        for qualname, node in _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if read[node.name] == _names(node)[node.name]
    ]


def test_every_definition_is_referenced():
    assert _unreferenced(SRC, (SRC.parent, ROOT / "tests", ROOT / "demos")) == []


def test_an_unreferenced_definition_is_caught(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import Box, unused\n", encoding="utf-8")
    (package / "mod.py").write_text(
        "def used():\n"
        "    return Box().get()\n"
        "def unused():\n"
        "    return unused()\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "    def get(self):\n"
        "        return self.n\n"
        "    def put(self):\n"
        "        pass\n",
        encoding="utf-8",
    )
    (tmp_path / "use.py").write_text("from pkg.mod import used\nused()\n", encoding="utf-8")
    assert _unreferenced(package, (tmp_path,)) == [("mod.py", "unused"), ("mod.py", "Box.put")]


def _public(package: Path) -> set[str]:
    """The names in the `__all__` of package/__init__.py, and every class of
    package that an exported class inherits from: their methods are the
    exported classes' own."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    public = set()
    for node in trees["__init__.py"].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            public = set(ast.literal_eval(node.value))
    bases = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    new = public & bases.keys()
    while new:
        new = set().union(*(bases.get(name, ()) for name in new)) - public
        public |= new
    return public


def _private_unreached(package: Path) -> list[tuple[str, str]]:
    """(file, qualified name) of every definition in package/*.py that no
    module of the package reads and that is not public (`_public`): one
    that only tests or demos keep alive."""
    public = _public(package)
    return [
        (name, qualname)
        for name, qualname in _unreferenced(package, (package,))
        if qualname.partition(".")[0] not in public
    ]


def test_what_no_module_reaches_is_public():
    assert _private_unreached(SRC) == []


def test_a_private_definition_only_tests_reach_is_caught(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        'from .mod import Box, api\n__all__ = ["Box", "api"]\n', encoding="utf-8"
    )
    (package / "mod.py").write_text(
        "def api():\n"
        "    return _helper()\n"
        "def _helper():\n"
        "    return 0\n"
        "def _for_tests():\n"
        "    return 1\n"
        "def not_exported():\n"
        "    return 2\n"
        "class _Base:\n"
        "    def inherited(self):\n"
        "        return 3\n"
        "class Box(_Base):\n"
        "    def put(self):\n"
        "        pass\n"
        "class _Hidden:\n"
        "    def get(self):\n"
        "        return 4\n",
        encoding="utf-8",
    )
    assert _private_unreached(package) == [
        ("mod.py", "_for_tests"),
        ("mod.py", "not_exported"),
        ("mod.py", "_Hidden"),
        ("mod.py", "_Hidden.get"),
    ]


# The public definitions that no module or demo reads and README.md does not
# name, each with the reason it stays.  Any other such definition is API
# that only tests keep alive.
KEPT_FOR_TESTS = {
    "ordered_bipartitions": "five test modules take it as the reference split order",
    "discrete_graph": "graph fixture",
    "Graph.has_edge": "graph fixture",
    "unit_element": "the Hopf unit",
    "counit_value": "the Hopf counit",
    "_LinearCombination.is_zero": "element API (Element.is_zero)",
    "_LinearCombination.specialize": "element API (Element.specialize)",
    "QTPolynomial.is_zero": "polynomial API",
}


def _only_tests_reach(package: Path, demos: Path, readme: Path) -> list[str]:
    """Qualified names of the definitions in package/*.py that no module of
    the package and no demo reads, and whose name appears in no code span
    or block of readme."""
    spans = re.findall(r"`+([^`]+)`+", readme.read_text(encoding="utf-8"))
    named = {word for span in spans for word in re.findall(r"\w+", span)}
    return [
        qualname
        for _file, qualname in _unreferenced(package, (package, demos))
        if qualname.rpartition(".")[2] not in named
    ]


def test_what_only_tests_reach_is_kept_on_purpose():
    found = _only_tests_reach(SRC, ROOT / "demos", ROOT / "README.md")
    assert sorted(found) == sorted(KEPT_FOR_TESTS)


def test_enumerators_bind_no_key_class():
    # the enumerators yield payloads; monoids._basis_cached alone makes keys
    from grhopf import enumerators
    from grhopf.keys import BasisKey

    bound = [
        name
        for name, obj in vars(enumerators).items()
        if isinstance(obj, type) and issubclass(obj, BasisKey)
    ]
    assert bound == []


def test_import_loads_no_process_pool_or_dataclasses():
    # a serial run never starts a process, so it need not import the pool;
    # CheckRecord and VerificationReport are named tuples
    script = (
        "import sys, grhopf\n"
        "print(*[m for m in ('concurrent.futures', 'multiprocessing', 'dataclasses')"
        " if m in sys.modules])\n"
    )
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        text=True,
        check=True,
    )
    assert out.stdout == "\n"
