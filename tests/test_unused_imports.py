"""No module under src/ or tests/ imports a name it never uses, and no
private definition under src/ goes unreferenced there.

A name counts as used when it appears anywhere in the module as an
identifier (an annotation included) or is listed in ``__all__``.  The
package ``__init__`` is exempt: it imports ``invariants`` only to re-export
it (see its docstring).

A private definition is a function, class or method at any depth, or a
module-level constant, whose name starts with one underscore (dunders
excluded).  It counts as referenced when its name is read anywhere under
src/, as an identifier or as an attribute, outside the body of a
definition of that name; what only tests or the benchmark read, or only
the definition itself (a recursive call), is dead code in the package.
"""

from __future__ import annotations

import ast

from conftest import REPO_ROOT

EXEMPT = {REPO_ROOT / "src" / "quintic_moduli" / "__init__.py"}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_checker_sees_unused_and_used_names():
    source = "import os\nfrom typing import Sequence, Union\nx: Sequence = os.sep\n"
    assert unused_imports(source) == ["Union (line 2)"]


def test_no_unused_imports_in_src_or_tests():
    found = {}
    for top in ("src", "tests"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            if path in EXEMPT:
                continue
            names = unused_imports(path.read_text(encoding="utf-8"))
            if names:
                found[str(path.relative_to(REPO_ROOT))] = names
    assert found == {}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(source: str) -> dict[str, int]:
    """Private functions, classes, methods and module constants: name -> line."""
    tree = ast.parse(source)
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _is_private(node.name):
                found.setdefault(node.name, node.lineno)
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and _is_private(target.id):
                found.setdefault(target.id, node.lineno)
    return found


def names_read(source: str) -> set[str]:
    """Identifiers loaded and attribute names read anywhere in the module,
    except inside a function or class of the same name."""
    read = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside |= {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        else:
            name = node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and name not in inside:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return read


def test_the_checker_sees_unreferenced_private_definitions():
    source = (
        "_LIMIT = 3\n_SPARE = 4\n"
        "def _divide_root(x):\n    return x\n"
        "class _Ring:\n    def _step(self):\n        return _LIMIT\n"
        "    def run(self):\n        return self._step()\n"
        "def public():\n    return _Ring()\n"
        "def _walk(n):\n    return _walk(n - 1) if n else 0\n"
    )
    defined = private_definitions(source)
    assert defined == {
        "_LIMIT": 1, "_SPARE": 2, "_divide_root": 3, "_Ring": 5, "_step": 6, "_walk": 12
    }
    assert sorted(set(defined) - names_read(source)) == ["_SPARE", "_divide_root", "_walk"]


def test_every_private_definition_in_src_is_referenced_in_src():
    paths = sorted((REPO_ROOT / "src").rglob("*.py"))
    sources = {path: path.read_text(encoding="utf-8") for path in paths}
    read = set().union(*(names_read(source) for source in sources.values()))
    unreferenced = {
        f"{path.relative_to(REPO_ROOT)}:{line} {name}"
        for path, source in sources.items()
        for name, line in private_definitions(source).items()
        if name not in read
    }
    assert unreferenced == set()
