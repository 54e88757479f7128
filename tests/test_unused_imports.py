"""No module under src/ or tests/ imports a name it never uses.

A name counts as used when it appears anywhere in the module as an
identifier (an annotation included) or is listed in ``__all__``.  The
package ``__init__`` is exempt: it imports ``invariants`` only to re-export
it (see its docstring).
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
