"""Every package name that the benchmark's tracer (``perfbench/tracing.py``)
wraps or patches resolves in the package.

The tracer rebinds functions by name when a traced run starts, so without
this check a rename in the package shows only in a traced run.  The test
reads the tracer's source and imports nothing from ``perfbench/``:
``WRAPPED`` is read as a literal, and the names ``install`` patches are the
attributes it reads off the modules it binds with
``importlib.import_module(f"{PACKAGE}.<module>")``.
"""

from __future__ import annotations

import ast
import importlib

from conftest import REPO_ROOT

TRACER = REPO_ROOT / "perfbench" / "tracing.py"


def tracer_names(source: str) -> tuple[list, set]:
    """(the (module, attribute) pairs of ``WRAPPED``, the (module,
    attribute) pairs read off package modules bound by name)."""
    tree = ast.parse(source)
    wrapped = []
    modules: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target, value = node.targets[0], node.value
        if isinstance(target, ast.Name) and target.id == "WRAPPED":
            wrapped = [(mod, attr) for _, mod, attr in ast.literal_eval(value)]
        elif (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Call)
            and value.args
            and isinstance(value.args[0], ast.JoinedStr)
        ):
            last = value.args[0].values[-1]
            if isinstance(last, ast.Constant) and last.value.startswith("."):
                modules[target.id] = last.value[1:]
    patched = {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    return wrapped, patched


def test_the_reader_sees_wrapped_and_patched_names():
    source = (
        'WRAPPED = (("a.f", "a", "f"), ("b.C.m", "b", "C.m"))\n'
        "def install():\n"
        '    for name, mod, attr in WRAPPED:\n'
        '        module = importlib.import_module(f"{PACKAGE}.{mod}")\n'
        '    el = importlib.import_module(f"{PACKAGE}.elimination")\n'
        "    el._step = wrap(el._step)\n"
    )
    assert tracer_names(source) == ([("a", "f"), ("b", "C.m")], {("elimination", "_step")})


def test_every_name_the_tracer_wraps_or_patches_resolves_in_the_package():
    wrapped, patched = tracer_names(TRACER.read_text(encoding="utf-8"))
    assert len(wrapped) >= 20
    assert {("fiber_counting", "_restriction_coefficients"), ("elimination", "_eval_slices")} <= patched
    missing = []
    for mod, attr in [*wrapped, *sorted(patched)]:
        found = importlib.import_module(f"quintic_moduli.{mod}")
        for part in attr.split("."):
            found = getattr(found, part, None)
        if not callable(found):
            missing.append(f"{mod}.{attr}")
    assert missing == []
