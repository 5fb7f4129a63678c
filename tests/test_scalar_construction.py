"""Scalars are built from their parts only inside field.py.

`Scalar(ctx, num, den)` trusts its parts to be canonical already.  Outside
field.py, parts enter through `field.reduced`, which normalizes them, so a
module of nahmkit that calls `Scalar` (under any import alias) fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nahmkit"


def _scalar_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {"Scalar"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname for a in node.names if a.name == "Scalar" and a.asname)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                out.append(f"{path.name}:{node.lineno}")
    return out


def test_scalar_is_built_from_parts_only_in_field():
    calls = [c for path in sorted(PACKAGE.glob("*.py")) if path.name != "field.py"
             for c in _scalar_calls(path)]
    assert not calls, f"Scalar built outside field.py (use field.reduced): {calls}"


def test_the_guard_sees_field_calls():
    assert _scalar_calls(PACKAGE / "field.py")
