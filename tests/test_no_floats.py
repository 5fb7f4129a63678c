"""nahmkit computes without floats.

Every value is exact: integers, Fractions and cyclotomic scalars.  A float
(or complex) literal or a `float(...)` call in the package fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nahmkit"


def _float_sites(path):
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            lines.add(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            lines.add(node.lineno)
    return [f"{path.name}:{n}" for n in sorted(lines)]


def test_no_float_in_the_package():
    sites = [s for path in sorted(PACKAGE.glob("*.py")) for s in _float_sites(path)]
    assert not sites, f"float literal or float() call: {sites}"


def test_the_guard_sees_floats(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text('a = 1.0 / 3\nb = float(a)\nc = float("inf")\nd = 2j\n', encoding="utf-8")
    assert _float_sites(src) == ["probe.py:1", "probe.py:2", "probe.py:3", "probe.py:4"]
