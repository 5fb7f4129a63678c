"""The one indented-JSON writer: schema.json_text is json.dumps(o, indent=2).

json.dumps skips its C encoder whenever ``indent`` is set, so the package
writes indented JSON only through schema.json_text; a source guard keeps
``json.dumps(..., indent=...)`` out of src/nahmkit.
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nahmkit.schema import json_text

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nahmkit"

_texts = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é€ 😀\ud800\udfff'),
        st.characters(),
    ),
    max_size=12,
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10 ** 60), max_value=10 ** 60),
    _texts,
)
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_texts, children, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_json_text_is_json_dumps_indent_2(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    1.5,
    Fraction(1, 2),
    {"a": [1, 2.0]},
    [{"q": Fraction(3, 4)}],
    {1: "a"},
    {"a": {None: 1}},
    {(1, 2): 3},
    {1, 2},
])
def test_json_text_refuses_other_types(obj):
    with pytest.raises(TypeError):
        json_text(obj)


def _indent_dumps_sites(path):
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
            and any(kw.arg == "indent" for kw in node.keywords)
        ):
            lines.append(node.lineno)
    return [f"{path.name}:{n}" for n in lines]


def test_no_indented_json_dumps_in_the_package():
    sites = [s for path in sorted(PACKAGE.glob("*.py")) for s in _indent_dumps_sites(path)]
    assert not sites, f"json.dumps with indent (use schema.json_text): {sites}"


def test_the_guard_sees_indented_dumps(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "import json\nfrom json import dumps\n"
        "a = json.dumps({}, indent=2)\nb = json.dumps({})\n"
        "c = dumps([], indent=None)\nd = json.dumps(\n    [],\n    indent=4,\n)\n",
        encoding="utf-8",
    )
    assert _indent_dumps_sites(src) == ["probe.py:3", "probe.py:5", "probe.py:6"]
