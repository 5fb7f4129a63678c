"""Every exit-3 error of nahmkit is raised at a registered site.

The CLI exits with code 3 on PrecisionExhausted and FieldExtensionRequired,
which tell the user to retry with more precision or a larger session field.
That advice is earned only where the precision really ran out or the field
really lacks a root.  So every `raise` of the two types in src/nahmkit,
found by AST and keyed by module, function and message (an f-string's
fields read `{}`), must be in SITES, and every entry of SITES must still be
raised.  SITES names for each site the test that reaches it with its
witness: a precision, a missing root, or an order that does not divide N.
The named test must exist and expect the site's type in `pytest.raises`.

An impossible state is an assertion, and an algebraic refusal is
NotAdmissible; neither belongs here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nahmkit"
TYPES = ("PrecisionExhausted", "FieldExtensionRequired")

SITES = {
    ("field", "FieldContext.zeta", "FieldExtensionRequired",
     "root of unity of order {} is not in Q(zeta_{}); "
     "declare a session with {} | lcm(M,4)"):
        "tests/test_field.py::test_field_never_silently_enlarged",
    ("filtered", "lattice_morphism_ok", "PrecisionExhausted",
     "cannot certify lattice preservation at this precision"):
        "tests/test_filtered.py::test_lattice_morphism_ok_certifies_each_zero_entry",
    ("higgs", "_slope_parts", "PrecisionExhausted",
     "germ needs working precision >= {} to certify its decomposition "
     "(matrix known to {})"):
        "tests/test_higgs.py::test_precision_refusal_on_truncated_germ",
    ("higgs", "realize_block", "FieldExtensionRequired",
     "realizing a tailed irregular block needs an explicit leading "
     "coefficient in the session field"):
        "tests/test_higgs.py::test_realizing_a_tailed_block_needs_a_lead_in_the_field",
    ("linalg", "scalar_poly_roots", "FieldExtensionRequired",
     "polynomial does not split over the session field"):
        "tests/test_linalg.py::test_t_squared_minus_two_does_not_split",
    ("lmatrix", "_certain_pivots", "PrecisionExhausted",
     "all remaining entries vanish to the working precision but are not "
     "structural zeros; raise the precision"):
        "tests/test_lmatrix.py::test_snf_precision_error",
    ("lmatrix", "_certain_pivots", "PrecisionExhausted",
     "an entry zero only to the working precision may have lower valuation "
     "than a pivot; raise the precision"):
        "tests/test_lmatrix.py::test_a_pivot_a_zero_to_precision_may_undercut_is_flagged",
    ("lmatrix", "newton_polygon", "PrecisionExhausted",
     "trailing Newton-polygon coefficient known only to precision"):
        "tests/test_lmatrix.py::test_newton_polygon_unknown_trailing_coefficient",
    ("lmatrix", "newton_polygon", "PrecisionExhausted",
     "coefficient of T^{} vanishes to precision but could support the "
     "Newton polygon; raise the precision"):
        "tests/test_lmatrix.py::test_newton_polygon_unknown_coefficient",
    ("series", "TruncatedLaurent.coeff", "PrecisionExhausted",
     "coefficient of z^{} unknown (prec {})"):
        "tests/test_series.py::test_coeff_beyond_precision_raises",
}

#: raised without checking that the root is missing; the tests above hold
#: true witnesses, and ROADMAP item 4 makes the sites carry their own
AWAITING_WITNESS = {
    ("higgs", "realize_block"),
    ("linalg", "scalar_poly_roots"),
}


def _message(node):
    """The message of a raise's first argument, f-string fields as {}."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            v.value if isinstance(v, ast.Constant) else "{}" for v in node.values
        )
    return ast.unparse(node)


def _sites_in(tree, module):
    """(module, qualified function, type, message) of each raise of TYPES."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            exc = child.exc if isinstance(child, ast.Raise) else None
            if (
                isinstance(exc, ast.Call)
                and isinstance(exc.func, ast.Name)
                and exc.func.id in TYPES
            ):
                msg = _message(exc.args[0]) if exc.args else ""
                out.append((module, ".".join(scope), exc.func.id, msg))
            visit(child, scope)

    visit(tree, [])
    return out


def _raise_sites():
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        out += _sites_in(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return out


def _test_function(test_id):
    path, name = test_id.split("::")
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _expected_types(func):
    """The exception names passed first to pytest.raises in func."""
    return {
        node.args[0].id
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "raises"
        and node.args
        and isinstance(node.args[0], ast.Name)
    }


def test_every_exit_3_raise_is_registered():
    found = _raise_sites()
    assert len(found) == len(set(found)), "two sites share a key"
    unregistered = sorted(set(found) - set(SITES))
    gone = sorted(set(SITES) - set(found))
    assert not unregistered, f"exit-3 raises with no witness test: {unregistered}"
    assert not gone, f"registered sites that no longer raise: {gone}"


def test_each_site_names_a_test_that_expects_its_type():
    for (_, _, exc, _), test_id in SITES.items():
        func = _test_function(test_id)
        assert func is not None, f"{test_id} does not exist"
        assert exc in _expected_types(func), f"{test_id} does not expect {exc}"


def test_the_sites_awaiting_a_witness_are_registered():
    assert AWAITING_WITNESS <= {key[:2] for key in SITES}


def test_the_lister_reads_methods_nested_functions_and_f_strings():
    tree = ast.parse(
        "class C:\n"
        "    def m(self, n):\n"
        "        def inner():\n"
        "            raise PrecisionExhausted(f'need {n} ' f'terms')\n"
        "        raise InputError('not listed')\n"
        "def f():\n"
        "    raise FieldExtensionRequired('no root')\n"
    )
    assert _sites_in(tree, "m") == [
        ("m", "C.m.inner", "PrecisionExhausted", "need {} terms"),
        ("m", "f", "FieldExtensionRequired", "no root"),
    ]
