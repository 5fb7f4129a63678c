"""Every function and method of nahmkit is referenced somewhere.

A definition counts as referenced when its name occurs, anywhere in the
Python files of src/, tests/ or perfbench/, as a name, an attribute, an
import alias or a word of a string constant (the benchmark's tracer names
the functions it wraps by string).  Docstrings are prose, not code: a name
that only a docstring mentions is not referenced.  Dunder methods are exempt.

Every name a module of nahmkit imports (apart from `__init__.py`, which
re-exports, and `__future__` features) is used as a name in that module.

Every name a function of nahmkit binds is read somewhere in that function,
its nested functions and comprehensions included.  Names starting with `_`
are exempt, so a value that must be unpacked but is not needed is `_`.

Every parameter of a function of nahmkit is read in that function, under
the same exemption; `self` and `cls` are exempt too.  A parameter that must
stay for its callers but is not read is named with a leading `_`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nahmkit"
SEARCHED = ("src", "tests", "perfbench")


def _definitions():
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    out.setdefault(name, f"{path.name}:{node.lineno}")
    return out


def _docstrings(tree):
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None
    }


def _references():
    names = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            docstrings = _docstrings(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                    if node.asname:
                        names.add(node.asname)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in docstrings
                ):
                    names.update(re.findall(r"\w+", node.value))
    return names


def test_every_function_is_referenced():
    refs = _references()
    dead = {name: where for name, where in _definitions().items() if name not in refs}
    assert not dead, f"functions nothing references: {dead}"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {f"{path.name}:{line}:{name}" for name, line in imported.items() if name not in used}


def test_every_import_is_used():
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            unused |= _unused_imports(path)
    assert not unused, f"imported names the module never uses: {sorted(unused)}"


def _dead_locals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    dead = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, scopes):
            continue
        # names bound in this function's own body; nested functions and
        # classes are scopes of their own
        bound = {}
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, (*scopes, ast.ClassDef)):
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, node.lineno)
            stack.extend(ast.iter_child_nodes(node))
        read = {
            node.id for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        name = getattr(fn, "name", "<lambda>")
        dead |= {
            f"{path.name}:{line}:{name}:{var}"
            for var, line in bound.items()
            if not var.startswith("_") and var not in read
        }
    return dead


def test_every_local_is_read():
    dead = set()
    for path in sorted(PACKAGE.glob("*.py")):
        dead |= _dead_locals(path)
    assert not dead, f"local names bound and never read: {sorted(dead)}"


def _unread_parameters(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    unread = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, scopes):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {
            node.id for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        name = getattr(fn, "name", "<lambda>")
        unread |= {
            f"{path.name}:{fn.lineno}:{name}:{p.arg}"
            for p in params
            if p.arg not in ("self", "cls") and not p.arg.startswith("_")
            and p.arg not in read
        }
    return unread


def test_every_parameter_is_read():
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        unread |= _unread_parameters(path)
    assert not unread, f"parameters the function never reads: {sorted(unread)}"
