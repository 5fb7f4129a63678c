"""Every function and method of nahmkit is referenced somewhere.

A definition counts as referenced when its name occurs, anywhere in the
Python files of src/, tests/ or perfbench/, as a name, an attribute, an
import alias or a string constant that is wholly an identifier or a dotted
name (the benchmark's tracer and monkeypatch.setattr name functions that
way).  A word inside a longer string, such as an error message, is not a
reference, and neither is a docstring.  Dunder methods are exempt.

Every definition is served: tests alone do not keep it.  It is served when
its name occurs (as above) in src/nahmkit outside `__init__.py` or in
perfbench/, when `__init__.py` imports it, or when it is a method of a
class that `__init__.py` imports.

Every option (a parameter with a default) of a definition that is not
public is set by some call in src/, tests/ or perfbench/.  Public are the
names `__init__.py` imports, the methods of the classes it imports, and the
tracer's targets, which perfbench/spans.py wraps by name rather than calls.
A call is matched to a definition by name alone, and it sets an option when
it passes it by keyword, passes enough positional arguments to reach it, or
unpacks *args or **kwargs.  An option no call sets is a constant.

Every name a module of nahmkit imports (apart from `__init__.py`, which
re-exports, and `__future__` features) is used as a name in that module.

Every name a function of nahmkit binds is read somewhere in that function,
its nested functions and comprehensions included.  Names starting with `_`
are exempt, so a value that must be unpacked but is not needed is `_`.

Every parameter of a function of nahmkit is read in that function, under
the same exemption; `self` and `cls` are exempt too.  A parameter that must
stay for its callers but is not read is named with a leading `_`.

No function of nahmkit imports: every import sits at the top of its module,
where the module's dependencies are read in one place.

Every plain (non-annotated) class attribute of nahmkit is read as an
attribute (`obj.name`) somewhere in src/, tests/ or perfbench/.  Dunders
are exempt; annotated names are dataclass fields, which the constructor
reads.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nahmkit"
SEARCHED = ("src", "tests", "perfbench")
# a string that names a function: an identifier or a dotted name
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


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


def _names_in(paths):
    names = set()
    for path in paths:
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
                and DOTTED.fullmatch(node.value)
            ):
                names.update(node.value.split("."))
    return names


def _files(top):
    return sorted((ROOT / top).rglob("*.py"))


def _references():
    return _names_in(p for top in SEARCHED for p in _files(top))


def test_every_function_is_referenced():
    refs = _references()
    dead = {name: where for name, where in _definitions().items() if name not in refs}
    assert not dead, f"functions nothing references: {dead}"


def test_a_word_in_a_message_is_not_a_reference(tmp_path):
    # the names here are defined nowhere, so this file references nothing
    path = tmp_path / "m.py"
    path.write_text(
        'setattr(m, "phantom", f)\n'
        'T = [("g", "ghost", "Wraith.spectre")]\n'
    )
    assert _names_in([path]) >= {"phantom", "ghost", "Wraith", "spectre"}
    path.write_text('raise ValueError("phantom term vanishes")\n')
    assert not _names_in([path]) & {"phantom", "term", "vanishes"}


def _exports():
    """The names `__init__.py` imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _package_definitions():
    """(module, class or None, FunctionDef) for every function and method
    of the package's modules, nested functions included."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {
            id(fn): cls.name
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body
        }
        out.extend(
            (path.name, methods.get(id(fn)), fn)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
    return out


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_served():
    exports = _exports()
    served = exports | _names_in(
        [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
        + _files("perfbench")
    )
    unserved = sorted(
        f"{module}:{fn.lineno}:{fn.name}"
        for module, cls, fn in _package_definitions()
        if not _is_dunder(fn.name) and fn.name not in served and cls not in exports
    )
    assert not unserved, f"definitions only tests use: {unserved}"


def _tracer_targets():
    """The names the tracer wraps: the string constants of
    perfbench/spans.py that are identifiers or dotted names."""
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    return {
        part
        for node in ast.walk(spans)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and DOTTED.fullmatch(node.value)
        for part in node.value.split(".")
    }


def _calls():
    """Every call in src/, tests/ and perfbench/, by the called name."""
    out = {}
    for top in SEARCHED:
        for path in _files(top):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = getattr(f, "id", None) or getattr(f, "attr", None)
                    if name:
                        out.setdefault(name, []).append(node)
    return out


def _sets(call, name, index):
    """Whether a call sets the option called name, positional parameter
    index of the callee (None for a keyword-only one)."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_option_is_set():
    public = _exports() | _tracer_targets()
    calls = _calls()
    unset = set()
    for module, cls, fn in _package_definitions():
        if fn.name in public or cls in public:
            continue
        if _is_dunder(fn.name) and fn.name != "__init__":
            continue
        # a class is called by its own name, and a method's first
        # positional argument is bound by the call
        callee = cls if fn.name == "__init__" else fn.name
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        skip = 1 if cls is not None and not static else 0
        a = fn.args
        positional = [*a.posonlyargs, *a.args]
        first = len(positional) - len(a.defaults)
        options = [(p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
        options += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        unset |= {
            f"{module}:{fn.lineno}:{fn.name}:{name}"
            for name, index in options
            if not any(_sets(c, name, index) for c in calls.get(callee, ()))
        }
    assert not unset, f"options no caller sets: {sorted(unset)}"


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


def _function_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        f"{path.name}:{node.lineno}:{fn.name}"
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    }


def test_no_function_imports():
    inside = set()
    for path in sorted(PACKAGE.glob("*.py")):
        inside |= _function_imports(path)
    assert not inside, f"imports inside functions: {sorted(inside)}"


def _class_attributes(path):
    """module.Class.name for each plain class attribute of a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        f"{path.stem}.{cls.name}.{target.id}": target.id
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and not _is_dunder(target.id)
    }


def test_every_class_attribute_is_read():
    read = {
        node.attr
        for top in SEARCHED for path in _files(top)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    attributes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        attributes.update(_class_attributes(path))
    unread = sorted(where for where, name in attributes.items() if name not in read)
    assert not unread, f"class attributes nothing reads: {unread}"
