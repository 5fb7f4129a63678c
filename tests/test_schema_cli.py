"""Document schema roundtrips and the CLI surface (verdicts, exit codes)."""

import argparse
import json
from fractions import Fraction as F

import pytest

from nahmkit import cli, schema
from nahmkit.cli import cli_run
from nahmkit.errors import InputError
from nahmkit.examples import catalog_names, generate_examples
from nahmkit.elliptic import a0_check, a3_check
from nahmkit.field import FieldContext


def test_scalar_roundtrip():
    ctx = FieldContext(M=12, symbols=("x", "y"))
    x, y = ctx.sym("x"), ctx.sym("y")
    s = (x + 2 * y) / (x + ctx.rational(F(1, 3))) * ctx.zeta(12)
    back = schema.scalar_from_json(ctx, schema.scalar_to_json(s))
    assert back == s


@pytest.mark.parametrize("name", catalog_names())
def test_document_roundtrip(name):
    ex = generate_examples(name)
    text = schema.dumps(ex)
    doc = schema.loads(text)
    assert doc["kind"] == ex["kind"]
    assert doc["data"].table_keys() == ex["data"].table_keys()
    assert schema.dumps(doc) == text  # canonical re-emission


def test_unknown_example():
    with pytest.raises(InputError):
        generate_examples("nope")


def test_document_rejects_garbage():
    with pytest.raises(InputError):
        schema.loads("{]")
    with pytest.raises(InputError):
        schema.loads(json.dumps({"kind": "higgs"}))


@pytest.fixture()
def doc_path(tmp_path):
    def write(name):
        ex = generate_examples(name)
        path = tmp_path / f"{name}.json"
        path.write_text(schema.dumps(ex))
        return str(path)

    return write


def test_cli_check_matches_library(doc_path, capsys):
    # generic datum passes, exit 0
    assert cli_run(["check", doc_path("pushforward-2-1")]) == 0
    capsys.readouterr()
    # the A0-failing datum exits 1 and the library agrees
    rc = cli_run(["check", doc_path("tame-rank1-degenerate")])
    capsys.readouterr()
    assert rc == 1
    ex = generate_examples("tame-rank1-degenerate")
    assert not a0_check(ex["data"]).ok
    # the A3-failing bundle datum exits 1, failing class reported
    rc = cli_run(["--format", "json", "check", doc_path("line-bundle")])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert not a3_check(generate_examples("line-bundle")["data"]).ok
    assert out["conditions"]["A3"]["failing"]


def test_cli_transform_and_roundtrip(doc_path, capsys):
    assert cli_run(["roundtrip", doc_path("pushforward-2-1")]) == 0
    capsys.readouterr()
    rc = cli_run(["--format", "json", "transform", "--direction", "forward",
                  doc_path("tame-rank1")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["output"]["rank"] == 1
    assert payload["document"]["kind"] == "bundle"
    # and the emitted document parses back
    doc = schema.document_from_json(payload["document"])
    assert doc["data"].rank == 1


def test_cli_transform_direction_mismatch(doc_path):
    assert cli_run(["transform", "--direction", "backward",
                    doc_path("tame-rank1")]) == 2


def test_cli_oracle(doc_path, capsys):
    assert cli_run(["oracle", doc_path("pushforward-3-2")]) == 0
    capsys.readouterr()


def test_cli_examples_listing(capsys):
    assert cli_run(["examples"]) == 0
    out = capsys.readouterr().out
    for name in catalog_names():
        assert name in out
    assert cli_run(["examples", "pushforward-2-3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["slope_criterion_ok"] is False
    assert cli_run(["examples", "pushforward-2-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["slope_criterion_ok"] is True
    catalog = ["w", "s1", "s2", "nu1", "nu2"]
    assert cli_run(["--field", "8,3", "examples", "pushforward-2-1"]) == 0
    field = json.loads(capsys.readouterr().out)["document"]["field"]
    assert field == {"M": 8, "symbols": ["x1", "x2", "x3"] + catalog}
    assert cli_run(["--field", "12,0", "examples", "pushforward-2-1"]) == 0
    field = json.loads(capsys.readouterr().out)["document"]["field"]
    assert field == {"M": 12, "symbols": ["x1", "x2"] + catalog}
    for bad in ("12", "x,1", "0,1", "12,-1"):
        assert cli_run(["--field", bad, "examples", "pushforward-2-1"]) == 2
        out, err = capsys.readouterr()
        assert not out and err.startswith("InputError"), bad


def test_cli_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli_run(["check", str(bad)]) == 2
    assert cli_run(["check", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("refusal, message", [
    ("point on T", "singular points live on the dual torus"),
    ("repeated point", "divisor is not reduced (repeated point)"),
])
def test_cli_refuses_a_point_off_the_dual_torus_and_a_repeated_point(
        tmp_path, capsys, refusal, message):
    obj = json.loads(schema.dumps(generate_examples("mixed-suite")))
    lifts = obj["payload"]["lifts"]
    if refusal == "point on T":
        lifts[0]["lattice"] = "T"
    else:
        lifts[1] = lifts[0]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(obj))
    assert cli_run(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"InputError: {message}\n")


def test_cli_stdin_input(doc_path, capsys, monkeypatch):
    import io

    text = open(doc_path("tame-rank1")).read()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli_run(["invariants", "-"]) == 0
    assert "rank 1" in capsys.readouterr().out


def test_cli_invariants(doc_path, capsys):
    assert cli_run(["invariants", doc_path("mixed-suite")]) == 0
    out = capsys.readouterr().out
    assert "parabolic degree" in out


def test_cli_file_level_roundtrip(doc_path, capsys):
    # forward then backward through emitted documents restores the payload
    src = doc_path("pushforward-2-1")
    assert cli_run(["--format", "json", "transform", "--direction", "forward", src]) == 0
    fwd = json.loads(capsys.readouterr().out)["document"]
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(fwd, fh)
        fwd_path = fh.name
    try:
        assert cli_run(["--format", "json", "transform", "--direction", "backward",
                        fwd_path]) == 0
        back = json.loads(capsys.readouterr().out)["document"]
        orig = json.loads(open(src).read())
        assert json.dumps(orig["payload"], sort_keys=True) == json.dumps(
            back["payload"], sort_keys=True
        )
    finally:
        os.unlink(fwd_path)


def test_documents_contain_no_floats():
    def scan(obj):
        if isinstance(obj, float):
            raise AssertionError("float leaked into a document")
        if isinstance(obj, dict):
            for v in obj.values():
                scan(v)
        elif isinstance(obj, list):
            for v in obj:
                scan(v)

    for name in catalog_names():
        scan(schema.document_to_json(generate_examples(name)))


def test_cli_precision_env(doc_path, capsys, monkeypatch):
    monkeypatch.setenv("NAHMKIT_PRECISION", "12")
    assert cli_run(["--format", "json", "oracle", doc_path("pushforward-2-1")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["precision"] == 12
    # explicit flag wins over the environment
    assert cli_run(["--precision", "16", "--format", "json", "oracle",
                    doc_path("pushforward-2-1")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["precision"] == 16


# -- one parser per process: no call sees another's arguments --


@pytest.mark.parametrize("env", [None, "9"])
def test_cli_precision_flag_does_not_stick(doc_path, capsys, monkeypatch, env):
    if env is None:
        monkeypatch.delenv("NAHMKIT_PRECISION", raising=False)
    else:
        monkeypatch.setenv("NAHMKIT_PRECISION", env)
    path = doc_path("pushforward-2-1")
    assert cli_run(["--precision", "7", "--format", "json", "oracle", path]) == 0
    assert json.loads(capsys.readouterr().out)["precision"] == 7
    assert cli_run(["--format", "json", "oracle", path]) == 0
    assert json.loads(capsys.readouterr().out)["precision"] == (24 if env is None else 9)


def test_cli_format_flag_does_not_stick(doc_path, capsys):
    path = doc_path("tame-rank1")
    assert cli_run(["invariants", path]) == 0
    text = capsys.readouterr().out
    for fmt in ("json", "text"):
        assert cli_run(["--format", fmt, "invariants", path]) == 0
        capsys.readouterr()
        assert cli_run(["invariants", path]) == 0
        assert capsys.readouterr().out == text


def test_cli_parse_error_then_good_call(doc_path, capsys):
    path = doc_path("tame-rank1")
    assert cli_run(["--precision", "x", "invariants", path]) == 2
    assert cli_run(["transform", path]) == 2  # no --direction
    assert "usage: nahmkit" in capsys.readouterr().err
    assert cli_run(["invariants", path]) == 0
    assert "rank 1" in capsys.readouterr().out


def test_cli_builds_the_parser_once(doc_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    path = doc_path("tame-rank1")
    calls = [
        ["check", path], ["invariants", path], ["roundtrip", path],
        ["transform", "--direction", "forward", path], ["examples"],
        ["examples", "tame-rank1"], ["--format", "json", "invariants", path],
        ["--precision", "x", "check", path], ["nope"], ["check", path],
    ]
    for argv in calls:
        cli_run(argv)
    capsys.readouterr()
    # the parser and its six subcommand parsers, each built once
    assert len(built) == 7 and built[0] == "nahmkit"


_ABSENT = object()


@pytest.mark.parametrize("doc_precision, argv, env, code", [
    (0, [], None, 2),
    (-2, [], None, 2),
    ("abc", [], None, 2),
    (None, ["--precision", "-3"], None, 2),
    (None, [], "-1", 2),
    (None, [], "abc", 2),
    (None, ["--precision", "0"], None, 2),
    (None, [], None, 0),
    (_ABSENT, [], None, 0),
])
@pytest.mark.parametrize("command", ["oracle", "roundtrip"])
def test_cli_precision_must_be_positive(tmp_path, capsys, monkeypatch,
                                        doc_precision, argv, env, code, command):
    obj = schema.document_to_json(generate_examples("pushforward-2-1"))
    if doc_precision is _ABSENT:
        del obj["precision"]
    else:
        obj["precision"] = doc_precision
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(obj))
    if env is None:
        monkeypatch.delenv("NAHMKIT_PRECISION", raising=False)
    else:
        monkeypatch.setenv("NAHMKIT_PRECISION", env)
    assert cli_run(argv + ["--format", "json", command, str(path)]) == code
    out = capsys.readouterr().out
    if code == 0 and command == "oracle":
        assert json.loads(out)["precision"] == 24
    if code == 2:
        assert not out


def _alpha(obj):
    return obj["payload"]["germs"][0]["blocks"][0]["alpha"]


def _bad_coordinate(rat):
    def edit(obj):
        _alpha(obj)["num"][0]["c"][0] = rat
    return edit


def _zero_denominator(obj):
    for term in _alpha(obj)["den"]:
        term["c"] = [{"num": 0, "den": 1} for _ in term["c"]]


def _bad_weight(obj):
    obj["payload"]["germs"][0]["blocks"][0]["weights"][0] = {"num": True, "den": 4}


@pytest.mark.parametrize("edit", [
    _bad_coordinate({"num": 1, "den": 0}),
    _bad_coordinate({"num": "x", "den": 1}),
    _bad_coordinate({"num": 1.5, "den": 2}),
    _zero_denominator,
    _bad_weight,
], ids=["zero-den", "string-num", "float-num", "zero-scalar-den", "bool-weight"])
def test_cli_malformed_rationals_exit_2(tmp_path, capsys, edit):
    obj = schema.document_to_json(generate_examples("tame-rank1"))
    edit(obj)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(obj))
    assert cli_run(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("InputError: ")


def _term(obj):
    return _alpha(obj)["num"][0]


def _set_block(key, value):
    def edit(obj):
        obj["payload"]["germs"][0]["blocks"][0][key] = value
    return edit


def _no_c(obj):
    del _term(obj)["c"]


def _scalar_m(obj):
    _term(obj)["m"] = 5


def _field_m(obj):
    obj["field"]["M"] = "x"


def _set_lift(value):
    def edit(obj):
        obj["payload"]["lifts"][0]["lift"] = value
    return edit


@pytest.mark.parametrize("edit", [
    _no_c, _scalar_m, _set_block("p", "two"), _set_block("p", 1.5),
    _set_block("p", True), _field_m, _set_lift("no"), _set_lift(1), _set_lift(None),
], ids=["term-without-c", "term-m-int", "p-string", "p-float", "p-bool", "field-M-string",
        "lift-string", "lift-int", "lift-null"])
def test_cli_malformed_shapes_exit_2(tmp_path, capsys, edit):
    obj = schema.document_to_json(generate_examples("tame-rank1"))
    edit(obj)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(obj))
    assert cli_run(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("InputError: ")


_MUTANTS = ("x", 1.5, True, None, [], {}, -1)


def _fields(node, path=()):
    """Paths of every dict value and list element of a JSON tree."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _fields(value, path + (key,))


def _mutated(obj, path, value):
    """The text of obj with the field at path set to value, or deleted."""
    out = json.loads(json.dumps(obj))
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is _ABSENT:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(out)


def test_every_single_field_mutation_loads_or_is_an_input_error():
    """Each field of each catalog document deleted or set to a value of
    another shape: schema.loads returns a document or raises InputError."""
    count = 0
    for name in catalog_names():
        obj = schema.document_to_json(generate_examples(name))
        for path, old in _fields(obj):
            for value in [_ABSENT] + [v for v in _MUTANTS if json.dumps(v) != json.dumps(old)]:
                count += 1
                try:
                    schema.loads(_mutated(obj, path, value))
                except InputError:
                    pass
    assert count > 5000


def test_int_fields_refuse_floats_and_bools():
    obj = schema.document_to_json(generate_examples("pushforward-2-1"))
    ints = [path for path, v in _fields(obj) if type(v) is int]
    assert ints
    for path in ints:
        for value in (1.5, True):
            with pytest.raises(InputError):
                schema.loads(_mutated(obj, path, value))


def test_bool_fields_refuse_other_values():
    obj = schema.document_to_json(generate_examples("pushforward-2-1"))
    bools = [path for path, v in _fields(obj) if type(v) is bool]
    assert bools
    for path in bools:
        for value in ("no", 1, None):
            with pytest.raises(InputError):
                schema.loads(_mutated(obj, path, value))


