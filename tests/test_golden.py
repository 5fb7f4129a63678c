"""Every catalog example through every subcommand gives the recorded output.

`tests/golden/catalog.json` holds, for each case, the sha256 of standard
output and of standard error and the exit code of `nahmkit --format F CMD -`
with the example's document on standard input (so no path appears in the
output).  The cases are each catalog example under `check`,
`transform --direction forward`, `roundtrip`, `invariants` and `oracle`, in
json and text, plus `transform --direction backward` on every forward output
that exits 0.  Outputs are meant to stay byte-identical across refactors and
optimisations; rewrite the manifest only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from nahmkit import schema
from nahmkit.cli import cli_run
from nahmkit.examples import catalog_names, generate_examples

MANIFEST = Path(__file__).resolve().parent / "golden" / "catalog.json"
COMMANDS = {
    "check": ["check"],
    "forward": ["transform", "--direction", "forward"],
    "roundtrip": ["roundtrip"],
    "invariants": ["invariants"],
    "oracle": ["oracle"],
}
FORMATS = ("json", "text")


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_run(argv)
    finally:
        sys.stdin = saved
    return out.getvalue(), err.getvalue(), code


def _record(argv, stdin_text):
    out, err, code = _run(argv, stdin_text)
    return {"stdout": _sha(out), "stderr": _sha(err), "exit": code}


def _cases():
    """Case id -> (argv, stdin text), in a fixed order."""
    cases = {}
    for name in catalog_names():
        doc = schema.dumps(generate_examples(name))
        for fmt in FORMATS:
            for label, cmd in COMMANDS.items():
                cases[f"{name}/{label}/{fmt}"] = (["--format", fmt, *cmd, "-"], doc)
        out, _, code = _run(["--format", "json", *COMMANDS["forward"], "-"], doc)
        if code == 0:
            bundle = json.dumps(json.loads(out)["document"], indent=2)
            for fmt in FORMATS:
                argv = ["--format", fmt, "transform", "--direction", "backward", "-"]
                cases[f"{name}/backward/{fmt}"] = (argv, bundle)
    return cases


@functools.cache
def _manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


CASES = _cases()


def test_manifest_covers_every_case():
    assert sorted(_manifest()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_manifest(case):
    argv, stdin_text = CASES[case]
    assert _record(argv, stdin_text) == _manifest()[case]


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    table = {case: _record(*CASES[case]) for case in CASES}
    MANIFEST.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} cases to {MANIFEST}")
