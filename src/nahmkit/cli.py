"""Command-line front end.

Subcommands: check, transform, roundtrip, invariants, examples, oracle.
Documents are UTF-8 JSON (see schema.py); exit codes are stable:

    0  success / all verdicts pass
    1  a checked verdict fails
    2  malformed or inconsistent input
    3  precision or field-extension limit hit
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import (
    FieldExtensionRequired,
    InputError,
    NahmkitError,
    NotAdmissible,
    PrecisionExhausted,
    VerdictFailure,
)
from . import schema
from .elliptic import AdmissibleHiggsData
from .examples import catalog_names, generate_examples
from .field import FieldContext
from .higgs import admissibility_check
from .localnahm import build_local_complex
from .oracle import degree_crosscheck, truncated_cokernel
from .series import DEFAULT_PRECISION
from .transform import invariants, nahm_backward, nahm_forward, roundtrip_report

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _read_document(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
    return schema.loads(text)


def _emit(obj, fmt):
    if fmt == "json":
        print(schema.json_text(obj))
    else:
        _emit_text(obj)


def _print_report(report, fmt):
    print(report.to_json() if fmt == "json" else report.to_text())


def _emit_text(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{obj}")


def _precision(args, doc=None):
    """Truncation order: --precision, else the document's (schema.loads has
    checked it), else $NAHMKIT_PRECISION, else 24; an integer >= 1."""
    if args.precision is not None:
        n, source = args.precision, "--precision"
    elif doc is not None and doc.get("precision") is not None:
        return doc["precision"]
    else:
        env = os.environ.get("NAHMKIT_PRECISION")
        if not env:
            return DEFAULT_PRECISION
        try:
            n, source = int(env), "NAHMKIT_PRECISION"
        except ValueError:
            raise InputError(f"NAHMKIT_PRECISION must be an integer, got {env!r}")
    if n < 1:
        raise InputError(f"{source} must be an integer >= 1, got {n}")
    return n


def _generic_twist(ctx):
    if "w" in ctx.symbols:
        return ctx.sym("w")
    raise InputError(
        "the generic twist needs a transcendental: declare a symbol named "
        "'w' in the session field"
    )


# -- subcommands --


def cmd_check(args):
    doc = _read_document(args.document)
    data = doc["data"]
    report = invariants(data)
    conditions = report.conditions
    if doc["kind"] == "higgs":
        adm = all(
            admissibility_check(sp.germ) for sp in data.points
        )
        conditions["admissible"] = "pass" if adm else "FAIL"
        ok = conditions["A0"].ok and conditions["Good"].ok and adm
    else:
        ok = (
            conditions["A1A2"].ok
            and conditions["A3"].ok
            and conditions["Good"].ok
        )
    _print_report(report, args.format)
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_transform(args):
    doc = _read_document(args.document)
    data = doc["data"]
    if args.direction == "forward":
        if doc["kind"] != "higgs":
            raise InputError("forward transform needs a 'higgs' document")
        out, report = nahm_forward(data)
    else:
        if doc["kind"] != "bundle":
            raise InputError("backward transform needs a 'bundle' document")
        out, report = nahm_backward(data)
    out_doc = {
        "ctx": doc["ctx"],
        "kind": out.kind,
        "data": out,
        "precision": doc.get("precision"),
    }
    if args.format == "json":
        print(schema.json_text(
            {"document": schema.document_to_json(out_doc), "report": report.to_dict()}
        ))
    else:
        print(report.to_text())
        print("-- output document --")
        print(schema.dumps(out_doc))
    return EXIT_OK


def cmd_roundtrip(args):
    doc = _read_document(args.document)
    if doc["kind"] != "higgs":
        raise InputError("roundtrip starts from a 'higgs' document")
    report = roundtrip_report(doc["data"])
    _print_report(report, args.format)
    return EXIT_OK if report.roundtrip == "pass" else EXIT_VERDICT


def cmd_invariants(args):
    doc = _read_document(args.document)
    report = invariants(doc["data"])
    _print_report(report, args.format)
    return EXIT_OK


def _field_override(args):
    """Session for 'examples' from --field M,k: k extra symbols x1..xk plus
    the names the catalog needs."""
    if args.field is None:
        return None
    try:
        m_str, k_str = args.field.split(",")
        M, k = int(m_str), int(k_str)
    except ValueError:
        raise InputError("--field expects 'M,k' with integers")
    if k < 0:
        raise InputError("--field expects a symbol count k >= 0")
    extra = tuple(f"x{i}" for i in range(1, max(k, 2) + 1))
    names = extra + ("w", "s1", "s2", "nu1", "nu2")
    return FieldContext(M=M, symbols=names)


def cmd_examples(args):
    if not args.name:
        listing = [
            {"name": n, "description": generate_examples(n)["description"]}
            for n in catalog_names()
        ]
        _emit(listing, args.format)
        return EXIT_OK
    ex = generate_examples(args.name, ctx=_field_override(args))
    doc_json = schema.document_to_json(ex)
    payload = {
        "name": ex["name"],
        "description": ex["description"],
        "slope_criterion_ok": ex["slope_criterion_ok"],
        "max_slope": f"{ex['max_slope']}",
        "document": doc_json,
    }
    print(schema.json_text(payload))
    return EXIT_OK


def cmd_oracle(args):
    doc = _read_document(args.document)
    data = doc["data"]
    if not isinstance(data, AdmissibleHiggsData):
        raise InputError("the oracle suite runs on 'higgs' documents")
    ctx = doc["ctx"]
    N = _precision(args, doc)
    w = _generic_twist(ctx)
    rows = []
    ok = True
    for sp in data.points:
        complex_ = build_local_complex(sp.germ)
        book = complex_.index
        ker, coker, certified = truncated_cokernel(complex_, (w, None), N)
        agree = certified and ker == 0 and coker == book
        ok = ok and agree
        rows.append(
            {
                "point": repr(sp.point),
                "bookkeeping_rank": book,
                "oracle_kernel": ker,
                "oracle_cokernel": coker,
                "certified": certified,
                "agree": agree,
            }
        )
    cross = degree_crosscheck(data, w, N)
    ok = ok and cross
    out = {"precision": N, "blocks": rows, "degree_crosscheck": cross, "ok": ok}
    _emit(out, args.format)
    return EXIT_OK if ok else EXIT_VERDICT


@functools.cache
def build_parser():
    """The argument parser, built on the first call and kept for the life
    of the process (parse_args returns a fresh Namespace each time)."""
    ap = argparse.ArgumentParser(
        prog="nahmkit",
        description=(
            "exact calculus of filtered Higgs singularity data on the dual "
            "torus and its algebraic Nahm transforms"
        ),
    )
    ap.add_argument("--precision", type=int, default=None,
                    help="working truncation order (default 24 or $NAHMKIT_PRECISION)")
    ap.add_argument("--field", default=None, metavar="M,k",
                    help="session field override used by 'examples' sessions")
    ap.add_argument("--format", choices=("json", "text"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the condition detectors")
    p.add_argument("document", help="JSON document path or '-'")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("transform", help="apply the global transform")
    p.add_argument("--direction", choices=("forward", "backward"), required=True)
    p.add_argument("document")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("roundtrip", help="forward then backward, verify identity")
    p.add_argument("document")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("invariants", help="rank, degree and singularity tables")
    p.add_argument("document")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("examples", help="emit built-in example documents")
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("oracle", help="run the brute-force verification suite")
    p.add_argument("document")
    p.set_defaults(func=cmd_oracle)
    return ap


def cli_run(argv):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        _precision(args)  # a bad flag or environment value fails every subcommand
        return args.func(args)
    except VerdictFailure as exc:
        print(f"verdict failure: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(exc.report.to_text(), file=sys.stderr)
        return EXIT_VERDICT
    except (FieldExtensionRequired, PrecisionExhausted) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (InputError, NotAdmissible) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NahmkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(cli_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
