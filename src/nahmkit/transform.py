"""The global algebraic Nahm transforms and their verification reports.

The global objects are carried by invariants plus local data: the rank of
the transform is the Euler-characteristic bookkeeping sum of the local
complex indices (first and second cohomology vanish once the concentration
condition holds), the divisor is exchanged with the spectrum at infinity,
and the per-point filtered structure is transported by the local
transforms.  The transforms preserve the parabolic degree exactly and are
mutually inverse on data whose exceptional part vanishes, which the
concentration conditions force; the exceptional tame-nilpotent part, when
present in hand-built bundle data, is transported verbatim through its
injection slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import schema
from .errors import InputError, VerdictFailure
from .elliptic import (
    AdmissibleHiggsData,
    ConditionReport,
    FilteredBundleData,
    SingularPoint,
    a0_check,
    a1a2_check,
    a3_check,
    global_parabolic_degree,
    good_check,
)
from .higgs import ElementaryBlock, HiggsGerm
from .localnahm import (
    build_local_complex,
    local_nahm_0_inf,
    transform_block_inf_0,
)

# ----------------------------------------------------------------------
# report object
# ----------------------------------------------------------------------


@dataclass
class NahmReport:
    """Structured record of one transform/verification run."""

    direction: str = ""
    input_rank: int = 0
    output_rank: int = 0
    input_degree: Fraction = Fraction(0)
    output_degree: Fraction = Fraction(0)
    input_table: list = field(default_factory=list)
    output_table: list = field(default_factory=list)
    conditions: dict = field(default_factory=dict)
    degree_preserved: bool = None
    roundtrip: str = None  # "pass" | "fail" | None
    goodness_preserved: bool = None
    c2: object = None  # reserved; no combinatorial formula is pinned yet
    notes: list = field(default_factory=list)

    def to_dict(self):
        def frac(x):
            if isinstance(x, Fraction):
                return {"num": x.numerator, "den": x.denominator}
            return x

        cond = {}
        for k, v in sorted(self.conditions.items()):
            if isinstance(v, ConditionReport):
                cond[k] = {
                    "ok": v.ok,
                    "failing": [
                        {
                            "w": None if w is None else str(w),
                            "class": None if c is None else repr(c),
                            "side": side,
                        }
                        for (w, c, side) in v.failing
                    ],
                    "notes": list(v.notes),
                }
            else:
                cond[k] = v
        return {
            "direction": self.direction,
            "input": {
                "rank": self.input_rank,
                "parabolic_degree": frac(self.input_degree),
                "table": self.input_table,
            },
            "output": {
                "rank": self.output_rank,
                "parabolic_degree": frac(self.output_degree),
                "table": self.output_table,
            },
            "conditions": cond,
            "degree_preserved": self.degree_preserved,
            "roundtrip": self.roundtrip,
            "goodness_preserved": self.goodness_preserved,
            "c2": self.c2,
            "notes": list(self.notes),
        }

    def to_json(self):
        return schema.json_text(self.to_dict())

    def to_text(self):
        d = self.to_dict()
        lines = [f"direction: {d['direction'] or '(none)'}"]
        for side in ("input", "output"):
            s = d[side]
            pd = s["parabolic_degree"]
            pd_s = f"{pd['num']}/{pd['den']}" if isinstance(pd, dict) else str(pd)
            lines.append(f"{side}: rank {s['rank']}, parabolic degree {pd_s}")
            for pt, blk in s["table"]:
                lines.append(
                    f"  {pt}: (p,m)=({blk['p']},{blk['m']}) orbit {blk['orbit']} "
                    f"weights {blk['weights']} degrees {blk['degrees']}"
                )
        for name, c in d["conditions"].items():
            if isinstance(c, dict):
                status = "pass" if c["ok"] else "FAIL"
                lines.append(f"condition {name}: {status}")
                for f in c["failing"]:
                    lines.append(f"  fails at w={f['w']} class={f['class']} ({f['side']})")
                for n in c["notes"]:
                    lines.append(f"  note: {n}")
            else:
                lines.append(f"condition {name}: {c}")
        if self.degree_preserved is not None:
            lines.append(f"degree preserved: {self.degree_preserved}")
        if self.roundtrip is not None:
            lines.append(f"roundtrip: {self.roundtrip}")
        if self.goodness_preserved is not None:
            lines.append(f"goodness preserved: {self.goodness_preserved}")
        lines.append(f"c2: {self.c2 if self.c2 is not None else 'not computed'}")
        for n in self.notes:
            lines.append(f"note: {n}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# forward: Higgs data on the dual torus -> filtered bundle data
# ----------------------------------------------------------------------


def nahm_forward(data, skip_checks=False):
    """Global forward transform; returns (FilteredBundleData, NahmReport).

    Rank by exact degree bookkeeping (sum of local indices), spectrum at
    infinity equal to the divisor, per-point germs by the forward local
    transform; the parabolic degree is preserved exactly (asserted)."""
    if not isinstance(data, AdmissibleHiggsData):
        raise InputError("forward transform expects admissible Higgs data")
    data = data.canonical()
    report = NahmReport(direction="forward")
    _read_input_side(report, data)
    cond = a0_check(data)
    report.conditions["A0"] = cond
    if not cond.ok and not skip_checks:
        raise VerdictFailure("input fails the concentration condition (A0)", report)
    out_points = []
    out_rank = 0
    for sp in data.points:
        complex_ = build_local_complex(sp.germ)
        out_rank += complex_.index
        out_points.append(
            SingularPoint(point=sp.point, germ=local_nahm_0_inf(complex_.germ))
        )
    out = FilteredBundleData(data.ctx, out_points)
    if out.rank != out_rank:
        raise VerdictFailure(
            "blockwise ranks disagree with the index bookkeeping", report
        )
    _finish(report, out, good_check(data))
    return out, report


def _read_input_side(report, data):
    report.input_rank = data.rank
    report.input_degree = global_parabolic_degree(data)
    report.input_table = data.table()


def _finish(report, out, g_in):
    """Fill in the output side and the goodness of a transform's report;
    g_in is the goodness verdict of its input."""
    report.output_rank = out.rank
    report.output_degree = global_parabolic_degree(out)
    report.output_table = out.table()
    report.degree_preserved = report.output_degree == report.input_degree
    if not report.degree_preserved:
        raise VerdictFailure("parabolic degree not preserved (internal error)", report)
    g_out = good_check(out)
    report.conditions["Good(in)"] = g_in
    report.conditions["Good(out)"] = g_out
    report.goodness_preserved = (not g_in.ok) or g_out.ok


# ----------------------------------------------------------------------
# backward: filtered bundle data -> Higgs data on the dual torus
# ----------------------------------------------------------------------


def nahm_backward(data, skip_checks=False):
    """Global backward transform; returns (AdmissibleHiggsData, NahmReport).

    The divisor is the spectrum at infinity; non-exceptional blocks go
    through the backward local transform, the exceptional part needs its
    injection slot (and is carried verbatim).  The Higgs field is the
    translation action recorded on the block data."""
    if not isinstance(data, FilteredBundleData):
        raise InputError("backward transform expects filtered-bundle data")
    return _backward(data.canonical(), skip_checks)


def _backward(data, skip_checks=False, forward_report=None):
    """The backward transform of canonical bundle data.  Given the report
    of the forward transform that produced `data`, its output side and
    output goodness are taken as this report's input side and input
    goodness rather than derived again."""
    report = NahmReport(direction="backward")
    if forward_report is None:
        _read_input_side(report, data)
        g_in = good_check(data)
    else:
        report.input_rank = forward_report.output_rank
        report.input_degree = forward_report.output_degree
        report.input_table = forward_report.output_table
        g_in = forward_report.conditions["Good(out)"]
    c12 = a1a2_check(data)
    c3 = a3_check(data)
    report.conditions["A1A2"] = c12
    report.conditions["A3"] = c3
    if not skip_checks and not (c12.ok and c3.ok):
        raise VerdictFailure("input fails (A1)(A2)/(A3)", report)
    out_points = []
    for sp in data.points:
        blocks = []
        for b in sp.blocks():
            if b.is_exceptional():
                if b.injection is None:
                    raise VerdictFailure(
                        "nonzero exceptional part without injection data", report
                    )
                carried = b.injection if isinstance(b.injection, ElementaryBlock) else b
                if carried.rank != b.rank or carried.pardeg() != b.pardeg():
                    raise VerdictFailure(
                        "injection data inconsistent with its host block "
                        "(rank or degree mismatch)", report
                    )
                blocks.append(carried)
            else:
                blocks.append(transform_block_inf_0(b))
        out_points.append(
            SingularPoint(
                point=sp.point,
                germ=HiggsGerm.from_blocks(data.ctx, blocks, coord="finite"),
            )
        )
    out = AdmissibleHiggsData(data.ctx, out_points)
    _finish(report, out, g_in)
    return out, report


# ----------------------------------------------------------------------
# roundtrip and invariants
# ----------------------------------------------------------------------


def roundtrip_report(data):
    """Forward then backward; pass iff the full block tables, divisor,
    rank, and parabolic degree are restored exactly.  Ranks, degrees,
    tables and goodness are read off the two transforms' reports."""
    data = data.canonical()
    fwd, rep_f = nahm_forward(data)
    back, rep_b = _backward(fwd, forward_report=rep_f)
    report = NahmReport(direction="roundtrip")
    report.input_rank = rep_f.input_rank
    report.input_degree = rep_f.input_degree
    report.input_table = rep_f.input_table
    report.output_rank = rep_b.output_rank
    report.output_degree = rep_b.output_degree
    report.output_table = rep_b.output_table
    report.conditions.update(rep_f.conditions)
    report.degree_preserved = (
        rep_f.degree_preserved
        and rep_b.degree_preserved
        and report.output_degree == report.input_degree
    )
    same = (
        data.table_keys() == back.table_keys()
        and report.input_rank == report.output_rank
        and report.degree_preserved
    )
    report.roundtrip = "pass" if same else "fail"
    g_in = rep_f.conditions["Good(in)"]
    report.goodness_preserved = (not g_in.ok) or rep_b.conditions["Good(out)"].ok
    return report


def invariants(data):
    """Rank, parabolic degree, and per-point singularity tables."""
    data = data.canonical()
    report = NahmReport(direction="invariants")
    _read_input_side(report, data)
    report.output_rank = report.input_rank
    report.output_degree = report.input_degree
    report.output_table = report.input_table
    if isinstance(data, AdmissibleHiggsData):
        report.conditions["A0"] = a0_check(data)
    else:
        report.conditions["A1A2"] = a1a2_check(data)
        report.conditions["A3"] = a3_check(data)
    report.conditions["Good"] = good_check(data)
    return report
