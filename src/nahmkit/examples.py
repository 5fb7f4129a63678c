"""Built-in example families.

Each catalog entry builds a full self-contained document (session field,
payload, annotations).  The irregular families follow the push-forward
construction with a monomial exponential factor; each is annotated with
whether the instanton slope criterion deg(a)/p <= 1 holds.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .field import FieldContext
from .higgs import ElementaryBlock, HiggsGerm
from .torus import TorusPoint
from .elliptic import AdmissibleHiggsData, FilteredBundleData, SingularPoint

#: session used by every built-in example: alpha/lead symbols, a generic
#: twist symbol for the oracle, symbolic positions, dual-lattice generators
EXAMPLE_SYMBOLS = ("x1", "x2", "w", "s1", "s2", "nu1", "nu2")


def example_context():
    return FieldContext(M=12, symbols=EXAMPLE_SYMBOLS)


def _pt(q1=0, q2=0, sym=None):
    return TorusPoint("T_dual", q1, q2, sym=sym or {}, is_lift=True)


def tame_rank1(ctx):
    """Rank-1 tame datum at a symbolic position."""
    b = ElementaryBlock.make(
        ctx, 1, 0, alpha=ctx.sym("x1"), weights=(Fraction(-1, 4),), degrees=(0,)
    )
    sp = SingularPoint(_pt(sym={"s1": 1}), HiggsGerm.from_blocks(ctx, [b], "finite"))
    return AdmissibleHiggsData(ctx, [sp])


def pushforward(ctx, p, m):
    """Push-forward of a line datum with monomial exponential factor of
    u-degree m along the degree-p covering."""
    b = ElementaryBlock.make(
        ctx, p, m, lead=ctx.sym("x1"), weights=(Fraction(0),), degrees=(0,)
    )
    sp = SingularPoint(_pt(sym={"s1": 1}), HiggsGerm.from_blocks(ctx, [b], "finite"))
    return AdmissibleHiggsData(ctx, [sp])


def _line_bundle(ctx):
    """Rank-1 filtered-bundle datum: the pulled-back line bundle model."""
    b = ElementaryBlock.make(ctx, 1, 0, weights=(Fraction(-1, 4),), degrees=(0,))
    sp = SingularPoint(
        _pt(Fraction(1, 3), Fraction(1, 5)),
        HiggsGerm.from_blocks(ctx, [b], "infinity"),
    )
    return FilteredBundleData(ctx, [sp])


def _mixed_suite(ctx):
    b21 = ElementaryBlock.make(
        ctx, 2, 1, lead=ctx.sym("x1"), weights=(Fraction(-1, 3),), degrees=(1,)
    )
    b10 = ElementaryBlock.make(
        ctx, 1, 0, alpha=ctx.sym("x2"), weights=(Fraction(-1, 2), Fraction(-1, 6)),
        degrees=(0, -1),
    )
    b32 = ElementaryBlock.make(
        ctx, 3, 2, lead=ctx.sym("x2"), weights=(Fraction(-3, 4),), degrees=(0,)
    )
    pts = [
        SingularPoint(_pt(sym={"s1": 1}), HiggsGerm.from_blocks(ctx, [b21, b10], "finite")),
        SingularPoint(_pt(Fraction(1, 2), Fraction(1, 2)), HiggsGerm.from_blocks(ctx, [b32], "finite")),
    ]
    return AdmissibleHiggsData(ctx, pts)


def _catalog():
    return {
        "tame-rank1": (
            "rank-1 tame datum, symbolic residue and position",
            tame_rank1,
        ),
        "tame-rank1-degenerate": (
            "trivial-Higgs rank-1 datum (fails the concentration condition)",
            lambda ctx: AdmissibleHiggsData(ctx, [SingularPoint(
                _pt(),
                HiggsGerm.from_blocks(
                    ctx,
                    [ElementaryBlock.make(ctx, 1, 0, weights=(Fraction(0),))],
                    "finite",
                ),
            )]),
        ),
        "pushforward-2-1": (
            "degree-2 push-forward with u-degree-1 exponential factor",
            lambda ctx: pushforward(ctx, 2, 1),
        ),
        "pushforward-3-2": (
            "degree-3 push-forward with u-degree-2 exponential factor",
            lambda ctx: pushforward(ctx, 3, 2),
        ),
        "pushforward-2-3": (
            "slope 3/2 datum (beyond the instanton slope criterion)",
            lambda ctx: pushforward(ctx, 2, 3),
        ),
        "line-bundle": (
            "rank-1 filtered-bundle datum (fails the section vanishing at "
            "exactly one twist class)",
            _line_bundle,
        ),
        "mixed-suite": (
            "two singular points with mixed irregular and tame blocks",
            _mixed_suite,
        ),
    }


def catalog_names():
    return sorted(_catalog())


def generate_examples(name, ctx=None):
    """Build one catalog entry as an annotated document.

    A custom session context may be supplied; it must declare the example
    symbols (x1, x2, w, s1, s2 and the dual generators).
    """
    cat = _catalog()
    if name not in cat:
        raise InputError(
            f"unknown example {name!r}; available: {', '.join(sorted(cat))}"
        )
    description, builder = cat[name]
    ctx = example_context() if ctx is None else ctx
    data = builder(ctx)
    max_slope = max(b.slope for _, b in data.all_blocks())
    return {
        "name": name,
        "description": description,
        "slope_criterion_ok": max_slope <= 1,
        "max_slope": max_slope,
        "ctx": ctx,
        "kind": data.kind,
        "data": data,
        "precision": None,
    }
