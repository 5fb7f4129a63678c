"""Each public refusal raises InputError with its message.

Every case hands a public entry point data of the wrong kind or shape and
checks the type (CLI exit code 2) and the message of the refusal.
"""

import re
from fractions import Fraction

import pytest

from nahmkit.elliptic import a0_check, a1a2_check, a3_check
from nahmkit.errors import InputError
from nahmkit.examples import example_context, generate_examples
from nahmkit.field import FieldContext
from nahmkit.filtered import (
    FilteredLattice,
    pullback_covering,
    pushforward_covering,
    tensor_filtered,
)
from nahmkit.higgs import ElementaryBlock, HiggsGerm, slope_check
from nahmkit.lmatrix import LaurentMatrix, newton_polygon
from nahmkit.series import TruncatedLaurent as TL, series_arith
from nahmkit.torus import TorusPoint
from nahmkit.transform import nahm_backward, nahm_forward


@pytest.fixture(scope="module")
def ctx():
    return example_context()


def _higgs(ctx):
    return generate_examples("tame-rank1", ctx)["data"]


def _bundle(ctx):
    return generate_examples("line-bundle", ctx)["data"]


def _line(ctx):
    return FilteredLattice(ctx, [Fraction(0)])


def _one(ctx):
    return TL.from_scalar(ctx.one)


def _square(ctx, n):
    return LaurentMatrix(ctx, [[_one(ctx)] * n for _ in range(n)])


def _block(ctx, p=1, m=0, **kw):
    return ElementaryBlock.make(ctx, p, m, **kw)


def _pair(ctx):
    return [[ctx.zero, ctx.zero], [ctx.one, ctx.zero]]


CASES = [
    ("a0_check", lambda c: a0_check(_bundle(c)),
     "a0_check expects Higgs data on the dual torus"),
    ("a3_check", lambda c: a3_check(_higgs(c)),
     "a3_check expects filtered-bundle data"),
    ("a1a2_check", lambda c: a1a2_check(_higgs(c)),
     "a1a2_check expects filtered-bundle data"),
    ("nahm_forward", lambda c: nahm_forward(_bundle(c)),
     "forward transform expects admissible Higgs data"),
    ("nahm_backward", lambda c: nahm_backward(_higgs(c)),
     "backward transform expects filtered-bundle data"),
    ("duplicate-symbols", lambda c: FieldContext(M=12, symbols=("a", "a")),
     "duplicate symbol names"),
    ("tensor-sessions", lambda c: tensor_filtered(_line(c), _line(example_context())),
     "tensor across sessions"),
    ("pullback-p0", lambda c: pullback_covering(_line(c), 0),
     "covering degree must be >= 1"),
    ("pushforward-p0", lambda c: pushforward_covering(_line(c), 0),
     "covering degree must be >= 1"),
    ("series-op", lambda c: series_arith(_one(c), _one(c), "div"),
     "unknown series op 'div'"),
    ("newton-lead", lambda c: newton_polygon([TL.zero(c), _one(c)]),
     "leading coefficient of the characteristic polynomial vanishes"),
    ("ragged", lambda c: LaurentMatrix(c, [[_one(c), _one(c)], [_one(c)]]),
     "ragged matrix"),
    ("matrix-add", lambda c: _square(c, 1) + _square(c, 2),
     "matrix shape mismatch"),
    ("matrix-mul", lambda c: _square(c, 1) * _square(c, 2),
     "matrix shape mismatch"),
    ("torus-lattices", lambda c: TorusPoint("T") + TorusPoint("T_dual"),
     "torus arithmetic across different lattices"),
    ("series-sessions", lambda c: _one(c) + _one(example_context()),
     "series arithmetic across sessions"),
    ("block-tail", lambda c: _block(c, 2, 1, lead=c.one, tail=(c.one,)),
     "irregular tail too long"),
    ("block-nilp-shape", lambda c: _block(c, weights=(0, 0), nilp=[[c.zero]]),
     "nilpotent part has wrong shape"),
    ("block-nilp-upper", lambda c: _block(c, weights=(0, 0), nilp=_pair(c)),
     "nilpotent part must be strictly upper"),
    ("block-twists", lambda c: _block(c, weights=(0, 0), twists=(0,)),
     "twists do not match the upstairs rank"),
    ("block-radicand", lambda c: _block(c, 2, 1, lead=c.one, radicand=c.rational(2)),
     "lead and radicand disagree"),
    ("germ-coord", lambda c: HiggsGerm(c, "middle", blocks=()),
     "coord must be 'finite' or 'infinity'"),
    ("germ-data", lambda c: HiggsGerm(c, "finite"),
     "germ needs blocks or (lattice, theta)"),
    ("germ-theta", lambda c: HiggsGerm(
        c, "finite", lattice=FilteredLattice(c, [0, 0]), theta=_square(c, 1)),
     "theta shape does not match the lattice rank"),
    ("slope-coprime", lambda c: slope_check(
        HiggsGerm.from_blocks(c, [_block(c, 1, 1, lead=c.one)]), 2, 2),
     "slope data must be coprime"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_public_refusal(ctx, call, message):
    with pytest.raises(InputError, match=re.escape(message)):
        call(ctx)
