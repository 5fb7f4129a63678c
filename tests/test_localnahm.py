"""Local transforms: complex levels, indices, block maps, roundtrips."""

from fractions import Fraction as F
from math import gcd

import pytest

from nahmkit.errors import InputError, NotAdmissible
from nahmkit.field import FieldContext
from nahmkit.higgs import ElementaryBlock, HiggsGerm, admissibility_check, realize
from nahmkit.localnahm import (
    block_index,
    build_local_complex,
    c0_level,
    kappa,
    local_nahm_0_inf,
    local_nahm_inf_0,
    transform_block_0_inf,
    transform_block_inf_0,
)


@pytest.fixture(scope="module")
def ctx():
    return FieldContext(M=12, symbols=("a",))


def all_pm(bound):
    out = [(1, 0)]
    for p in range(1, bound):
        for m in range(1, bound):
            if gcd(p, m) == 1 and p + m <= bound:
                out.append((p, m))
    return out


def make_block(ctx, p, m, weight=F(-1, 3), degree=0):
    if m == 0:
        return ElementaryBlock.make(
            ctx, 1, 0, alpha=ctx.sym("a"), weights=(weight,), degrees=(degree,)
        )
    return ElementaryBlock.make(
        ctx, p, m, lead=ctx.sym("a"), weights=(weight,), degrees=(degree,)
    )


def test_complex_levels(ctx):
    b = make_block(ctx, 2, 1)
    assert c0_level(b) == F(-1, 2) - F(1, 2)
    assert c0_level(make_block(ctx, 1, 0)) == F(-1, 2)
    assert c0_level(ElementaryBlock.make(ctx, 1, 0, weights=(F(0),))) == 0


def test_complex_block_exponents(ctx):
    # tame weight -1/4: C0 generator z^1, C1 generator z^0, index 1
    cb = build_local_complex(
        HiggsGerm.from_blocks(ctx, [make_block(ctx, 1, 0, weight=F(-1, 4))])
    ).parts[0]
    assert cb.c0_exponents == (1,) and cb.c1_exponents == (0,)
    assert cb.index == 1


def test_exceptional_complex(ctx):
    # theta = 0, weight 0: C0 = P_0, C1 = P_{<1}, index 0
    b = ElementaryBlock.make(ctx, 1, 0, weights=(F(0),))
    cb = build_local_complex(HiggsGerm.from_blocks(ctx, [b])).parts[0]
    assert cb.index == 0
    # weight -1/4 exceptional line: index 1
    b2 = ElementaryBlock.make(ctx, 1, 0, weights=(F(-1, 4),))
    assert block_index(b2) == 1
    # nilpotent part with a weight-0 target enlarges C1
    b3 = ElementaryBlock.make(
        ctx, 1, 0, weights=(F(0), F(0)),
        nilp=((ctx.zero, ctx.one), (ctx.zero, ctx.zero)),
    )
    cb3 = build_local_complex(HiggsGerm.from_blocks(ctx, [b3])).parts[0]
    assert cb3.index == 1  # the image line z^-1 enters C1


@pytest.mark.parametrize("pm", all_pm(6))
def test_block_index_is_p_plus_m(ctx, pm):
    p, m = pm
    for w in (F(0), F(-1, 3), F(-5, 6)):
        b = make_block(ctx, p, m, weight=w)
        expected = b.k if m == 0 else p + m
        assert block_index(b) == expected


@pytest.mark.parametrize("pm", all_pm(6))
def test_forward_block_rules(ctx, pm):
    p, m = pm
    b = make_block(ctx, p, m, weight=F(-2, 5), degree=1)
    out = transform_block_0_inf(b)
    if m == 0:
        assert (out.p, out.m) == (1, 0)
    else:
        assert (out.p, out.m) == (p + m, m)
        assert out.slope == F(m, p + m) and out.slope < 1
        assert out.radicand == b.radicand * ctx.rational(kappa(p, m))
    assert out.pardeg() == b.pardeg()
    back = transform_block_inf_0(out)
    assert back.table_key() == b.table_key()


def test_weight_rule_and_degree_compensation(ctx):
    b = make_block(ctx, 2, 1, weight=F(0), degree=0)
    out = transform_block_0_inf(b)
    # c' = normalize(0 + 1/2) = -1/2 with the base degree dropping by 1
    assert out.weights == (F(-1, 2),) and out.degrees == (-1,)
    b2 = make_block(ctx, 2, 1, weight=F(-3, 4), degree=0)
    out2 = transform_block_0_inf(b2)
    assert out2.weights == (F(-1, 4),) and out2.degrees == (0,)


def test_germ_level_roundtrip(ctx):
    blocks = [make_block(ctx, 2, 1), make_block(ctx, 1, 0, weight=F(-1, 2))]
    g = HiggsGerm.from_blocks(ctx, blocks)
    out = local_nahm_0_inf(g)
    assert out.coord == "infinity"
    assert out.rank == 3 + 1 == build_local_complex(g).index
    assert admissibility_check(out, 1, strict=True)
    back = local_nahm_inf_0(out)
    assert [b.table_key() for b in back.blocks] == [b.table_key() for b in blocks]


def test_matrix_germ_enters_through_goodness(ctx):
    g = realize(HiggsGerm.from_blocks(ctx, [make_block(ctx, 2, 1)]))
    out = local_nahm_0_inf(g)
    assert out.rank == 3 and (out.blocks[0].p, out.blocks[0].m) == (3, 1)


def test_exceptional_part_refused(ctx):
    b0 = ElementaryBlock.make(ctx, 1, 0, weights=(F(0),))
    with pytest.raises(NotAdmissible):
        transform_block_0_inf(b0)
    g = HiggsGerm.from_blocks(ctx, [b0], coord="infinity")
    with pytest.raises(InputError):
        local_nahm_inf_0(g)


def test_backward_needs_strict_slope(ctx):
    b11 = ElementaryBlock.make(ctx, 1, 1, lead=ctx.sym("a"), weights=(F(0),))
    with pytest.raises(InputError):
        transform_block_inf_0(b11)


def test_coordinate_contracts(ctx):
    g = HiggsGerm.from_blocks(ctx, [make_block(ctx, 2, 1)], coord="infinity")
    with pytest.raises(InputError):
        local_nahm_0_inf(g)
