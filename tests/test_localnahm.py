"""Local transforms: complex levels, indices, block maps, roundtrips."""

from fractions import Fraction as F
from math import gcd

import pytest

from nahmkit.errors import InputError, NotAdmissible
from nahmkit.field import FieldContext
from nahmkit.filtered import normalize_weight
from nahmkit.higgs import (
    ElementaryBlock,
    HiggsGerm,
    _scalar_nth_root,
    admissibility_check,
    realize,
)
from nahmkit.localnahm import (
    build_local_complex,
    c0_level,
    kappa,
    local_nahm_0_inf,
    local_nahm_inf_0,
    transform_block_0_inf,
    transform_block_inf_0,
)
from nahmkit.torus import TorusPoint


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
    assert build_local_complex(HiggsGerm.from_blocks(ctx, [b2])).index == 1
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
        assert build_local_complex(HiggsGerm.from_blocks(ctx, [b])).index == expected


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


# the two block transforms as they read before they shared one body, kept
# as the reference of the block rule


def _ref_shift_weights(weights, degrees, shift):
    ws, ds = [], []
    for c, d in zip(weights, degrees):
        w, k = normalize_weight(c + shift, 0)
        ws.append(w)
        ds.append(d - k)
    return tuple(ws), tuple(ds)


def _ref_block_0_inf(block):
    ctx = block.alpha.ctx
    if block.is_exceptional():
        raise NotAdmissible(
            "the tame nilpotent part has no local transform; it is handled "
            "by the global injection rule"
        )
    if block.m == 0:
        return ElementaryBlock.make(
            ctx, 1, 0, alpha=block.alpha, weights=block.weights,
            degrees=block.degrees, nilp=block.nilp, twists=block.twists,
        )
    p, m = block.p, block.m
    ws, ds = _ref_shift_weights(block.weights, block.degrees, F(m, 2))
    rad = block.radicand * ctx.rational(kappa(p, m))
    return ElementaryBlock.make(
        ctx, p + m, m, alpha=block.alpha, weights=ws, degrees=ds,
        radicand=rad, lead=_scalar_nth_root(rad, p + m), tail=block.tail,
        nilp=block.nilp, twists=block.twists,
    )


def _ref_block_inf_0(block):
    ctx = block.alpha.ctx
    if block.is_exceptional():
        raise NotAdmissible(
            "nonzero tame nilpotent part: N^{inf,0} is undefined there"
        )
    if block.m == 0:
        return ElementaryBlock.make(
            ctx, 1, 0, alpha=block.alpha, weights=block.weights,
            degrees=block.degrees, nilp=block.nilp, twists=block.twists,
        )
    P, M = block.p, block.m
    if P <= M:
        raise InputError(
            f"slope {M}/{P} is not strictly smaller than 1; not in the image "
            "of the forward transform"
        )
    p = P - M
    ws, ds = _ref_shift_weights(block.weights, block.degrees, -F(M, 2))
    rad = block.radicand / ctx.rational(kappa(p, M))
    return ElementaryBlock.make(
        ctx, p, M, alpha=block.alpha, weights=ws, degrees=ds,
        radicand=rad, lead=_scalar_nth_root(rad, p), tail=block.tail,
        nilp=block.nilp, twists=block.twists,
    )


def _rule_blocks(ctx, p, m):
    """Blocks of type (p, m) carrying every datum the block rule reads:
    weights that wrap on a shift of m/2 and weights that do not, nonzero
    degrees, an explicit lead or a radicand alone, a tail when m >= 2, a
    nilpotent part, twists and, on tame blocks, an injection."""
    a = ctx.sym("a")
    nilp = ((ctx.zero, a), (ctx.zero, ctx.zero))
    twists = (TorusPoint("T_dual", F(1, 4), F(2, 3)), None)
    lines = [((F(0),), (0,)), ((F(-2, 3),), (2,)), ((F(-5, 6), F(-1, 4)), (-1, 3))]
    if m == 0:
        carried = ElementaryBlock.make(ctx, 1, 0, alpha=ctx.one, weights=(F(-1, 3),))
        for weights, degrees in lines:
            two = len(weights) == 2
            yield ElementaryBlock.make(
                ctx, 1, 0, alpha=a, weights=weights, degrees=degrees,
                nilp=nilp if two else (), twists=twists if two else (),
                injection=carried,
            )
        return
    tail = tuple(a + ctx.rational(i) for i in range(1, m))
    for weights, degrees in lines:
        two = len(weights) == 2
        extra = {"nilp": nilp, "twists": twists} if two else {}
        for leading in ({"lead": a}, {"lead": ctx.rational(-2)},
                        {"radicand": a}, {"radicand": ctx.rational(1)}):
            yield ElementaryBlock.make(
                ctx, p, m, weights=weights, degrees=degrees, tail=tail,
                alpha=ctx.rational(F(1, 3)), **leading, **extra,
            )


def _same_outcome(ours, reference, block):
    try:
        want = reference(block)
    except (InputError, NotAdmissible) as exc:
        with pytest.raises(type(exc)) as got:
            ours(block)
        assert str(got.value) == str(exc)
        return
    assert ours(block) == want


@pytest.mark.parametrize("pm", all_pm(6))
def test_block_rule_matches_the_two_reference_bodies(ctx, pm):
    """Both block transforms equal, as whole blocks, the bodies they had
    before sharing one rule: forward on (p, m), backward on its image type
    (p + m, m) and on the type (p, m) itself, which it refuses when
    p <= m."""
    p, m = pm
    for b in _rule_blocks(ctx, p, m):
        _same_outcome(transform_block_0_inf, _ref_block_0_inf, b)
        _same_outcome(transform_block_inf_0, _ref_block_inf_0, b)
        out = transform_block_0_inf(b)
        _same_outcome(transform_block_inf_0, _ref_block_inf_0, out)
        if m == 0:
            assert out.injection is None and out.nilp == b.nilp
        else:
            assert out.tail == b.tail and out.twists == b.twists
    for b in _rule_blocks(ctx, p + m, m) if m else ():
        _same_outcome(transform_block_inf_0, _ref_block_inf_0, b)
    exceptional = ElementaryBlock.make(ctx, 1, 0, weights=(F(0), F(-1, 2)), nilp=(
        (ctx.zero, ctx.one), (ctx.zero, ctx.zero)))
    _same_outcome(transform_block_0_inf, _ref_block_0_inf, exceptional)
    _same_outcome(transform_block_inf_0, _ref_block_inf_0, exceptional)


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
