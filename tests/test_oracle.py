"""Brute-force verification layer: truncated models and cross-checks."""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from nahmkit import linalg, lmatrix, oracle
from nahmkit.errors import PrecisionExhausted
from nahmkit.field import FieldContext
from nahmkit.higgs import ElementaryBlock, HiggsGerm
from nahmkit.localnahm import build_local_complex
from nahmkit.oracle import (
    build_truncation_model,
    degree_crosscheck,
    oracle_rank,
    part_maps,
    truncated_cokernel,
)
from nahmkit.torus import TorusPoint
from nahmkit.elliptic import AdmissibleHiggsData, SingularPoint


@pytest.fixture(scope="module")
def ctx():
    return FieldContext(M=12, symbols=("a", "w"))


def complex_of(ctx, blocks):
    return build_local_complex(HiggsGerm.from_blocks(ctx, blocks))


# the block shapes (p, m) of the acceptance suite; (1, 0) is tame
SUITE_SHAPES = [(1, 0), (1, 1), (2, 1), (1, 2), (3, 1), (3, 2), (2, 3), (1, 3),
                (4, 1), (1, 4), (5, 1)]


def suite_germ(ctx, shape):
    p, m = shape
    a = ctx.sym("a")
    if m == 0:
        b = ElementaryBlock.make(ctx, 1, 0, alpha=a, weights=(F(-1, 6),))
    else:
        b = ElementaryBlock.make(ctx, p, m, lead=a, weights=(F(-2, 5),))
    return HiggsGerm.from_blocks(ctx, [b])


def suite_complex(ctx, shape):
    return build_local_complex(suite_germ(ctx, shape))


def test_tame_generic(ctx):
    c = complex_of(ctx, [ElementaryBlock.make(ctx, 1, 0, alpha=ctx.sym("a"), weights=(F(-1, 4),))])
    assert truncated_cokernel(c, (ctx.sym("w"), None), 24) == (0, 1, True)


def test_irregular_generic(ctx):
    c = complex_of(ctx, [ElementaryBlock.make(ctx, 2, 1, lead=ctx.sym("a"), weights=(F(0),))])
    assert truncated_cokernel(c, (ctx.sym("w"), None), 24) == (0, 3, True)


def test_exceptional_flags_kernel(ctx):
    c = complex_of(ctx, [ElementaryBlock.make(ctx, 1, 0, weights=(F(0),))])
    ker, coker, certified = truncated_cokernel(c, (ctx.zero, None), 24)
    assert ker == 1 and certified


def test_no_flat_sections_at_spectral_samples(ctx):
    # generic symbolic twist and the one finite coincidence w = 0: the
    # irregular block never supports a module kernel
    c = complex_of(ctx, [ElementaryBlock.make(ctx, 2, 1, lead=ctx.sym("a"), weights=(F(0),))])
    for w in (ctx.sym("w"), ctx.zero):
        ker, _, certified = truncated_cokernel(c, (w, None), 20)
        assert ker == 0 and certified


def test_monotone_certification(ctx):
    c = complex_of(ctx, [ElementaryBlock.make(ctx, 3, 2, lead=ctx.sym("a"), weights=(F(-1, 3),))])
    results = [truncated_cokernel(c, (ctx.sym("w"), None), n) for n in (12, 16, 24, 28)]
    assert all(r == (0, 5, True) for r in results)


def test_oracle_rank_matches_bookkeeping_suite(ctx):
    w = ctx.sym("w")
    a = ctx.sym("a")
    for p in range(1, 6):
        for m in range(0, 6):
            if p + m > 6 or (m and gcd(p, m) != 1) or (m == 0 and p > 1):
                continue
            if m == 0:
                b = ElementaryBlock.make(ctx, 1, 0, alpha=a, weights=(F(-1, 6),))
                expect = 1
            else:
                b = ElementaryBlock.make(ctx, p, m, lead=a, weights=(F(-2, 5),))
                expect = p + m
            g = HiggsGerm.from_blocks(ctx, [b])
            assert oracle_rank(g, w, 24) == expect


def test_model_shape(ctx):
    b = ElementaryBlock.make(ctx, 1, 0, alpha=ctx.sym("a"), weights=(F(-1, 4),))
    c = complex_of(ctx, [b])
    model = build_truncation_model(c, part_maps(c, ctx.sym("w")), 8)
    # the (N) x (N+1)-style rectangle: one extra codomain coordinate
    assert model.codomain_dim == model.domain_dim + 1
    assert truncated_cokernel(c, (ctx.sym("w"), None), 8)[0] == 0


def test_degree_crosscheck_randomized(ctx):
    rng = random.Random(21)
    w = ctx.sym("w")
    a = ctx.sym("a")
    for _ in range(10):
        blocks = []
        for _ in range(rng.randint(1, 2)):
            p, m = rng.choice([(1, 0), (2, 1), (1, 1), (3, 1), (1, 2)])
            wt = F(rng.randint(-7, 0), rng.randint(1, 8))
            if m == 0:
                blocks.append(
                    ElementaryBlock.make(ctx, 1, 0, alpha=a, weights=(wt,))
                )
            else:
                blocks.append(ElementaryBlock.make(ctx, p, m, lead=a, weights=(wt,)))
        pt = TorusPoint("T_dual", F(1, 3), 0, is_lift=True)
        d = AdmissibleHiggsData(
            ctx, [SingularPoint(pt, HiggsGerm.from_blocks(ctx, blocks, "finite"))]
        )
        assert degree_crosscheck(d, w)


def test_crosscheck_additivity(ctx):
    w = ctx.sym("w")
    a = ctx.sym("a")
    b1 = ElementaryBlock.make(ctx, 2, 1, lead=a, weights=(F(-1, 4),))
    b2 = ElementaryBlock.make(ctx, 1, 0, alpha=a, weights=(F(-1, 2),))
    pt = TorusPoint("T_dual", F(1, 3), 0, is_lift=True)
    pt2 = TorusPoint("T_dual", F(2, 3), 0, is_lift=True)
    d = AdmissibleHiggsData(
        ctx,
        [
            SingularPoint(pt, HiggsGerm.from_blocks(ctx, [b1], "finite")),
            SingularPoint(pt2, HiggsGerm.from_blocks(ctx, [b2], "finite")),
        ],
    )
    assert degree_crosscheck(d, w)


def test_rank_mod_p_against_rref_on_suite_models(ctx):
    """On every suite-shape model at N = 8..12 the rank mod p never exceeds
    the rank by rref, and where it certifies full column rank so does rref."""
    w = ctx.sym("w")
    for shape in SUITE_SHAPES:
        c = suite_complex(ctx, shape)
        maps = part_maps(c, w)
        for n in range(8, 13):
            model = build_truncation_model(c, maps, n)
            mod_p = linalg.rank_mod_p(model.matrix, ctx.residues)
            exact = len(linalg.rref(model.matrix)[1])
            assert mod_p is not None and mod_p <= exact, (shape, n)
            assert mod_p == model.domain_dim and exact == mod_p, (shape, n)


def test_uncertified_module_kernel_is_reported(ctx, monkeypatch):
    monkeypatch.setattr(oracle, "kernel_basis", lambda M: ([[ctx.one]], False))
    germ = HiggsGerm.from_blocks(
        ctx, [ElementaryBlock.make(ctx, 2, 1, lead=ctx.sym("a"), weights=(F(0),))])
    c = build_local_complex(germ)
    assert truncated_cokernel(c, (ctx.sym("w"), None), 24) == (len(c.parts), None, False)
    with pytest.raises(PrecisionExhausted):
        oracle_rank(germ, ctx.sym("w"), 24)


def test_truncated_cokernel_realizes_once_and_never_eliminates(ctx, monkeypatch):
    """Count-only guard: on each suite shape at N = 24, one realization per
    part, and every rank is decided mod p, with no call of rref."""
    calls = {"rref": 0, "realize": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(oracle, "rref", counting("rref", oracle.rref))
    monkeypatch.setattr(oracle, "realize", counting("realize", oracle.realize))
    w = ctx.sym("w")
    for shape in SUITE_SHAPES:
        c = suite_complex(ctx, shape)
        calls.update(rref=0, realize=0)
        assert truncated_cokernel(c, (w, None), 24)[0::2] == (0, True)
        assert calls == {"rref": 0, "realize": len(c.parts)}, shape


def test_one_series_elimination_per_part_and_no_back_substitution(ctx, monkeypatch):
    """Count-only guard: on each suite shape at N = 24, truncated_cokernel
    eliminates once per part over the series field (the module kernel) and
    degree_crosscheck twice (the Smith form and the determinant); neither
    back-substitutes."""
    calls = {"_eliminate": 0, "_back_substitute": 0}

    def counting(name):
        fn = getattr(lmatrix, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(lmatrix, name, counting(name))
    w = ctx.sym("w")
    pt = TorusPoint("T_dual", F(1, 3), 0, is_lift=True)
    for shape in SUITE_SHAPES:
        germ = suite_germ(ctx, shape)
        parts = len(build_local_complex(germ).parts)
        calls.update(_eliminate=0, _back_substitute=0)
        assert truncated_cokernel(build_local_complex(germ), (w, None), 24)[0::2] == (0, True)
        assert calls == {"_eliminate": parts, "_back_substitute": 0}, shape
        calls.update(_eliminate=0)
        assert degree_crosscheck(AdmissibleHiggsData(ctx, [SingularPoint(pt, germ)]), w, 24)
        assert calls == {"_eliminate": 2 * parts, "_back_substitute": 0}, shape
