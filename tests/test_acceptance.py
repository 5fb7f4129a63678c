"""Acceptance suite: the structural theorems, verified mechanically.

One test per criterion, each printing its own pass/fail line; tolerances
are exact equality throughout (the arithmetic is exact), with the stated
wall-clock budgets enforced.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines.
"""

import random
import time
from fractions import Fraction as F
from math import gcd

import pytest

from nahmkit.field import FieldContext
from nahmkit.filtered import (
    FilteredLattice,
    degree_contribution,
    descent,
    dual_filtered,
    grading,
    pullback_covering,
    pushforward_covering,
    tensor_filtered,
)
from nahmkit.higgs import ElementaryBlock, HiggsGerm, admissibility_check
from nahmkit.localnahm import (
    build_local_complex,
    transform_block_0_inf,
    transform_block_inf_0,
)
from nahmkit.oracle import degree_crosscheck, truncated_cokernel
from nahmkit.torus import EndoPair, TorusPoint, g_equiv, lattice_vector
from nahmkit.elliptic import (
    AdmissibleHiggsData,
    FilteredBundleData,
    SingularPoint,
    a0_check,
    a3_check,
    global_parabolic_degree,
    good_check,
)
from nahmkit.transform import nahm_forward, roundtrip_report


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}{(' -- ' + detail) if detail else ''}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def ctx():
    return FieldContext(
        M=12, symbols=("x1", "x2", "w", "s1", "s2", "s3", "nu1", "nu2")
    )


def _random_weights(rng, max_rank=4, max_den=6):
    r = rng.randint(1, max_rank)
    return [F(rng.randint(-3 * max_den, 3 * max_den), rng.randint(1, max_den)) for _ in range(r)]


# 1 ------------------------------------------------------------------


def test_criterion_1_filtered_calculus(ctx):
    rng = random.Random(101)
    t0 = time.time()
    n = 0
    for _ in range(500):
        ws = _random_weights(rng)
        lat = FilteredLattice(ctx, ws, level=0)
        # dual involution, on the nose at the reflected level
        assert dual_filtered(dual_filtered(lat)).relevel(0) == lat
        # covering roundtrip
        p = rng.randint(1, 6)
        assert descent(pushforward_covering(pullback_covering(lat, p), p), p) == lat
        # tensor weight-multiset laws
        other = FilteredLattice(ctx, _random_weights(rng, max_rank=2), level=0)
        ab = tensor_filtered(lat, other)
        ba = tensor_filtered(other, lat)
        assert sorted(ab.weights) == sorted(ba.weights)
        direct = sorted(
            a + b + (1 if a + b <= -1 else 0)
            for a in lat.weights for b in other.weights
        )
        assert sorted(ab.relevel(0).weights) == direct
        n += 1
    dt = time.time() - t0
    _report("1 filtered calculus (500 random lattices)", n == 500 and dt < 30,
            f"{n} inputs in {dt:.1f}s")


# 2 ------------------------------------------------------------------


def test_criterion_2_frame_degree_formulas(ctx):
    mismatches = 0
    checked = 0
    for p in range(1, 5):
        for den in range(1, 9):
            for num in range(-den + 1, 1):
                c = F(num, den)
                lat = FilteredLattice(ctx, [c], level=0)
                up = pullback_covering(lat, p)
                n_i = max(n for n in range(-4 * p, 4 * p) if n + p * c <= 0)
                if up.weights[0] != n_i + p * c:
                    mismatches += 1
                down = pushforward_covering(lat, p)
                want = sorted((F(c - j, 1) / p for j in range(p)), reverse=True)
                if list(down.weights) != want:
                    mismatches += 1
                checked += 1
    _report("2 frame-degree formulas (p<=4, den<=8 exhaustive)", mismatches == 0,
            f"{checked} cases, {mismatches} mismatches")


# 3 ------------------------------------------------------------------


def test_criterion_3_parabolic_degree(ctx):
    rng = random.Random(103)
    for _ in range(200):
        # a decomposed input: summands at their own levels with base degrees
        parts = []
        for _ in range(rng.randint(1, 3)):
            ws = _random_weights(rng, max_rank=3)
            level = F(rng.randint(-2, 2))
            c1 = rng.randint(-3, 3)
            parts.append((FilteredLattice(ctx, ws, level=level), c1))
        # decomposition formula: sum of c1 minus the delta contributions
        route_a = sum(c1 for _, c1 in parts) - sum(
            degree_contribution(lat) for lat, _ in parts
        )
        # direct jump-sum at a common level: renormalizing a summand by an
        # integer shift moves its first Chern number with it
        total_ws = []
        route_b = 0
        for lat, c1 in parts:
            lat0 = lat.relevel(0)
            shift_total = degree_contribution(lat) - degree_contribution(lat0)
            route_b += c1 - int(shift_total)
            total_ws.extend(lat0.weights)
        big = FilteredLattice(ctx, total_ws, level=0)
        route_b -= degree_contribution(big)
        assert route_a == route_b
        # dual negation, exact
        for lat, _ in parts:
            assert degree_contribution(dual_filtered(lat)) == -degree_contribution(lat)
    _report("3 parabolic degree (200 random decomposed inputs)", True,
            "decomposition = jump sum; delta(dual) = -delta")


# 4 ------------------------------------------------------------------


def test_criterion_4_local_nahm(ctx):
    alpha = ctx.sym("x1")
    w = ctx.sym("w")
    cases = [(p, m) for p in range(1, 6) for m in range(1, 6)
             if gcd(p, m) == 1 and p + m <= 6]
    worst = 0.0
    for p, m in cases:
        for weight in (F(0), F(-1, 2), F(-2, 3), F(-5, 6)):
            t0 = time.time()
            b = ElementaryBlock.make(ctx, p, m, lead=alpha, weights=(weight,))
            out = transform_block_0_inf(b)
            assert (out.p, out.m) == (p + m, m)
            assert out.slope == F(m, p + m) and out.slope < 1
            assert transform_block_inf_0(out).table_key() == b.table_key()
            assert out.pardeg() == b.pardeg()
            germ = HiggsGerm.from_blocks(ctx, [b])
            complex_ = build_local_complex(germ)
            ker, coker, certified = truncated_cokernel(complex_, (w, None), 24)
            assert certified and ker == 0 and coker == p + m == complex_.index
            dt = time.time() - t0
            worst = max(worst, dt)
            assert dt < 5.0, f"({p},{m}) took {dt:.2f}s"
    # tame blocks roundtrip too (the excluded part is only (1,0,0))
    bt = ElementaryBlock.make(ctx, 1, 0, alpha=alpha, weights=(F(-1, 3),))
    assert transform_block_inf_0(transform_block_0_inf(bt)).table_key() == bt.table_key()
    _report("4 local transforms (p+m<=6, symbolic lead, oracle N=24)", True,
            f"{len(cases) * 4} cases, worst {worst:.2f}s")


# 5 ------------------------------------------------------------------


def _suite_inputs(ctx, count=50):
    rng = random.Random(105)
    alpha, beta = ctx.sym("x1"), ctx.sym("x2")
    shapes = [(1, 0), (1, 1), (2, 1), (1, 2), (3, 1), (3, 2), (2, 3), (1, 3),
              (4, 1), (1, 4), (5, 1)]
    out = []
    for i in range(count):
        npts = rng.randint(1, 3)
        points = []
        positions = [
            TorusPoint("T_dual", 0, 0, sym={"s%d" % (k + 1): 1}, is_lift=True)
            for k in range(npts)
        ]
        for k in range(npts):
            blocks = []
            for _ in range(rng.randint(1, 2)):
                p, m = rng.choice(shapes)
                weight = F(rng.randint(-11, 0), rng.randint(1, 6))
                degree = rng.randint(-1, 2)
                if m == 0:
                    lead = rng.choice([alpha, beta, ctx.rational(rng.randint(1, 4))])
                    if rng.random() < 0.3:
                        blocks.append(
                            ElementaryBlock.make(
                                ctx, 1, 0, alpha=lead,
                                weights=(weight, weight),
                                degrees=(degree, degree - 1),
                                nilp=((ctx.zero, ctx.one), (ctx.zero, ctx.zero)),
                            )
                        )
                    else:
                        blocks.append(
                            ElementaryBlock.make(
                                ctx, 1, 0, alpha=lead, weights=(weight,),
                                degrees=(degree,),
                            )
                        )
                else:
                    blocks.append(
                        ElementaryBlock.make(
                            ctx, p, m, lead=rng.choice([alpha, beta]),
                            weights=(weight,), degrees=(degree,),
                        )
                    )
            points.append(
                SingularPoint(positions[k], HiggsGerm.from_blocks(ctx, blocks, "finite"))
            )
        out.append(AdmissibleHiggsData(ctx, points))
    return out


def test_criterion_5_global_transform(ctx):
    suite = _suite_inputs(ctx, 50)
    n_round = 0
    for data in suite:
        deg_in = global_parabolic_degree(data)
        fwd, rep = nahm_forward(data)
        assert rep.degree_preserved
        assert global_parabolic_degree(fwd) == deg_in
        # every forward-output germ respects the strict slope bound
        for sp in fwd.points:
            assert admissibility_check(sp.germ, 1, strict=True)
        rt = roundtrip_report(data)
        assert rt.roundtrip == "pass"
        assert good_check(data).ok  # canonical inputs are good ...
        assert rt.goodness_preserved  # ... and goodness survives the trip
        n_round += 1
    _report("5 global transform (degree preserved + mutually inverse + goodness)",
            n_round == 50, f"{n_round} composed inputs")


# 6 ------------------------------------------------------------------


def test_criterion_6_condition_detectors(ctx):
    # the rank-1 line-bundle datum fails the section vanishing at exactly
    # one twist class
    P = TorusPoint("T_dual", F(1, 3), F(2, 5), is_lift=True)
    lb = FilteredBundleData(
        ctx,
        [SingularPoint(P, HiggsGerm.from_blocks(
            ctx, [ElementaryBlock.make(ctx, 1, 0, weights=(F(-1, 4),))], "infinity"))],
    )
    rep3 = a3_check(lb)
    ok_a3 = (not rep3.ok) and len(rep3.failing) == 1 and rep3.failing[0][1] == (-P).reduce()
    # the trivial-Higgs datum fails concentration at exactly (w, L) = (0, 0)
    triv = AdmissibleHiggsData(
        ctx,
        [SingularPoint(TorusPoint("T_dual", 0, 0, is_lift=True),
                       HiggsGerm.from_blocks(
                           ctx, [ElementaryBlock.make(ctx, 1, 0, weights=(F(0),))],
                           "finite"))],
    )
    rep0 = a0_check(triv)
    ok_a0 = (
        not rep0.ok
        and len(rep0.failing) == 1
        and rep0.failing[0][0].is_zero()
        and rep0.failing[0][1].is_zero_class()
    )
    # every generic suite input passes both detectors
    ok_generic = True
    for data in _suite_inputs(ctx, 20):
        if not a0_check(data).ok:
            ok_generic = False
        fwd, _ = nahm_forward(data)
        if not a3_check(fwd).ok:
            ok_generic = False
    _report("6 condition detectors (A3 single twist / A0 single pair / generic pass)",
            ok_a3 and ok_a0 and ok_generic)


# 7 ------------------------------------------------------------------


def test_criterion_7_oracle_equivalence(ctx):
    w = ctx.sym("w")
    agree = total = 0
    for data in _suite_inputs(ctx, 25):
        for sp in data.points:
            complex_ = build_local_complex(sp.germ)
            book = complex_.index
            ker, coker, certified = truncated_cokernel(complex_, (w, None), 24)
            total += 1
            if certified and ker == 0 and coker == book:
                agree += 1
        assert degree_crosscheck(data, w)
    _report("7 oracle equivalence (bookkeeping = truncated cokernel)",
            agree == total, f"{agree}/{total} points")


# 8 ------------------------------------------------------------------


def test_criterion_8_endomorphism_equivalence(ctx):
    rng = random.Random(108)
    alpha, beta = ctx.sym("x1"), ctx.sym("x2")
    pool = [alpha, beta, ctx.zero, ctx.rational(2), alpha + ctx.rational(1)]
    n_ok = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        diag = [rng.choice(pool) for _ in range(n)]
        f = [[diag[i] if i == j else
              (ctx.rational(rng.randint(0, 1)) if j > i else ctx.zero)
              for j in range(n)] for i in range(n)]
        vf = EndoPair(ctx, f)
        nu = lattice_vector(ctx, rng.randint(-5, 5), rng.randint(-5, 5))
        s1, b1 = g_equiv(vf)
        s2, b2 = g_equiv(vf.shift(nu))
        # the spectra agree as sets of classes, with matching block ranks
        m1 = {p.class_key(): b.dim for p, b in zip(s1, b1)}
        m2 = {p.class_key(): b.dim for p, b in zip(s2, b2)}
        if m1 == m2 and sum(b.dim for b in b1) == n:
            n_ok += 1
    _report("8 endomorphism-model equivalence (100 random shifts)", n_ok == 100,
            f"{n_ok}/100")
