"""Higgs germ classification: slope certificates, decompositions, goodness."""

import functools
import random
from fractions import Fraction as F
from math import gcd

import pytest

from nahmkit import higgs, linalg
from nahmkit.errors import FieldExtensionRequired, InputError, NotAdmissible
from nahmkit.field import FieldContext
from nahmkit.filtered import FilteredLattice
from nahmkit.higgs import (
    ElementaryBlock,
    HiggsGerm,
    admissibility_check,
    endo_germ_wrap,
    _scalar_nth_root,
    goodness_decomposition,
    hensel_split,
    realize,
    slope_check,
    slope_decomposition,
    type_decomposition,
)
from nahmkit.lmatrix import LaurentMatrix, charpoly, newton_polygon, solve
from nahmkit.series import TruncatedLaurent as TL


@pytest.fixture(scope="module")
def ctx():
    return FieldContext(M=12, symbols=("a", "b"))


def mono(ctx, c, e):
    return TL.monomial(ctx, c, e)


def _newton_slopes(germ):
    """Newton-polygon slopes of det(T - theta-matrix) with multiplicities."""
    return newton_polygon(charpoly(realize(germ).theta))


# every block shape (p, m) with p + m <= 6
SHAPES = [(p, m) for p in range(1, 7) for m in range(0, 7 - p) if m == 0 or gcd(p, m) == 1]


def block21(ctx, weight=F(0)):
    return ElementaryBlock.make(ctx, 2, 1, lead=ctx.sym("a"), weights=(weight,))


def test_block_validation(ctx):
    with pytest.raises(InputError):
        ElementaryBlock.make(ctx, 2, 4, lead=ctx.sym("a"))  # gcd != 1
    with pytest.raises(InputError):
        ElementaryBlock.make(ctx, 2, 1, lead=ctx.zero)  # vanishing lead
    with pytest.raises(InputError):
        ElementaryBlock.make(ctx, 1, 0, lead=ctx.sym("a"))  # tame with lead
    b = ElementaryBlock.make(ctx, 2, 1, lead=ctx.sym("a"), weights=(F(3, 4),), degrees=(2,))
    assert b.weights == (F(-1, 4),) and b.degrees == (1,)  # normalized with shift


def test_realized_theta_matches_pushforward_model(ctx):
    g = realize(HiggsGerm.from_blocks(ctx, [block21(ctx)]))
    a = ctx.sym("a")
    half = ctx.rational(F(-1, 2))
    # (dz/z) * (-a/2) * [[0, 1], [z^{-1}, 0]] in the sorted compatible frame
    assert g.theta.entries[0][1].coeffs[0] == half * a
    assert g.theta.entries[1][0].val == -1
    assert g.theta.entries[1][0].coeffs[0] == half * a
    assert g.lattice.weights == (F(0), F(-1, 2))


def test_slope_check_examples(ctx):
    g = HiggsGerm.from_blocks(ctx, [block21(ctx)])
    ok, cert = slope_check(g, 2, 1)
    assert ok and cert.residues
    assert not slope_check(g, 1, 0)[0]
    zero_theta = HiggsGerm.from_matrix(
        FilteredLattice(ctx, [F(0)]), LaurentMatrix.zero(ctx, 1, 1)
    )
    assert slope_check(zero_theta, 1, 0)[0]


def test_newton_slope_agreement(ctx):
    g = HiggsGerm.from_blocks(ctx, [block21(ctx)])
    assert _newton_slopes(g) == [(F(1, 2), 2)]
    dec = slope_decomposition(realize(g))
    assert [(gg.rank, pm) for gg, pm in dec] == [(2, (2, 1))]


def test_slope_decomposition_already_split(ctx):
    b10 = ElementaryBlock.make(ctx, 1, 0, alpha=ctx.sym("b"), weights=(F(0),))
    g = HiggsGerm.from_blocks(ctx, [b10, block21(ctx)])
    dec = slope_decomposition(g)
    assert [(gg.rank, pm) for gg, pm in dec] == [(1, (1, 0)), (2, (2, 1))]
    # and the matrix germ splits to the same shape
    decm = slope_decomposition(realize(g))
    assert sorted((gg.rank, pm) for gg, pm in decm) == [(1, (1, 0)), (2, (2, 1))]


def test_slope_decomposition_hensel_two_residues(ctx):
    # leading matrix with two distinct nonzero eigenvalues at slope 1
    a, b = ctx.sym("a"), ctx.sym("b")
    A = LaurentMatrix(
        ctx,
        [[mono(ctx, a, -1), mono(ctx, ctx.one, -1)], [TL.zero(ctx), mono(ctx, b, -1)]],
    )
    g = HiggsGerm.from_matrix(FilteredLattice(ctx, [F(0), F(0)]), A)
    dec = slope_decomposition(g)
    assert [(gg.rank, pm) for gg, pm in dec] == [(2, (1, 1))]
    td = type_decomposition(dec[0][0])
    labels = sorted(str(lab[1]) for _, (_, _, lab) in td)
    assert labels == ["-1*a", "-1*b"]  # leads of d(a)-parts are -eigenvalues


def test_type_decomposition_examples(ctx):
    a, b = ctx.sym("a"), ctx.sym("b")
    # single orbit for the degree-2 push-forward
    td = type_decomposition(realize(HiggsGerm.from_blocks(ctx, [block21(ctx)])))
    assert len(td) == 1
    (gg, (p, m, label)) = td[0]
    assert (p, m) == (2, 1) and label == ("irr", a * a)
    # two tame residues split
    b1 = ElementaryBlock.make(ctx, 1, 0, alpha=a, weights=(F(0),))
    b2 = ElementaryBlock.make(ctx, 1, 0, alpha=b, weights=(F(0),))
    td2 = type_decomposition(realize(HiggsGerm.from_blocks(ctx, [b1, b2])))
    assert sorted(str(lab[1]) for _, (_, _, lab) in td2) == ["a", "b"]
    # nilpotent tame residue: single (1,0,0) block
    b3 = ElementaryBlock.make(
        ctx, 1, 0, weights=(F(0), F(0)), nilp=((ctx.zero, ctx.one), (ctx.zero, ctx.zero))
    )
    td3 = type_decomposition(realize(HiggsGerm.from_blocks(ctx, [b3])))
    assert len(td3) == 1 and td3[0][1][2] == ("tame", ctx.zero)


def test_goodness_examples(ctx):
    a, b = ctx.sym("a"), ctx.sym("b")
    # already-decomposed direct sum of two distinct irregular parts
    g = HiggsGerm.from_blocks(
        ctx,
        [
            ElementaryBlock.make(ctx, 1, 1, lead=a, weights=(F(0),)),
            ElementaryBlock.make(ctx, 1, 1, lead=b, weights=(F(-1, 2),)),
        ],
    )
    res = goodness_decomposition(g)
    assert res.good and len(res.groups) == 2
    # the degree-2 push-forward is good with covering degree 2
    res2 = goodness_decomposition(realize(HiggsGerm.from_blocks(ctx, [block21(ctx)])))
    assert res2.good and res2.groups[0]["p"] == 2
    assert res2.groups[0]["blocks"][0].orbit_key() == block21(ctx).orbit_key()
    # sub-leading irregular structure: admissible but goodness undecided
    tailed = ElementaryBlock.make(ctx, 1, 2, lead=a, tail=(b,), weights=(F(0),))
    gm = realize(HiggsGerm.from_blocks(ctx, [tailed]))
    assert admissibility_check(gm)
    res3 = goodness_decomposition(gm)
    assert not res3.good and "resists" in res3.failure


def test_canonical_realization_roundtrip(ctx):
    a = ctx.sym("a")
    cases = [
        ElementaryBlock.make(ctx, 2, 1, lead=a, weights=(F(-1, 4),)),
        ElementaryBlock.make(ctx, 3, 1, lead=a, weights=(F(-2, 3),)),
        ElementaryBlock.make(ctx, 3, 2, lead=ctx.rational(5), weights=(F(0),)),
        ElementaryBlock.make(ctx, 1, 1, lead=a, weights=(F(-1, 2),)),
        ElementaryBlock.make(ctx, 1, 0, alpha=a, weights=(F(-1, 6),)),
    ]
    for blk in cases:
        res = goodness_decomposition(realize(HiggsGerm.from_blocks(ctx, [blk])))
        assert res.good and len(res.groups) == 1
        rec = res.groups[0]["blocks"][0]
        assert rec.orbit_key() == blk.orbit_key()
        assert rec.weights == blk.weights


def test_radicand_realization_is_equivalent(ctx):
    # the radicand presentation realizes the same orbit as the explicit lead
    a = ctx.sym("a")
    explicit = ElementaryBlock.make(ctx, 3, 2, lead=a, weights=(F(0),))
    rad_only = ElementaryBlock.make(ctx, 3, 2, radicand=a ** 3, weights=(F(0),))
    cp1 = charpoly(realize(HiggsGerm.from_blocks(ctx, [explicit])).theta)
    cp2 = charpoly(realize(HiggsGerm.from_blocks(ctx, [rad_only])).theta)
    for c1, c2 in zip(cp1, cp2):
        assert c1.agrees_with(c2)


def test_admissibility_bounds(ctx):
    g21 = HiggsGerm.from_blocks(ctx, [block21(ctx)])
    assert admissibility_check(g21, 1, strict=True)  # 1/2 < 1
    g11 = HiggsGerm.from_blocks(
        ctx, [ElementaryBlock.make(ctx, 1, 1, lead=ctx.sym("a"), weights=(F(0),))]
    )
    assert not admissibility_check(g11, 1, strict=True)
    theta0 = HiggsGerm.from_blocks(ctx, [ElementaryBlock.make(ctx, 1, 0, weights=(F(0),))])
    assert admissibility_check(theta0, 0)


def test_strict_subobject_stays_admissible(ctx):
    # directions of a direct sum: each summand passes the checks the sum does
    a, b = ctx.sym("a"), ctx.sym("b")
    blocks = [
        ElementaryBlock.make(ctx, 2, 1, lead=a, weights=(F(-1, 4),)),
        ElementaryBlock.make(ctx, 1, 0, alpha=b, weights=(F(0),)),
    ]
    total = HiggsGerm.from_blocks(ctx, blocks)
    assert admissibility_check(total, 1, strict=True)
    assert goodness_decomposition(total).good
    for blk in blocks:
        sub = HiggsGerm.from_blocks(ctx, [blk])
        assert admissibility_check(sub, 1, strict=True)
        assert goodness_decomposition(sub).good


def test_endo_germ_wrap(ctx):
    a = ctx.sym("a")
    one = TL.from_scalar(ctx.one)
    # g = alpha id, alpha != 0: slope 1, type (1, 1)
    g = endo_germ_wrap(
        FilteredLattice(ctx, [F(0)]), LaurentMatrix(ctx, [[TL.from_scalar(a)]])
    )
    assert g.coord == "infinity"
    assert _newton_slopes(g) == [(F(1), 1)]
    # eigenvalue ~ tau^(1/2): slope (2,1)
    g2 = endo_germ_wrap(
        FilteredLattice(ctx, [F(0), F(-1, 2)]),
        LaurentMatrix(ctx, [[TL.zero(ctx), TL.monomial(ctx, a, 1)], [one, TL.zero(ctx)]]),
    )
    assert _newton_slopes(g2) == [(F(1, 2), 2)]
    # nilpotent constant: slope 0, type (1, 0, 0)
    g3 = endo_germ_wrap(
        FilteredLattice(ctx, [F(0), F(0)]),
        LaurentMatrix(ctx, [[TL.zero(ctx), one], [TL.zero(ctx), TL.zero(ctx)]]),
    )
    assert _newton_slopes(g3) == [(F(0), 2)]
    # irregular wrap must have slopes m/p <= 1 (boundedness of g)
    assert all(mu <= 1 for mu, _ in _newton_slopes(g2))
    with pytest.raises(InputError):
        endo_germ_wrap(
            FilteredLattice(ctx, [F(0)]), LaurentMatrix(ctx, [[mono(ctx, a, -1)]])
        )


def test_goodness_splits_same_slope_orbits(ctx):
    a, b = ctx.sym("a"), ctx.sym("b")
    g = realize(HiggsGerm.from_blocks(ctx, [
        ElementaryBlock.make(ctx, 2, 1, lead=a, weights=(F(0),)),
        ElementaryBlock.make(ctx, 2, 1, lead=b, weights=(F(-1, 2),)),
    ]))
    res = goodness_decomposition(g)
    assert res.good and len(res.groups) == 2
    rads = sorted(str(grp["blocks"][0].radicand) for grp in res.groups)
    assert rads == ["a^2", "b^2"]


@pytest.mark.parametrize("leads, slope_checks, charpolys", [
    # two slope parts: the germ, each part and each model
    ([(1, 1, "a"), (2, 1, "b")], 2, 1 + 2 + 2),
    # one slope part of two orbits: the germ, each orbit part and each model
    ([(2, 1, "a"), (2, 1, "b")], 1, 1 + 2 + 2),
])
def test_goodness_certifies_and_charpolys_each_part_once(ctx, monkeypatch, leads,
                                                         slope_checks, charpolys):
    """goodness_decomposition runs one slope_check per slope part and one
    charpoly per germ or part, plus one per recognized irregular model."""
    blocks = [ElementaryBlock.make(ctx, p, m, lead=ctx.sym(x), weights=(F(-j, 3),))
              for j, (p, m, x) in enumerate(leads)]
    g = realize(HiggsGerm.from_blocks(ctx, blocks))
    calls = {"slope_check": 0, "charpoly": 0}
    for name in calls:
        def counted(*args, _fn=getattr(higgs, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(higgs, name, counted)
    res = goodness_decomposition(g)
    monkeypatch.undo()
    want = sorted(b.table_key() for b in blocks)
    assert res.good and sorted(b.table_key() for b in res.all_blocks()) == want
    assert calls == {"slope_check": slope_checks, "charpoly": charpolys}


@pytest.mark.parametrize("p, m", [(p, m) for p, m in SHAPES if m or p == 1])
def test_canonical_decompositions_match_the_realized_route(ctx, p, m):
    """The canonical branches of slope_decomposition and type_decomposition
    give the labels, ranks and weights of the realized germ's, on every
    block shape with p + m <= 6 and weights 0, -1/2 and -1/3."""
    a = ctx.sym("a")
    for w in (F(0), F(-1, 2), F(-1, 3)):
        if m:
            b = ElementaryBlock.make(ctx, p, m, lead=a, weights=(w,))
        else:
            b = ElementaryBlock.make(ctx, 1, 0, alpha=a, weights=(w,))
        g = HiggsGerm.from_blocks(ctx, [b])
        for decompose in (slope_decomposition, type_decomposition):
            canonical, realized = (
                [(part.rank, part.weights(), label) for part, label in decompose(germ)]
                for germ in (g, realize(g))
            )
            assert canonical == realized, (decompose.__name__, w)


@pytest.mark.xfail(raises=FieldExtensionRequired, strict=True, reason=(
    "the orbit split gives scalar_poly_roots no candidate roots, and the "
    "cubic leading form in three symbols splits off none of its guesses"))
def test_goodness_of_three_tame_residues():
    ctx3 = FieldContext(M=12, symbols=("a", "b", "c"))
    blocks = [ElementaryBlock.make(ctx3, 1, 0, alpha=ctx3.sym(x), weights=(w,))
              for x, w in zip("abc", (F(0), F(-1, 2), F(-1, 3)))]
    res = goodness_decomposition(realize(HiggsGerm.from_blocks(ctx3, blocks)))
    want = sorted(b.table_key() for b in blocks)
    assert res.good and sorted(b.table_key() for b in res.all_blocks()) == want


def test_compatible_subframe_reduces_a_gauged_tame_germ(ctx, monkeypatch):
    """Two realized tame blocks with residues 1 and 2, weights (-1/2, -2/3)
    and (-2/3), gauged by g = 1 + E_20 + E_21 (1 on the diagonal, z^0 below
    it; k = 0 >= max(ceil(w_i - w_j), 0), so g preserves the filtration).
    g is constant, so z g' = 0 and the gauged field is g^-1 A g.  The
    kernel vectors of one charpoly factor then have dependent graded
    leads, and compatible_subframe's loop reduces them; goodness still
    recovers the two blocks."""
    blocks = [
        ElementaryBlock.make(ctx, 1, 0, alpha=ctx.rational(1), weights=(F(-1, 2), F(-2, 3))),
        ElementaryBlock.make(ctx, 1, 0, alpha=ctx.rational(2), weights=(F(-2, 3),)),
    ]
    g = realize(HiggsGerm.from_blocks(ctx, blocks))
    assert g.lattice.weights == (F(-1, 2), F(-2, 3), F(-2, 3))
    one, zero = TL.from_scalar(ctx.one), TL.zero(ctx)
    gauge = LaurentMatrix(ctx, [[one, zero, zero], [zero, one, zero], [one, one, one]])
    gauged = HiggsGerm.from_matrix(g.lattice, solve(gauge, g.theta * gauge))

    reducing = []
    real = higgs.compatible_subframe

    def recording(ctx_, weights, vecs):
        sub_weights, cols = real(ctx_, weights, vecs)
        spanning = [list(v) for v in vecs]
        reducing.append(any(list(c) not in spanning for c in cols))
        return sub_weights, cols

    monkeypatch.setattr(higgs, "compatible_subframe", recording)
    res = goodness_decomposition(gauged)
    assert reducing.count(True) >= 1, reducing
    assert res.good
    assert sorted(b.table_key() for b in res.all_blocks()) == sorted(b.table_key() for b in blocks)


@pytest.mark.parametrize("p, m", [(2, 3), (3, 2)])
def test_orbit_key_with_a_lead_and_a_tail(ctx, p, m):
    """Sending lead -> lead * zeta_p^-m and a_i -> a_i * zeta_p^-i (the
    tail is a_{m-1} ... a_1) is the Galois move of the type: the key stays.
    Changing a tail entry changes it."""
    a, b = ctx.sym("a"), ctx.sym("b")
    lead = a + ctx.rational(2)
    tail = tuple(b + ctx.rational(i) for i in range(m - 1, 0, -1))
    key = ElementaryBlock.make(ctx, p, m, lead=lead, tail=tail).orbit_key()
    moved = ElementaryBlock.make(
        ctx, p, m, lead=lead * ctx.zeta(p, -m),
        tail=tuple(t * ctx.zeta(p, -(m - 1 - idx)) for idx, t in enumerate(tail)),
    )
    assert moved.orbit_key() == key
    for idx in range(len(tail)):
        changed = list(tail)
        changed[idx] = changed[idx] + ctx.one
        other = ElementaryBlock.make(ctx, p, m, lead=lead, tail=tuple(changed))
        assert other.orbit_key() != key


def test_precision_refusal_on_truncated_germ(ctx):
    from nahmkit.errors import PrecisionExhausted

    g = realize(HiggsGerm.from_blocks(ctx, [block21(ctx)]))
    coarse = HiggsGerm.from_matrix(g.lattice, g.theta.truncate(2))
    with pytest.raises(PrecisionExhausted):
        slope_decomposition(coarse)


def test_nonlog_nilpotent_matrix_germ_is_not_admissible(ctx):
    # a nilpotent theta with a pole the lattice cannot absorb
    A = LaurentMatrix(
        ctx,
        [[TL.zero(ctx), mono(ctx, ctx.one, -1)], [TL.zero(ctx), TL.zero(ctx)]],
    )
    g = HiggsGerm.from_matrix(FilteredLattice(ctx, [F(0), F(-1, 2)]), A)
    with pytest.raises(NotAdmissible):
        slope_decomposition(g)
    assert not admissibility_check(g)


def test_decompositions_preserve_rank_and_delta(ctx):
    # slope/type splitting conserves rank and the weight contribution
    from nahmkit.filtered import degree_contribution

    a, b = ctx.sym("a"), ctx.sym("b")
    blocks = [
        ElementaryBlock.make(ctx, 2, 1, lead=a, weights=(F(-1, 4),)),
        ElementaryBlock.make(ctx, 1, 0, alpha=b, weights=(F(-1, 2),)),
        ElementaryBlock.make(ctx, 1, 1, lead=b, weights=(F(-2, 3),)),
    ]
    g = realize(HiggsGerm.from_blocks(ctx, blocks))
    total_rank = g.rank
    total_delta = degree_contribution(g.lattice)
    parts = slope_decomposition(g)
    assert sum(gg.rank for gg, _ in parts) == total_rank
    assert sum(degree_contribution(gg.lattice) for gg, _ in parts) == total_delta
    # newton polygon agreement on slopes and multiplicities
    np_slopes = {s: mult for s, mult in _newton_slopes(g)}
    for gg, (p, m) in parts:
        assert np_slopes[F(m, p)] == gg.rank


def test_field_extension_surface(ctx):
    # eigenvalues need sqrt(a) + cube structure outside the field
    a = ctx.sym("a")
    A = LaurentMatrix(
        ctx,
        [
            [TL.zero(ctx), mono(ctx, a, -1)],
            [mono(ctx, a + ctx.one, -1), TL.zero(ctx)],
        ],
    )
    g = HiggsGerm.from_matrix(FilteredLattice(ctx, [F(0), F(0)]), A)
    with pytest.raises(FieldExtensionRequired):
        type_decomposition(g)


def test_realizing_a_tailed_block_needs_a_lead_in_the_field(ctx):
    # radicand 2 with a tail: the lead would be a cube root of 2, which no
    # abelian extension of Q holds, so Q(zeta_12)(a, b) lacks it
    b = ElementaryBlock.make(ctx, 3, 2, radicand=ctx.rational(2), tail=(ctx.one,))
    with pytest.raises(FieldExtensionRequired, match="needs an explicit leading coefficient"):
        realize(HiggsGerm.from_blocks(ctx, [b]))


# -- the sparse Hensel lift --


def _linear_factors(ctx, roots):
    out = [ctx.one]
    for x in roots:
        out = linalg.poly_mul(ctx, out, [ctx.one, -x])
    return out


def _dense_scalar(ctx, rng):
    """A nonzero element of Q(zeta_12) with several coordinates."""
    while True:
        x = sum((ctx.rational(F(rng.randint(-3, 3), rng.randint(1, 2))) * ctx.zeta(12, k)
                 for k in range(4)), ctx.zero)
        if not x.is_zero():
            return x


def _lift_input(ctx, f0, g0, slices, prec, rng):
    """Monic coefficients with f0 * g0 at z^0, dense slices at the powers in
    `slices` and zeros elsewhere, known modulo z^prec."""
    base = linalg.poly_mul(ctx, f0, g0)
    return [TL.from_scalar(ctx.one)] + [
        TL(ctx, 0, [c] + [_dense_scalar(ctx, rng) if n in slices else ctx.zero
                          for n in range(1, prec)], prec=prec)
        for c in base[1:]
    ]


@pytest.mark.parametrize("seed, r1, r2", [(0, 1, 2), (1, 2, 2), (2, 2, 1), (3, 3, 1)])
def test_hensel_lift_is_the_factorization(seed, r1, r2):
    """F * G reproduces the input modulo z^prec, F and G reduce to f0 and g0
    mod z and stay monic of degrees r1 and r2; the lift is unique, so this
    checks it fully."""
    ctx = FieldContext(M=12, symbols=())
    rng = random.Random(seed)
    roots = rng.sample([ctx.zeta(12, k) for k in range(12)], r1 + r2)
    f0, g0 = _linear_factors(ctx, roots[:r1]), _linear_factors(ctx, roots[r1:])
    prec = 12
    # no slice at z^1, z^2: the residual vanishes there and not at z^3
    coeffs = _lift_input(ctx, f0, g0, {3, 4, 7}, prec, rng)
    Fs, Gs = hensel_split(ctx, coeffs, f0, g0, prec)
    assert (len(Fs), len(Gs)) == (r1 + 1, r2 + 1)
    for series, f in ((Fs, f0), (Gs, g0)):
        assert [c.coeff(0) for c in series] == f
        assert all(series[0].coeff(n).is_zero() for n in range(1, prec))
    for k in range(len(coeffs)):
        prod = sum((Fs[i] * Gs[k - i] for i in range(max(0, k - r2), min(k, r1) + 1)),
                   TL.zero(ctx))
        assert prod.prec >= prec and prod.agrees_with(coeffs[k], prec), k
    nonzero = [n for n in range(prec)
               if any(not c.coeff(n).is_zero() for c in Fs + Gs)]
    assert nonzero[:2] == [0, 3] and len(nonzero) > 3


def test_hensel_lift_with_one_nonzero_slice_is_linear(monkeypatch):
    """On the germ path F has only its z^0 slice: the lift makes O(prec)
    polynomial products, not one per pair of slices."""
    ctx = FieldContext(M=12, symbols=())
    rng = random.Random(5)
    f0 = _linear_factors(ctx, [ctx.one])
    g0 = _linear_factors(ctx, [ctx.zeta(12, 1), ctx.zeta(12, 5)])
    prec = 60
    g = [[_dense_scalar(ctx, rng) for _ in g0[1:]] for _ in range(2)]
    # f0 * (g0 + z^3 g3 + z^7 g7): the lift is F = f0
    coeffs = [TL.from_scalar(ctx.one)] + [
        TL(ctx, 0, [c] + [ctx.zero] * (prec - 1), prec=prec)
        for c in linalg.poly_mul(ctx, f0, g0)[1:]
    ]
    for n, gn in zip((3, 7), g):
        for i, c in enumerate(linalg.poly_mul(ctx, f0, [ctx.zero] + gn)[1:], start=1):
            coeffs[i] = coeffs[i] + TL.monomial(ctx, c, n)
    calls = [0]
    poly_mul = linalg.poly_mul

    def counted(*args):
        calls[0] += 1
        return poly_mul(*args)

    monkeypatch.setattr(linalg, "poly_mul", counted)
    Fs, Gs = hensel_split(ctx, coeffs, f0, g0, prec)
    monkeypatch.undo()
    assert all(c.coeff(n).is_zero() for c in Fs for n in range(1, prec))
    assert [Gs[i].coeff(3) for i in range(1, 3)] == g[0]
    assert calls[0] <= 2 * prec, calls[0]


def test_scalar_nth_root_is_exact():
    ctx = FieldContext(M=12, symbols=())
    big = 10 ** 20 + 7
    assert _scalar_nth_root(ctx.rational(big ** 3), 3) == ctx.rational(big)
    assert _scalar_nth_root(ctx.rational(F(-big ** 3, 8)), 3) == ctx.rational(F(-big, 2))
    assert _scalar_nth_root(ctx.rational(3 ** 2000), 5) == ctx.rational(3 ** 400)
    assert _scalar_nth_root(ctx.rational(3 ** 2000), 3) is None
    assert _scalar_nth_root(ctx.rational(3 ** 2000 + 1), 5) is None


def test_pardeg_is_the_sum_of_the_downstairs_weights(ctx):
    """The closed form sum(degrees) - (sum(weights) - k(p-1)/2) against the
    sum of the p*k downstairs weights (c - j)/p, on every block shape with
    p + m <= 6, one to three lines and seeded weights and degrees."""
    rng = random.Random(11)
    for p, m in SHAPES:
        for k in (1, 2, 3):
            weights = [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(k)]
            degrees = [rng.randint(-3, 3) for _ in range(k)]
            radicand = ctx.rational(rng.randint(1, 5)) if m else None
            b = ElementaryBlock.make(ctx, p, m, weights=weights, degrees=degrees,
                                     radicand=radicand)
            downstairs = [F(c - j, p) for c in b.weights for j in range(p)]
            want = sum(b.degrees) - sum(downstairs, F(0))
            got = b.pardeg()
            assert type(got) is F and got == want, (p, m, weights, degrees)


def test_block_germ_weights_are_the_realized_weights(ctx):
    """HiggsGerm.weights() reads a block germ's weights off its blocks; they
    are the realized lattice's, on every block shape with p + m <= 6 (one or
    two lines, seeded weights) and on a germ of several blocks."""
    rng = random.Random(13)
    blocks = []
    for p, m in SHAPES:
        for k in (1, 2):
            weights = [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(k)]
            radicand = ctx.rational(rng.randint(1, 5)) if m else None
            b = ElementaryBlock.make(ctx, p, m, weights=weights, radicand=radicand)
            g = HiggsGerm.from_blocks(ctx, [b])
            assert g.weights() == list(realize(g).lattice.weights), (p, m, weights)
            blocks.append(b)
    g = HiggsGerm.from_blocks(ctx, blocks[:6])
    assert g.weights() == list(realize(g).lattice.weights)


def _blocks_of_every_shape(ctx, rng):
    """Blocks of every shape with p + m <= 6, one to three lines with seeded
    weights (reduced into (-1, 0] or not), by a radicand or a lead with a
    tail where that is possible, and exceptional blocks with a nilpotent
    part."""
    for p, m in SHAPES:
        for k in (1, 2, 3):
            weights = [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(k)]
            if k == 2:
                weights = [F(-rng.randint(0, 5), 6) for _ in range(k)]
            if m == 0:
                yield ElementaryBlock.make(ctx, p, 0, alpha=ctx.rational(rng.randint(-2, 2)),
                                           weights=weights)
            elif rng.random() < 0.5:
                yield ElementaryBlock.make(ctx, p, m, weights=weights,
                                           radicand=ctx.rational(rng.randint(1, 5)))
            else:
                tail = [ctx.rational(rng.randint(-2, 2)) for _ in range(m - 1)]
                yield ElementaryBlock.make(ctx, p, m, weights=weights, tail=tail,
                                           lead=ctx.rational(rng.randint(1, 3)))
    for k in (2, 3):
        weights = [F(-rng.randint(0, 5), 6) for _ in range(k)]
        nilp = [[ctx.one if j == i + 1 else ctx.zero for j in range(k)] for i in range(k)]
        yield ElementaryBlock.make(ctx, 1, 0, weights=weights, nilp=nilp)


def test_one_block_realization_is_the_block_germ(ctx):
    """realize hands back realize_block's germ on a one-block germ.  The
    reference is the general route: sort the block's germ again by its
    weights and copy theta into a block diagonal of one block."""
    rng = random.Random(17)
    for b in _blocks_of_every_shape(ctx, rng):
        g = realize(HiggsGerm.from_blocks(ctx, [b]))
        lat, theta = higgs.realize_block(ctx, b)
        want_lat, want_theta = higgs._sorted_germ(
            ctx, list(lat.weights), LaurentMatrix.block_diagonal(ctx, [theta]))
        assert (g.lattice.level, g.lattice.weights) == (want_lat.level, want_lat.weights), b
        assert g.theta.entries == want_theta.entries, b


def test_realized_lattice_is_the_lattice_of_the_realization(ctx):
    """higgs.realized_lattice builds no theta; its weights are those of
    realize on every block shape with p + m <= 6, the nilpotent ones too."""
    rng = random.Random(19)
    count = 0
    for b in _blocks_of_every_shape(ctx, rng):
        lat = higgs.realized_lattice(ctx, b)
        assert lat.weights == realize(HiggsGerm.from_blocks(ctx, [b])).lattice.weights, b
        count += 1
    assert count == 3 * len(SHAPES) + 2


def _reference_orbit_groups(ctx, phi, p, m):
    """The orbit split as three branches (tame, p = 1, p >= 2), kept as the
    reference for higgs._orbit_groups_from_phi's one loop."""
    r = len(phi) - 1
    if (p, m) == (1, 0):
        return [
            (("tame", alpha), higgs._power_factor(ctx, [ctx.one, -alpha], mult))
            for alpha, mult in linalg.scalar_poly_roots(ctx, phi)
        ]
    if p == 1:
        out = []
        for beta, mult in linalg.scalar_poly_roots(ctx, phi):
            if beta.is_zero():
                raise NotAdmissible("pure-slope germ with vanishing residue")
            rad = beta * ctx.rational(F(-1, m))
            out.append((("irr", rad), higgs._power_factor(ctx, [ctx.one, -beta], mult)))
        return out
    if r % p:
        raise NotAdmissible("rank is not divisible by the covering degree")
    psi = []
    for i in range(r + 1):
        if i % p == 0:
            psi.append(phi[i])
        elif not phi[i].is_zero():
            raise NotAdmissible(
                "residue leading form is not Galois-homogeneous "
                "(germ not admissible over this covering)"
            )
    out = []
    for B, mult in linalg.scalar_poly_roots(ctx, psi):
        if B.is_zero():
            raise NotAdmissible("pure-slope germ with vanishing residue")
        rad = B * ctx.rational(F(-p, m)) ** p
        base = [ctx.one] + [ctx.zero] * (p - 1) + [-B]
        out.append((("irr", rad), higgs._power_factor(ctx, base, mult)))
    return out


def _in_s_power(ctx, psi, p):
    """phi(S) = psi(S^p), descending coefficients."""
    out = [psi[0]]
    for c in psi[1:]:
        out += [ctx.zero] * (p - 1) + [c]
    return out


def test_orbit_split_matches_the_three_branch_reference(ctx):
    a = ctx.sym("a")
    lin = lambda c: [ctx.one, -c]  # noqa: E731
    prod = lambda *fs: functools.reduce(lambda x, y: linalg.poly_mul(ctx, x, y), fs)  # noqa: E731
    two, three = ctx.rational(2), ctx.rational(3)
    cases = [
        # tame, with a repeated root
        (prod(lin(two), lin(two), lin(three)), 1, 0, 2),
        (prod(lin(a), lin(a)), 1, 0, 1),
        # irregular at p = 1
        (prod(lin(three), lin(three), lin(two)), 1, 1, 2),
        (prod(lin(a), lin(two)), 1, 2, 2),
        # in S^p at p = 2 and p = 3
        (_in_s_power(ctx, prod(lin(a), lin(three)), 2), 2, 1, 2),
        (_in_s_power(ctx, prod(lin(a), lin(a)), 2), 2, 3, 1),
        (_in_s_power(ctx, prod(lin(a), lin(two)), 3), 3, 1, 2),
        (_in_s_power(ctx, lin(a), 3), 3, 2, 1),
    ]
    for phi, p, m, n_groups in cases:
        want = _reference_orbit_groups(ctx, phi, p, m)
        assert len(want) == n_groups
        assert higgs._orbit_groups_from_phi(ctx, phi, p, m) == want, (p, m)
    # the refusals: a vanishing root, a rank the covering does not divide,
    # a leading form outside S^p
    refused = [
        (prod(lin(ctx.zero), lin(two)), 1, 1),
        (_in_s_power(ctx, prod(lin(ctx.zero), lin(a)), 2), 2, 1),
        (_in_s_power(ctx, prod(lin(ctx.zero), lin(a)), 3), 3, 2),
        (prod(lin(a), lin(a), lin(a)), 2, 1),
        (prod(lin(a), lin(two)), 2, 1),
    ]
    for phi, p, m in refused:
        with pytest.raises(NotAdmissible) as want:
            _reference_orbit_groups(ctx, phi, p, m)
        with pytest.raises(NotAdmissible) as got:
            higgs._orbit_groups_from_phi(ctx, phi, p, m)
        assert str(got.value) == str(want.value), (p, m)


def test_descend_series_precision_rule(ctx):
    """z -> w = z^3: an exact series descends exactly, one known mod z^5 is
    known mod w^ceil(5/3) = w^2, and a zero keeps its kind."""
    one, a, o = ctx.one, ctx.sym("a"), ctx.zero
    cases = [
        (TL(ctx, 3, (one, o, o, a)), TL(ctx, 1, (one, a))),
        (TL(ctx, 0, (one, o, o, a), prec=5), TL(ctx, 0, (one, a), prec=2)),
        (TL.zero(ctx), TL.zero(ctx)),
        (TL.zero(ctx, 5), TL.zero(ctx, 2)),
    ]
    for up, down in cases:
        assert higgs._descend_series(ctx, up, 3) == down, up
    with pytest.raises(NotAdmissible, match=r"^factor does not descend \(mixed exponents\)$"):
        higgs._descend_series(ctx, TL(ctx, 0, (one, one)), 3)
