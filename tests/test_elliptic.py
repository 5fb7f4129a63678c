"""Global data: degree, stability, vanishing-condition detectors."""

import random
from fractions import Fraction as F

import pytest

from nahmkit import elliptic
from nahmkit.errors import InputError
from nahmkit.field import FieldContext
from nahmkit.higgs import ElementaryBlock, HiggsGerm, realize
from nahmkit.torus import TorusPoint
from nahmkit.elliptic import (
    AdmissibleHiggsData,
    FilteredBundleData,
    SingularPoint,
    a0_check,
    a1a2_check,
    a3_check,
    dual_data,
    global_parabolic_degree,
    good_check,
    stability_check,
)


@pytest.fixture(scope="module")
def ctx():
    return FieldContext(M=12, symbols=("a", "b", "s1", "s2", "nu1", "nu2"))


def hpoint(ctx, blocks, q=(0, 0), sym=None, coord="finite"):
    pt = TorusPoint("T_dual", q[0], q[1], sym=sym or {}, is_lift=True)
    return SingularPoint(pt, HiggsGerm.from_blocks(ctx, blocks, coord))


def tame(ctx, alpha=None, weight=F(-1, 4), degree=0):
    alpha = ctx.sym("a") if alpha is None else alpha
    return ElementaryBlock.make(ctx, 1, 0, alpha=alpha, weights=(weight,), degrees=(degree,))


def test_divisor_reduced(ctx):
    p1 = hpoint(ctx, [tame(ctx)], q=(F(1, 2), 0))
    p2 = hpoint(ctx, [tame(ctx)], q=(F(3, 2), 1))  # same class mod lattice
    with pytest.raises(InputError):
        AdmissibleHiggsData(ctx, [p1, p2])


def test_data_classes_refuse_a_germ_of_the_other_side(ctx):
    with pytest.raises(InputError, match="higgs germs must be presented at coord='finite'"):
        AdmissibleHiggsData(ctx, [hpoint(ctx, [tame(ctx)], coord="infinity")])
    with pytest.raises(InputError, match="bundle germs must be presented at coord='infinity'"):
        FilteredBundleData(ctx, [hpoint(ctx, [tame(ctx)])])


def test_blocks_of_a_matrix_germ_are_refused(ctx):
    germ = realize(HiggsGerm.from_blocks(ctx, [tame(ctx)]))
    sp = SingularPoint(TorusPoint("T_dual", is_lift=True), germ)
    with pytest.raises(InputError, match="canonical germ required"):
        sp.blocks()


def test_parabolic_degree_examples(ctx):
    d0 = AdmissibleHiggsData(ctx, [hpoint(ctx, [tame(ctx, weight=F(0))])])
    assert global_parabolic_degree(d0) == 0
    a = F(-1, 3)
    d1 = AdmissibleHiggsData(ctx, [hpoint(ctx, [tame(ctx, weight=a)])])
    assert global_parabolic_degree(d1) == -a
    d2 = AdmissibleHiggsData(
        ctx, [hpoint(ctx, [tame(ctx, weight=F(0)), tame(ctx, weight=a)])]
    )
    assert global_parabolic_degree(d2) == -a  # additivity


def test_degree_dual_negation(ctx):
    d = AdmissibleHiggsData(
        ctx,
        [
            hpoint(ctx, [ElementaryBlock.make(ctx, 2, 1, lead=ctx.sym("a"),
                                              weights=(F(-1, 3),), degrees=(1,))],
                   q=(F(1, 2), 0)),
            hpoint(ctx, [tame(ctx, weight=F(-5, 6), degree=-1)], sym={"s1": 1}),
        ],
    )
    dd = dual_data(d)
    assert global_parabolic_degree(dd) == -global_parabolic_degree(d)
    assert dual_data(dd).table_keys() == d.table_keys()


def test_stability_examples(ctx):
    a = ctx.sym("a")
    uns = AdmissibleHiggsData(
        ctx,
        [hpoint(ctx, [ElementaryBlock.make(ctx, 1, 0, alpha=a,
                                           weights=(F(-1, 4), F(-3, 4)))])],
    )
    assert stability_check(uns).verdict == "unstable"
    poly = AdmissibleHiggsData(
        ctx,
        [hpoint(ctx, [ElementaryBlock.make(ctx, 1, 0, alpha=a,
                                           weights=(F(-1, 4), F(-1, 4)))])],
    )
    assert stability_check(poly).verdict == "polystable"
    rank1 = AdmissibleHiggsData(ctx, [hpoint(ctx, [tame(ctx)])])
    assert stability_check(rank1).verdict == "stable"


def test_stability_explicit_candidates(ctx):
    a = ctx.sym("a")
    parent = AdmissibleHiggsData(
        ctx,
        [hpoint(ctx, [ElementaryBlock.make(ctx, 1, 0, alpha=a,
                                           weights=(F(-1, 4), F(-3, 4)))])],
    )
    sub = AdmissibleHiggsData(
        ctx, [hpoint(ctx, [tame(ctx, alpha=a, weight=F(-3, 4))])]
    )
    rep = stability_check(parent, candidates=[sub])
    assert rep.verdict == "unstable"
    alien = AdmissibleHiggsData(
        ctx, [hpoint(ctx, [tame(ctx, alpha=a, weight=F(-1, 6))])]
    )
    with pytest.raises(InputError):
        stability_check(parent, candidates=[alien])


def test_a0_trivial_higgs_fails_at_origin(ctx):
    triv = AdmissibleHiggsData(
        ctx, [hpoint(ctx, [ElementaryBlock.make(ctx, 1, 0, weights=(F(0),))])]
    )
    rep = a0_check(triv)
    assert not rep.ok and len(rep.failing) == 1
    w, cls, side = rep.failing[0]
    assert w.is_zero() and cls.is_zero_class()


def test_a0_generic_pass(ctx):
    a = ctx.sym("a")
    for blocks in (
        [ElementaryBlock.make(ctx, 2, 1, lead=a, weights=(F(0),))],
        [tame(ctx)],
    ):
        d = AdmissibleHiggsData(ctx, [hpoint(ctx, blocks, sym={"s1": 1})])
        assert a0_check(d).ok


def test_a0_nilpotent_kernel_line(ctx):
    # tame nilpotent block with a kernel line of degree 0 fails once;
    # with negative degree the first-cohomology side passes but the dual
    # scan (second cohomology) catches it
    nil = ElementaryBlock.make(
        ctx, 1, 0, weights=(F(0), F(0)),
        nilp=((ctx.zero, ctx.one), (ctx.zero, ctx.zero)),
    )
    d = AdmissibleHiggsData(ctx, [hpoint(ctx, [nil])])
    rep = a0_check(d)
    assert not rep.ok
    neg = ElementaryBlock.make(ctx, 1, 0, weights=(F(-1, 4),), degrees=(-1,))
    d2 = AdmissibleHiggsData(ctx, [hpoint(ctx, [neg])])
    rep2 = a0_check(d2)
    assert not rep2.ok and rep2.failing[0][2] == "H2"


def test_a3_line_bundle_fails_at_inverse_class(ctx):
    P = TorusPoint("T_dual", F(1, 3), F(1, 5), is_lift=True)
    lb = FilteredBundleData(
        ctx,
        [SingularPoint(P, HiggsGerm.from_blocks(
            ctx, [ElementaryBlock.make(ctx, 1, 0, weights=(F(-1, 4),))], "infinity"))],
    )
    rep = a3_check(lb)
    assert not rep.ok and len(rep.failing) == 1
    _, cls, _ = rep.failing[0]
    assert cls == (-P).reduce()


def test_a3_generic_pass_and_dual_symmetry(ctx):
    a = ctx.sym("a")
    good_data = FilteredBundleData(
        ctx,
        [hpoint(ctx, [ElementaryBlock.make(ctx, 3, 1, lead=a, weights=(F(-1, 2),)),
                      tame(ctx)],
                sym={"s1": 1}, coord="infinity")],
    )
    assert a3_check(good_data).ok
    assert a3_check(dual_data(good_data)).ok
    # failing classes negate under duality
    P = TorusPoint("T_dual", F(1, 3), F(1, 5), is_lift=True)
    lb = FilteredBundleData(
        ctx,
        [SingularPoint(P, HiggsGerm.from_blocks(
            ctx, [ElementaryBlock.make(ctx, 1, 0, weights=(F(-1, 4),))], "infinity"))],
    )
    f1 = {c.class_key() for _, c, _ in a3_check(lb).failing if c is not None}
    f2 = {(-c).reduce().class_key() for _, c, _ in a3_check(dual_data(lb)).failing if c is not None}
    assert f1 == f2


def test_a1a2_and_slope_one_note(ctx):
    a = ctx.sym("a")
    d = FilteredBundleData(
        ctx,
        [hpoint(ctx, [ElementaryBlock.make(ctx, 1, 1, lead=a, weights=(F(0),))],
                coord="infinity")],
    )
    rep = a1a2_check(d)
    assert rep.ok and any("slope 1" in n for n in rep.notes)
    d2 = FilteredBundleData(
        ctx,
        [hpoint(ctx, [ElementaryBlock.make(ctx, 3, 2, lead=a, weights=(F(0),))],
                coord="infinity")],
    )
    rep2 = a1a2_check(d2)
    assert rep2.ok and not rep2.notes


def test_a1a2_failing_germ_reports_certificate(ctx):
    # a wrapped constant nilpotent endomorphism never splits against any
    # lattice: admissibility fails with a named obstruction
    from nahmkit.higgs import endo_germ_wrap
    from nahmkit.filtered import FilteredLattice
    from nahmkit.lmatrix import LaurentMatrix
    from nahmkit.series import TruncatedLaurent as TL

    g = endo_germ_wrap(
        FilteredLattice(ctx, [F(0), F(0)]),
        LaurentMatrix(ctx, [[TL.zero(ctx), TL.from_scalar(ctx.one)],
                            [TL.zero(ctx), TL.zero(ctx)]]),
    )
    pt = TorusPoint("T_dual", F(1, 7), 0, is_lift=True)
    d = FilteredBundleData(ctx, [SingularPoint(pt, g)])
    rep = a1a2_check(d)
    assert not rep.ok and rep.notes


def test_good_check(ctx):
    a = ctx.sym("a")
    d = AdmissibleHiggsData(
        ctx,
        [hpoint(ctx, [ElementaryBlock.make(ctx, 2, 1, lead=a, weights=(F(0),)),
                      tame(ctx)])],
    )
    assert good_check(d).ok


def test_good_check_fails_on_a_germ_that_resists(ctx):
    # the sub-leading-tail germ of test_higgs: admissible, but its matrix
    # form resists recognition, so the datum is not certified good
    a, b = ctx.sym("a"), ctx.sym("b")
    tailed = ElementaryBlock.make(ctx, 1, 2, lead=a, tail=(b,), weights=(F(0),))
    pt = TorusPoint("T_dual", F(1, 3), 0, is_lift=True)
    d = AdmissibleHiggsData(
        ctx, [SingularPoint(pt, realize(HiggsGerm.from_blocks(ctx, [tailed])))]
    )
    rep = good_check(d)
    assert not rep.ok and len(rep.notes) == 1
    assert rep.notes[0].startswith(f"at {pt!r}: ") and "resists" in rep.notes[0]


def _random_block(ctx, rng):
    """An exceptional block (one to three lines, weights 0 or not, degrees
    -1, 0 or 1, maybe a nilpotent part and twists) or a tame or irregular
    non-exceptional one."""
    kind = rng.choice(("exceptional", "exceptional", "tame", "irregular"))
    if kind == "irregular":
        return ElementaryBlock.make(
            ctx, 2, 1, lead=ctx.sym("a"), weights=(rng.choice((F(0), F(-1, 2))),),
            degrees=(rng.randint(-1, 1),),
        )
    k = 1 if kind == "tame" else rng.randint(1, 3)
    weights = tuple(rng.choice((F(0), F(0), F(-1, 2), F(-1, 3))) for _ in range(k))
    degrees = tuple(rng.randint(-1, 1) for _ in range(k))
    nilp = ()
    if k > 1 and rng.random() < 0.6:
        # Jordan-aligned: the nonzero columns are independent; ascending
        # weights, so that each line maps into one of no higher weight
        weights = tuple(sorted(weights))
        rows = [[ctx.zero] * k for _ in range(k)]
        for i in range(k - 1):
            rows[i][i + 1] = ctx.rational(rng.choice((1, 2, -1)))
        if k == 3 and rng.random() < 0.5:
            rows[0][2] = ctx.sym("b")
        nilp = tuple(tuple(r) for r in rows)
    twists = ()
    if rng.random() < 0.5:
        twists = tuple(
            None if rng.random() < 0.3 else
            TorusPoint("T_dual", F(rng.randint(0, 3), 4), F(rng.randint(0, 2), 3))
            for _ in range(k)
        )
    alpha = ctx.zero if kind == "exceptional" else ctx.sym("b")
    return ElementaryBlock.make(ctx, 1, 0, alpha=alpha, weights=weights,
                                degrees=degrees, nilp=nilp, twists=twists)


def _random_datum(ctx, rng, cls, coord):
    points = []
    for j in range(rng.randint(1, 3)):
        pt = TorusPoint("T_dual", F(j, 5), F(rng.randint(0, 3), 7), is_lift=True)
        blocks = [_random_block(ctx, rng) for _ in range(rng.randint(1, 3))]
        points.append(SingularPoint(pt, HiggsGerm.from_blocks(ctx, blocks, coord)))
    return cls(ctx, points)


def _full_dual_route(data):
    """The scans as they read before they were restricted to exceptional
    blocks: the datum, then the whole dual datum built by dual_data."""
    if isinstance(data, AdmissibleHiggsData):
        def scan(d):
            return elliptic._h0_scan_higgs(d.ctx, d.all_blocks())
    else:
        def scan(d):
            return elliptic._h0_scan_bundle(d.all_blocks())
    failing = scan(data) + elliptic._negate_classes(scan(dual_data(data)))
    return elliptic._dedupe(failing)


def _failing_key(failing):
    return [
        (None if w is None else w.sort_key(),
         None if c is None else (repr(c), c.class_key()), side)
        for w, c, side in failing
    ]


@pytest.mark.parametrize("cls, coord, check", [
    (AdmissibleHiggsData, "finite", a0_check),
    (FilteredBundleData, "infinity", a3_check),
])
def test_exceptional_scans_match_the_full_dual_route(ctx, cls, coord, check):
    """a0_check and a3_check dualize only the exceptional blocks; their
    failing lists equal, in order, those of the scans over the whole dual
    datum, on seeded data mixing every kind of block."""
    sides = set()
    for seed in range(40):
        data = _random_datum(ctx, random.Random(seed), cls, coord)
        rep = check(data)
        want = _full_dual_route(data)
        assert _failing_key(rep.failing) == _failing_key(want), seed
        assert rep.ok == (not want)
        sides |= {side for _, _, side in want}
    # both halves of the scan report failures on this data
    assert sides == {"H0", "H2"}
