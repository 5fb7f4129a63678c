"""Global transforms: exchange of data, degree preservation, inversion."""

from fractions import Fraction as F

import pytest

from nahmkit import elliptic, transform
from nahmkit.errors import VerdictFailure
from nahmkit.field import FieldContext
from nahmkit.higgs import ElementaryBlock, HiggsGerm, realize
from nahmkit.torus import TorusPoint
from nahmkit.elliptic import (
    AdmissibleHiggsData,
    FilteredBundleData,
    SingularPoint,
    a0_check,
    a3_check,
    global_parabolic_degree,
)
from nahmkit.transform import (
    invariants,
    nahm_backward,
    nahm_forward,
    roundtrip_report,
)


@pytest.fixture(scope="module")
def ctx():
    return FieldContext(M=12, symbols=("a", "b", "s1", "s2", "nu1", "nu2"))


def hpoint(ctx, blocks, q=(0, 0), sym=None, coord="finite"):
    pt = TorusPoint("T_dual", q[0], q[1], sym=sym or {}, is_lift=True)
    return SingularPoint(pt, HiggsGerm.from_blocks(ctx, blocks, coord))


def tame_datum(ctx, weight=F(-1, 4)):
    b = ElementaryBlock.make(ctx, 1, 0, alpha=ctx.sym("a"), weights=(weight,))
    return AdmissibleHiggsData(ctx, [hpoint(ctx, [b], sym={"s1": 1})])


def test_forward_tame_rank_one(ctx):
    d = tame_datum(ctx)
    out, rep = nahm_forward(d)
    assert out.rank == 1
    assert [sp.point for sp in out.points] == [sp.point for sp in d.points]
    assert rep.degree_preserved
    assert global_parabolic_degree(out) == F(1, 4)


def test_forward_irregular_block(ctx):
    b = ElementaryBlock.make(ctx, 2, 1, lead=ctx.sym("a"), weights=(F(0),))
    d = AdmissibleHiggsData(ctx, [hpoint(ctx, [b], sym={"s1": 1})])
    out, rep = nahm_forward(d)
    assert out.rank == 3
    blk = out.points[0].germ.blocks[0]
    assert (blk.p, blk.m) == (3, 1) and blk.slope == F(1, 3)


def test_forward_two_points_additive(ctx):
    b1 = ElementaryBlock.make(ctx, 2, 1, lead=ctx.sym("a"), weights=(F(0),))
    b2 = ElementaryBlock.make(ctx, 1, 0, alpha=ctx.sym("b"), weights=(F(-1, 2),))
    d = AdmissibleHiggsData(
        ctx,
        [hpoint(ctx, [b1], sym={"s1": 1}), hpoint(ctx, [b2], q=(F(1, 2), F(1, 3)))],
    )
    out, rep = nahm_forward(d)
    assert out.rank == 3 + 1
    assert len(out.points) == 2
    # functoriality: the transform of the direct sum is the direct sum
    parts = []
    for sp in d.points:
        single = AdmissibleHiggsData(ctx, [sp])
        o, _ = nahm_forward(single)
        parts.extend(o.table_keys())
    assert sorted(map(repr, parts)) == sorted(map(repr, out.table_keys()))


def test_forward_requires_concentration(ctx):
    triv = AdmissibleHiggsData(
        ctx, [hpoint(ctx, [ElementaryBlock.make(ctx, 1, 0, weights=(F(0),))])]
    )
    with pytest.raises(VerdictFailure):
        nahm_forward(triv)


def test_backward_inverts_forward(ctx):
    b = ElementaryBlock.make(ctx, 2, 1, lead=ctx.sym("a"), weights=(F(-2, 3),), degrees=(1,))
    d = AdmissibleHiggsData(ctx, [hpoint(ctx, [b], sym={"s1": 1})])
    fwd, _ = nahm_forward(d)
    back, rep = nahm_backward(fwd)
    assert back.table_keys() == d.table_keys()
    assert rep.degree_preserved


def test_backward_rejects_line_bundle(ctx):
    lb = FilteredBundleData(
        ctx,
        [hpoint(ctx, [ElementaryBlock.make(ctx, 1, 0, weights=(F(-1, 4),))],
                q=(F(1, 3), F(1, 5)), coord="infinity")],
    )
    with pytest.raises(VerdictFailure) as err:
        nahm_backward(lb)
    assert not err.value.report.conditions["A3"].ok


def test_backward_slope_rule(ctx):
    # rank-3 datum at infinity of type (3,1) comes back as (2,1)
    b = ElementaryBlock.make(
        ctx, 3, 1, radicand=ctx.rational(F(27, 4)) * ctx.sym("a") ** 2,
        weights=(F(-1, 2),), degrees=(-1,),
    )
    d = FilteredBundleData(ctx, [hpoint(ctx, [b], sym={"s1": 1}, coord="infinity")])
    out, _ = nahm_backward(d)
    blk = out.points[0].germ.blocks[0]
    assert (blk.p, blk.m) == (2, 1)
    assert blk.radicand == ctx.sym("a") ** 2


def test_backward_exceptional_injection_slot(ctx):
    # the carried filtration must match the host's rank and degree
    carried = ElementaryBlock.make(
        ctx, 1, 0, alpha=ctx.sym("b"), weights=(F(-1, 4),), degrees=(-1,)
    )
    exc = ElementaryBlock.make(
        ctx, 1, 0, weights=(F(-1, 4),), degrees=(-1,), injection=carried
    )
    d = FilteredBundleData(ctx, [hpoint(ctx, [exc], coord="infinity")])
    out, _ = nahm_backward(d, skip_checks=True)
    assert out.points[0].germ.blocks[0].table_key() == carried.table_key()
    bare = ElementaryBlock.make(ctx, 1, 0, weights=(F(-1, 4),), degrees=(-1,))
    d2 = FilteredBundleData(ctx, [hpoint(ctx, [bare], coord="infinity")])
    with pytest.raises(VerdictFailure):
        nahm_backward(d2, skip_checks=True)
    # inconsistent slot data is refused
    bad = ElementaryBlock.make(
        ctx, 1, 0, weights=(F(-1, 4),), degrees=(-1,),
        injection=ElementaryBlock.make(ctx, 1, 0, alpha=ctx.sym("b"), weights=(F(-1, 3),)),
    )
    d3 = FilteredBundleData(ctx, [hpoint(ctx, [bad], coord="infinity")])
    with pytest.raises(VerdictFailure):
        nahm_backward(d3, skip_checks=True)


def test_roundtrip_report(ctx):
    b1 = ElementaryBlock.make(ctx, 3, 2, lead=ctx.sym("a"), weights=(F(-1, 4),))
    b2 = ElementaryBlock.make(ctx, 1, 0, alpha=ctx.sym("b"), weights=(F(-5, 6),), degrees=(2,))
    d = AdmissibleHiggsData(
        ctx,
        [hpoint(ctx, [b1], sym={"s1": 1}), hpoint(ctx, [b2], q=(F(1, 2), 0))],
    )
    rep = roundtrip_report(d)
    assert rep.roundtrip == "pass"
    assert rep.degree_preserved and rep.goodness_preserved
    assert rep.input_degree == rep.output_degree


def test_roundtrip_of_a_matrix_germ(ctx):
    # the same datum as a canonical germ and as its realized matrix germ
    b = ElementaryBlock.make(ctx, 2, 1, lead=ctx.sym("a"), weights=(F(-1, 2),))
    pt = TorusPoint("T_dual", 0, 0, sym={"s1": 1}, is_lift=True)
    canonical = AdmissibleHiggsData(ctx, [SingularPoint(pt, HiggsGerm.from_blocks(ctx, [b]))])
    matrix = AdmissibleHiggsData(
        ctx, [SingularPoint(pt, realize(HiggsGerm.from_blocks(ctx, [b])))]
    )
    rep = roundtrip_report(matrix)
    assert rep.roundtrip == "pass"
    assert rep.to_dict() == roundtrip_report(canonical).to_dict()


def _two_point_datum(ctx):
    b1 = ElementaryBlock.make(ctx, 3, 2, lead=ctx.sym("a"), weights=(F(-1, 4),))
    b2 = ElementaryBlock.make(ctx, 1, 0, alpha=ctx.sym("b"), weights=(F(-5, 6),), degrees=(2,))
    b3 = ElementaryBlock.make(ctx, 2, 1, lead=ctx.sym("b"), weights=(F(0),), degrees=(-1,))
    return AdmissibleHiggsData(
        ctx,
        [hpoint(ctx, [b1, b2], sym={"s1": 1}), hpoint(ctx, [b3], q=(F(1, 2), 0))],
    )


def _count_calls(monkeypatch):
    """Record the datum of every table() and global_parabolic_degree call,
    and the block or germ of every dual_block and goodness_decomposition
    call."""
    seen = {"table": [], "degree": [], "dual_block": [], "goodness": []}

    def wrap(owner, name, key):
        fn = getattr(owner, name)

        def counted(arg, *rest):
            seen[key].append(arg)
            return fn(arg, *rest)
        monkeypatch.setattr(owner, name, counted)

    wrap(elliptic._DataBase, "table", "table")
    wrap(transform, "global_parabolic_degree", "degree")
    wrap(elliptic, "dual_block", "dual_block")
    wrap(elliptic, "goodness_decomposition", "goodness")
    return seen


def test_roundtrip_derives_each_invariant_once(ctx, monkeypatch):
    """One roundtrip reads the table and the degree of each of its three
    data (input, forward output, backward output) once, dualizes no block
    that is not exceptional and decomposes no canonical germ."""
    data = _two_point_datum(ctx)
    seen = _count_calls(monkeypatch)
    rep = roundtrip_report(data)
    monkeypatch.undo()
    assert rep.roundtrip == "pass"
    for key in ("table", "degree"):
        assert len(seen[key]) == 3, key
        assert len({id(d) for d in seen[key]}) == 3, key
    assert seen["table"][0] is data
    assert all(b.is_exceptional() for b in seen["dual_block"])
    assert seen["goodness"] == []


def test_scans_dualize_only_exceptional_blocks(ctx, monkeypatch):
    nil = ElementaryBlock.make(
        ctx, 1, 0, weights=(F(0), F(-1, 2)), degrees=(-1, 0),
        nilp=((ctx.zero, ctx.one), (ctx.zero, ctx.zero)),
    )
    exc = ElementaryBlock.make(ctx, 1, 0, weights=(F(-1, 3),), degrees=(-1,))
    others = [
        ElementaryBlock.make(ctx, 2, 1, lead=ctx.sym("a"), weights=(F(0),)),
        ElementaryBlock.make(ctx, 1, 0, alpha=ctx.sym("b"), weights=(F(-1, 2),)),
    ]
    for cls, coord, check in ((AdmissibleHiggsData, "finite", a0_check),
                              (FilteredBundleData, "infinity", a3_check)):
        data = cls(ctx, [hpoint(ctx, [nil] + others, sym={"s1": 1}, coord=coord),
                         hpoint(ctx, [others[0], exc], q=(F(1, 3), 0), coord=coord)])
        seen = _count_calls(monkeypatch)
        check(data)
        monkeypatch.undo()
        assert seen["dual_block"] == [nil, exc]


def test_wrapped_matrix_germ_through_backward(ctx):
    # an endomorphism wrap fed to the global backward transform end to end
    from nahmkit.higgs import endo_germ_wrap
    from nahmkit.filtered import FilteredLattice
    from nahmkit.lmatrix import LaurentMatrix
    from nahmkit.series import TruncatedLaurent as TL

    a = ctx.sym("a")
    # g with eigenvalues ~ a tau^(1/2): a type-(2,1) germ at infinity
    g = endo_germ_wrap(
        FilteredLattice(ctx, [F(0), F(-1, 2)]),
        LaurentMatrix(ctx, [[TL.zero(ctx), TL.monomial(ctx, a * a, 1)],
                            [TL.from_scalar(ctx.one), TL.zero(ctx)]]),
    )
    d = FilteredBundleData(
        ctx, [SingularPoint(TorusPoint("T_dual", 0, 0, sym={"s1": 1}, is_lift=True), g)]
    )
    out, rep = nahm_backward(d)
    blk = out.points[0].germ.blocks[0]
    assert (blk.p, blk.m) == (1, 1) and out.rank == 1
    assert rep.degree_preserved


def test_invariants_report_fields(ctx):
    d = tame_datum(ctx, weight=F(-1, 3))
    rep = invariants(d)
    assert rep.input_rank == 1
    assert rep.input_degree == F(1, 3)
    assert rep.c2 is None
    j = rep.to_dict()
    assert j["input"]["parabolic_degree"] == {"num": 1, "den": 3}
    assert j["c2"] is None
    # dual input negates the degree
    from nahmkit.elliptic import dual_data

    assert invariants(dual_data(d)).input_degree == -F(1, 3)
    text = rep.to_text()
    assert "rank 1" in text and "c2: not computed" in text
