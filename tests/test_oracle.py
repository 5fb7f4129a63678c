"""Brute-force verification layer: truncated models and cross-checks."""

import dataclasses
import importlib
import random
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from nahmkit import linalg, lmatrix, localnahm, oracle
from nahmkit.examples import generate_examples
from nahmkit.field import FieldContext
from nahmkit.filtered import normalize_weight
from nahmkit.higgs import ElementaryBlock, HiggsGerm, realize
from nahmkit.localnahm import build_local_complex
from nahmkit.oracle import (
    build_truncation_model,
    coefficient_table,
    degree_crosscheck,
    part_maps,
    truncated_cokernel,
)
from nahmkit.series import TruncatedLaurent
from nahmkit.torus import TorusPoint
from nahmkit.elliptic import AdmissibleHiggsData, SingularPoint
from nahmkit.errors import VerdictFailure


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


def point_data(ctx, germ):
    pt = TorusPoint("T_dual", F(1, 3), 0, is_lift=True)
    return AdmissibleHiggsData(ctx, [SingularPoint(pt, germ)])


def nilpotent_block(ctx, weights, entries):
    """Exceptional block (zero residue) whose nilpotent part has a 1 at
    each (row, column) of entries."""
    k = len(weights)
    nilp = [[ctx.one if (i, j) in entries else ctx.zero for j in range(k)]
            for i in range(k)]
    return ElementaryBlock.make(ctx, 1, 0, weights=weights, nilp=nilp)


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
            c = build_local_complex(HiggsGerm.from_blocks(ctx, [b]))
            assert truncated_cokernel(c, (w, None), 24) == (0, expect, True)


def test_model_shape(ctx):
    b = ElementaryBlock.make(ctx, 1, 0, alpha=ctx.sym("a"), weights=(F(-1, 4),))
    c = complex_of(ctx, [b])
    model = build_truncation_model(c, coefficient_table(part_maps(c, ctx.sym("w"))), 8)
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
    # exceptional blocks: theta e_1 = e_0 dz/z, e_0 of no higher weight
    for _ in range(10):
        pair = sorted((F(rng.randint(-7, 0), rng.randint(1, 8)) for _ in range(2)),
                      key=lambda c: normalize_weight(c, 0))
        b = nilpotent_block(ctx, tuple(pair), {(0, 1)})
        assert degree_crosscheck(point_data(ctx, HiggsGerm.from_blocks(ctx, [b])), w), pair


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
        table = coefficient_table(part_maps(c, w))
        residues = oracle._residue_table(ctx.residues, table)
        for n in range(8, 13):
            model = build_truncation_model(c, table, n)
            mod_p = linalg.rank_mod_p(
                build_truncation_model(c, residues, n).matrix, ctx.residues.p)
            exact = len(linalg.rref(model.matrix)[1])
            assert mod_p <= exact, (shape, n)
            assert mod_p == model.domain_dim and exact == mod_p, (shape, n)


def _exact_cokernel(complex_, w, N):
    """truncated_cokernel with every rank by rref over the session field."""
    maps = part_maps(complex_, w)
    bases = [lmatrix.kernel_basis(M) for M in maps]
    if any(basis for basis, _ in bases):
        return sum(len(basis) for basis, _ in bases), None, all(ok for _, ok in bases)
    table = coefficient_table(maps)
    out = []
    for n in (N, N + 4):
        model = build_truncation_model(complex_, table, n)
        rank = len(linalg.rref(model.matrix)[1])
        out.append((model.domain_dim - rank, model.codomain_dim - rank))
    return (*out[0], out[0] == out[1])


def _workload_points(monkeypatch, seed):
    """(complex, w, N, result) of every truncated_cokernel call of one pass
    of the benchmark's oracle workload."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    seen = []
    real = workloads.truncated_cokernel

    def recording(complex_, twist, N):
        result = real(complex_, twist, N)
        seen.append((complex_, twist[0], N, result))
        return result

    monkeypatch.setattr(workloads, "truncated_cokernel", recording)
    for op in workloads.build_oracle(seed):
        op.run()
    return seen


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_oracle_on_the_workload_points_against_exact_elimination(monkeypatch, seed):
    """On every point of the benchmark's oracle workload the oracle's
    (ker, coker, certified) is that of the all-exact route."""
    points = _workload_points(monkeypatch, seed)
    assert len(points) == 110
    for complex_, w, N, result in points:
        assert result == _exact_cokernel(complex_, w, N), [p.block for p in complex_.parts]


def _matrix_sum_maps(complex_, w):
    """The earlier route of part_maps, kept as its reference: each part's
    map as the matrix sum theta.shift(-1) + w * identity."""
    ctx = complex_.germ.ctx
    wz = TruncatedLaurent.from_scalar(w)
    maps = []
    for part in complex_.parts:
        g = realize(HiggsGerm.from_blocks(ctx, [part.block]))
        ident = lmatrix.LaurentMatrix.identity(ctx, g.lattice.rank)
        maps.append(g.theta.shift(-1) + ident.scale(wz))
    return maps


def _entry_data(M):
    return [[(e.val, e.coeffs, e.prec) for e in row] for row in M.entries]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_part_maps_against_the_matrix_sum_on_the_workload_points(monkeypatch, seed):
    """On every part of every point of the benchmark's oracle workload,
    each entry of part_maps' map has the valuation, coefficients, precision
    and exactness of the matrix-sum route."""
    for complex_, w, _N, _result in _workload_points(monkeypatch, seed):
        maps = part_maps(complex_, w)
        reference = _matrix_sum_maps(complex_, w)
        assert len(maps) == len(reference) == len(complex_.parts)
        for M, ref in zip(maps, reference):
            assert _entry_data(M) == _entry_data(ref), [p.block for p in complex_.parts]


def _constant_term_entries(complex_, maps):
    """The nonzero entries of M'_0, the constant term of z^-n1 M z^n0, on
    every non-exceptional part."""
    count = 0
    for part, M in zip(complex_.parts, maps):
        if part.block.is_exceptional():
            continue
        n0, n1 = part.c0_exponents, part.c1_exponents
        count += sum(not e.coeff(n1[i] - n0[j]).is_zero()
                     for i, row in enumerate(M.entries) for j, e in enumerate(row))
    return count


def test_one_realization_per_part_and_one_residue_per_coefficient(ctx, monkeypatch):
    """Count-only guard on a point of two parts, one of them exceptional:
    truncated_cokernel and degree_crosscheck realize each part once, and the
    exceptional part once more (to read its theta).  The models are built
    over the exceptional part alone; ctx.residues is called once for each
    nonzero coefficient of its map, far fewer times than its two models
    have entries, and once for each nonzero entry of M'_0 on the other."""
    w = ctx.sym("w")
    germ = HiggsGerm.from_blocks(ctx, [suite_germ(ctx, (2, 1)).blocks[0],
                                       nilpotent_block(ctx, (F(-1, 2), F(0)), {(0, 1)})])
    c = build_local_complex(germ)
    assert [p.block.is_exceptional() for p in c.parts] == [False, True]
    maps = part_maps(c, w)
    exceptional = dataclasses.replace(c, parts=c.parts[1:])
    table = coefficient_table(maps[1:])
    coefficients = sum(len(terms) for part in table for _, _, terms in part)
    entries = sum(len(row) for n in (24, 28)
                  for row in build_truncation_model(exceptional, table, n).matrix)
    constant_terms = _constant_term_entries(c, maps)
    calls = {"realize": 0, "residues": 0, "model_parts": []}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    def recording(complex_, table, N):
        calls["model_parts"].append(len(complex_.parts))
        return build_truncation_model(complex_, table, N)

    residue_map = type(ctx.residues)
    monkeypatch.setattr(oracle, "realize", counting("realize", oracle.realize))
    monkeypatch.setattr(oracle, "build_truncation_model", recording)
    monkeypatch.setattr(residue_map, "__call__", counting("residues", residue_map.__call__))
    assert truncated_cokernel(c, (w, None), 24) == (0, c.index, True)
    assert degree_crosscheck(point_data(ctx, germ), w, 24)
    assert calls == {"realize": len(c.parts) + 1,
                     "residues": coefficients + constant_terms, "model_parts": [1, 1]}
    assert 4 * coefficients < entries


def test_uncertified_module_kernel_is_reported(ctx, monkeypatch):
    monkeypatch.setattr(oracle, "kernel_basis", lambda M: ([[ctx.one]], False))
    germ = HiggsGerm.from_blocks(
        ctx, [ElementaryBlock.make(ctx, 2, 1, lead=ctx.sym("a"), weights=(F(0),))])
    c = build_local_complex(germ)
    assert truncated_cokernel(c, (ctx.sym("w"), None), 24) == (len(c.parts), None, False)


def test_truncated_cokernel_realizes_once_and_never_eliminates(ctx, monkeypatch):
    """Count-only guard: on each suite shape at N = 24, one realization per
    part, no truncated model, and one rank mod p of the r x r matrix M'_0
    per part, which decides: no call of rref."""
    calls = {"rref": 0, "realize": 0, "build_truncation_model": 0, "rank_mod_p": []}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    def rows_of(rows, p):
        calls["rank_mod_p"].append(len(rows))
        return linalg.rank_mod_p(rows, p)

    for name in ("rref", "realize", "build_truncation_model"):
        monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
    monkeypatch.setattr(oracle, "rank_mod_p", rows_of)
    w = ctx.sym("w")
    for shape in SUITE_SHAPES:
        c = suite_complex(ctx, shape)
        calls.update(rref=0, realize=0, build_truncation_model=0, rank_mod_p=[])
        assert truncated_cokernel(c, (w, None), 24)[0::2] == (0, True)
        ranks = [len(part.c0_exponents) for part in c.parts]
        assert calls == {"rref": 0, "realize": len(c.parts), "build_truncation_model": 0,
                         "rank_mod_p": ranks}, shape


def test_one_series_elimination_per_part_and_no_back_substitution(ctx, monkeypatch):
    """Count-only guard: on each suite shape at N = 24, truncated_cokernel
    eliminates once per part over the series field (the module kernel) and
    degree_crosscheck not at all, since no suite shape has an exceptional
    part; on an exceptional part degree_crosscheck eliminates once (the
    Smith form of the join).  Neither back-substitutes."""
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
    for shape in SUITE_SHAPES:
        germ = suite_germ(ctx, shape)
        parts = len(build_local_complex(germ).parts)
        calls.update(_eliminate=0, _back_substitute=0)
        assert truncated_cokernel(build_local_complex(germ), (w, None), 24)[0::2] == (0, True)
        assert calls == {"_eliminate": parts, "_back_substitute": 0}, shape
        calls.update(_eliminate=0)
        assert degree_crosscheck(point_data(ctx, germ), w, 24)
        assert calls == {"_eliminate": 0, "_back_substitute": 0}, shape
    exceptional = [ElementaryBlock.make(ctx, 1, 0, weights=(F(0),)),
                   nilpotent_block(ctx, (F(-1, 2), F(0)), {(0, 1)})]
    germ = HiggsGerm.from_blocks(ctx, [suite_germ(ctx, (2, 1)).blocks[0], *exceptional])
    calls.update(_eliminate=0)
    assert degree_crosscheck(point_data(ctx, germ), w, 24)
    assert calls == {"_eliminate": len(exceptional), "_back_substitute": 0}


@pytest.mark.parametrize("weights, index", [((F(-1, 2), F(0)), 1)])
def test_nilpotent_part_is_read_in_the_sorted_frame(ctx, weights, index):
    """theta e_1 = e_0 dz/z, e_0 of the lower weight, so that theta
    preserves the filtration (with e_0 of weight 0 ElementaryBlock.make
    refuses it).  The realization sorts the lines by descending weight,
    which swaps them; the bookkeeping reads the nilpotent part in that
    frame, so the join P_{<1} + theta P_0 adds nothing new on e_0."""
    b = nilpotent_block(ctx, weights, {(0, 1)})
    germ = HiggsGerm.from_blocks(ctx, [b])
    assert build_local_complex(germ).index == index
    assert degree_crosscheck(point_data(ctx, germ), ctx.sym("w"))


@pytest.mark.xfail(strict=True, reason="the min rule of build_local_complex treats "
                   "a non-monomial join as monomial")
def test_non_monomial_nilpotent_column(ctx):
    """theta e_2 = (e_0 + e_1) dz/z on three weight-0 lines: the join adds
    the one generator z^-1 (e_0 + e_1), colength -1, where the min rule
    lowers both lines and gets -2."""
    b = nilpotent_block(ctx, (F(0), F(0), F(0)), {(0, 2), (1, 2)})
    assert degree_crosscheck(point_data(ctx, HiggsGerm.from_blocks(ctx, [b])), ctx.sym("w"))


def _degenerate_example():
    ex = generate_examples("tame-rank1-degenerate")
    return ex["data"], ex["ctx"].sym("w")


def test_oracle_rejects_an_off_by_one_generator_exponent(ctx, monkeypatch):
    """P_a generator exponents one too high on every line leave every index
    unchanged; the crosscheck re-derives the exponents and rejects them."""
    w = ctx.sym("w")
    cases = [(point_data(ctx, suite_germ(ctx, s)), w) for s in SUITE_SHAPES]
    cases.append(_degenerate_example())
    assert all(degree_crosscheck(d, x) for d, x in cases)
    gen = localnahm._gen_exponent
    monkeypatch.setattr(localnahm, "_gen_exponent", lambda c, a: gen(c, a) + 1)
    assert not any(degree_crosscheck(d, x) for d, x in cases)


@pytest.mark.parametrize("delta", [1, -1])
def test_oracle_rejects_an_off_by_one_strict_exponent(monkeypatch, delta):
    data, w = _degenerate_example()
    assert degree_crosscheck(data, w)
    strict = localnahm._gen_exponent_strict
    monkeypatch.setattr(localnahm, "_gen_exponent_strict",
                        lambda c, a: strict(c, a) + delta)
    assert not degree_crosscheck(data, w)


# the suite shapes on which the determinant identity of the lattice map
# was first measured
SIX_SHAPES = [(1, 0), (1, 1), (2, 1), (3, 2), (1, 3), (5, 1)]
SIX_IDS = ["%d-%d" % s for s in SIX_SHAPES]


def _moved_c1(complex_, i, delta):
    """The complex with c1_exponents[i] of its first part moved by delta."""
    part = complex_.parts[0]
    n1 = list(part.c1_exponents)
    n1[i] += delta
    bad = dataclasses.replace(part, c1_exponents=tuple(n1))
    return dataclasses.replace(complex_, parts=(bad,) + complex_.parts[1:])


@pytest.mark.parametrize("shape", SIX_SHAPES, ids=SIX_IDS)
def test_a_raised_c1_exponent_is_a_verdict_failure(ctx, shape):
    """One more on a C1 generator exponent moves the C1 floor above an
    image of the map: the bookkeeping disagrees with the realization, and
    truncated_cokernel says so as a verdict, not as malformed input."""
    c = suite_complex(ctx, shape)
    part = c.parts[0]
    bad = dataclasses.replace(
        part, c1_exponents=(part.c1_exponents[0] + 1,) + part.c1_exponents[1:]
    )
    c = dataclasses.replace(c, parts=(bad,) + c.parts[1:])
    with pytest.raises(VerdictFailure, match="not lattice-preserving"):
        truncated_cokernel(c, (ctx.sym("w"), None), 24)


@pytest.mark.parametrize("shape", SIX_SHAPES, ids=SIX_IDS)
def test_a_lowered_c1_exponent_is_a_verdict_failure(ctx, shape):
    """One less on any C1 generator exponent leaves every image above the
    floor, so part_maps passes it, and the truncated models stay injective:
    they report the index plus one, certified.  The row of M'_0 that reads
    the lowered exponent is zero, its rank falls short, and
    truncated_cokernel refuses the map as a lattice isomorphism."""
    w = ctx.sym("w")
    c = suite_complex(ctx, shape)
    for i in range(len(c.parts[0].c1_exponents)):
        bad = _moved_c1(c, i, -1)
        assert _model_cokernel(bad, w, 24) == (0, c.index + 1, True)
        with pytest.raises(VerdictFailure, match="not a lattice isomorphism"):
            truncated_cokernel(bad, (w, None), 24)


def _model_cokernel(complex_, w, N):
    """(ker, coker, certified) of the truncated models of every part at N
    and N + 4, each rank by oracle._model_rank: the route truncated_cokernel
    keeps for exceptional parts, run here on every part."""
    ctx = complex_.germ.ctx
    table = coefficient_table(part_maps(complex_, w))
    residues = oracle._residue_table(ctx.residues, table)
    out = []
    for n in (N, N + 4):
        model, rank = oracle._model_rank(complex_, table, residues, ctx.residues.p, n)
        out.append((model.domain_dim - rank, model.codomain_dim - rank))
    return (*out[0], out[0] == out[1])


@pytest.mark.parametrize("N", [8, 24])
def test_the_models_are_a_second_route(ctx, N):
    """On every suite shape and every pair of suite shapes, the models built
    directly give (0, index) at N and N + 4, which is what the rank of M'_0
    gives without them."""
    w = ctx.sym("w")
    germs = [suite_germ(ctx, s) for s in SUITE_SHAPES]
    pairs = [HiggsGerm.from_blocks(ctx, [a.blocks[0], b.blocks[0]])
             for i, a in enumerate(germs) for b in germs[i + 1:]]
    for germ in germs + pairs:
        c = build_local_complex(germ)
        assert _model_cokernel(c, w, N) == (0, c.index, True) \
            == truncated_cokernel(c, (w, None), N), [p.block for p in c.parts]


def test_an_exceptional_part_goes_through_the_models(ctx, monkeypatch):
    """A point with an exceptional part: that part alone gets the two
    models, and the point still gets (0, index, True)."""
    w = ctx.sym("w")
    seen = []

    def recording(complex_, table, N):
        seen.append(([p.block.is_exceptional() for p in complex_.parts], N))
        return build_truncation_model(complex_, table, N)

    monkeypatch.setattr(oracle, "build_truncation_model", recording)
    for blocks in ([nilpotent_block(ctx, (F(-1, 2), F(0)), {(0, 1)})],
                   [suite_germ(ctx, (3, 2)).blocks[0],
                    nilpotent_block(ctx, (F(0), F(0)), {(0, 1)})]):
        c = build_local_complex(HiggsGerm.from_blocks(ctx, blocks))
        seen.clear()
        assert truncated_cokernel(c, (w, None), 24) == (0, c.index, True)
        assert seen == [([True], 24), ([True], 28)]
