"""Filtered lattices on a disc germ: the weight calculus and frame rules."""

import random
from fractions import Fraction as F
from math import ceil

import pytest

from nahmkit.errors import InputError, PrecisionExhausted
from nahmkit.field import FieldContext
from nahmkit.filtered import (
    FilteredLattice,
    degree_contribution,
    descent,
    dual_filtered,
    grading,
    jump_count,
    lattice_morphism_ok,
    normalize_weight,
    pullback_covering,
    pushforward_covering,
    tensor_filtered,
)
from nahmkit.lmatrix import LaurentMatrix
from nahmkit.series import TruncatedLaurent as TL


@pytest.fixture(scope="module")
def ctx():
    return FieldContext(M=12, symbols=("a",))


def test_grading_examples(ctx):
    g = grading(FilteredLattice(ctx, [F(-1, 4), F(-3, 4)]))
    assert g.par == (F(-1, 4), F(-3, 4)) and g.gr_dims == (1, 1)
    g1 = grading(FilteredLattice(ctx, [F(-1, 3)], level=0))
    assert g1.par == (F(-1, 3),) and g1.gr_dims == (1,)
    g3 = grading(FilteredLattice(ctx, [F(0), F(0), F(-1, 2)]))
    assert dict(g3.filtration) == {F(-1, 2): 1, F(0): 3}


def test_weights_normalized_into_window(ctx):
    lat = FilteredLattice(ctx, [F(1, 3), F(5, 4)], level=0)
    assert set(lat.weights) == {F(-2, 3), F(-3, 4)}
    lat2 = lat.relevel(2)
    assert set(lat2.weights) == {F(4, 3), F(5, 4)}
    assert degree_contribution(lat2) - degree_contribution(lat) == 2 * lat.rank


def test_normalize_weight_is_the_ceiling_formula():
    """(x - k, k) with k = ceil(x - level), the weight a Fraction, for int
    and Fraction weights and levels, in the window and out of it."""
    rng = random.Random(5)
    cases = [(0, 0), (-1, 0), (1, 0), (F(1, 2), F(1, 2)), (F(-1, 2), F(1, 2)), (3, 2)]
    for _ in range(200):
        level = rng.choice([0, 1, F(1, 2), F(-7, 3)])
        cases.append((level + F(rng.randint(-18, 12), rng.randint(1, 6)), level))
    inside = 0
    for x, level in cases:
        k = ceil(F(x) - F(level))
        w, shift = normalize_weight(x, level)
        assert type(w) is F and (w, shift) == (F(x) - k, k), (x, level)
        inside += shift == 0
    assert 10 < inside < len(cases) - 10


def test_dual_examples(ctx):
    one_third = FilteredLattice(ctx, [F(1, 3)], level=1)
    assert dual_filtered(one_third, level=0).weights == (F(-1, 3),)
    zero = FilteredLattice(ctx, [F(0)])
    assert dual_filtered(zero).weights == (F(0),)
    quarters = FilteredLattice(ctx, [F(-1, 4), F(-3, 4)])
    # renormalized into (-1, 0]: (1/4, 3/4) becomes (-3/4, -1/4)
    assert dual_filtered(quarters, level=0).weights == (F(-1, 4), F(-3, 4))
    # at the reflected level the weights negate on the nose
    assert sorted(dual_filtered(quarters).weights) == [F(1, 4), F(3, 4)]


def test_dual_involution_random(ctx):
    rng = random.Random(3)
    for _ in range(50):
        ws = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))]
        lat = FilteredLattice(ctx, ws, level=0)
        assert dual_filtered(dual_filtered(lat)).relevel(0) == lat
        assert dual_filtered(dual_filtered(lat, level=0), level=0) == lat


def test_tensor_examples(ctx):
    a = FilteredLattice(ctx, [F(1, 3)], level=1)
    b = FilteredLattice(ctx, [F(-1, 3)], level=0)
    t = tensor_filtered(a, b).relevel(0)
    assert t.weights == (F(0),)
    unit = FilteredLattice(ctx, [F(0)])
    q = FilteredLattice(ctx, [F(-1, 4), F(-3, 4)])
    assert tensor_filtered(q, unit).weights == q.weights
    s = tensor_filtered(FilteredLattice(ctx, [F(-1, 4)]), FilteredLattice(ctx, [F(-1, 4)]))
    assert s.weights == (F(-1, 2),)


def test_tensor_commutative_associative_on_weights(ctx):
    rng = random.Random(11)
    for _ in range(20):
        lats = [
            FilteredLattice(
                ctx, [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(rng.randint(1, 2))]
            )
            for _ in range(3)
        ]
        ab = tensor_filtered(lats[0], lats[1])
        ba = tensor_filtered(lats[1], lats[0])
        assert sorted(ab.weights) == sorted(ba.weights)
        abc1 = tensor_filtered(ab, lats[2]).relevel(0)
        abc2 = tensor_filtered(lats[0], tensor_filtered(lats[1], lats[2])).relevel(0)
        assert sorted(abc1.weights) == sorted(abc2.weights)


def test_pullback_examples(ctx):
    p = pullback_covering(FilteredLattice(ctx, [F(-1, 4)]), 2)
    assert p.weights == (F(-1, 2),) and p.level == 0
    assert pullback_covering(FilteredLattice(ctx, [F(-1, 4)]), 1).weights == (F(-1, 4),)
    p3 = pullback_covering(FilteredLattice(ctx, [F(-2, 3)]), 3)
    assert p3.weights == (F(0),)


def test_pushforward_examples(ctx):
    pf = pushforward_covering(FilteredLattice(ctx, [F(-1, 2)]), 2)
    assert pf.weights == (F(-1, 4), F(-3, 4)) and pf.level == 0
    pf3 = pushforward_covering(FilteredLattice(ctx, [F(0)]), 3)
    assert pf3.weights == (F(0), F(-1, 3), F(-2, 3))
    assert pushforward_covering(FilteredLattice(ctx, [F(0)]), 1).rank == 1


def test_frame_degree_rules_exhaustive(ctx):
    # n_i = max{n : n + p c <= p a} and push-forward degrees (c - j)/p,
    # checked against direct enumeration over all weights with denominator
    # up to 8 within the level-0 window
    for p in range(1, 5):
        for den in range(1, 9):
            for num in range(-den + 1, 1):
                c = F(num, den)
                lat = FilteredLattice(ctx, [c], level=0)
                assert lat.weights[0] == c
                up = pullback_covering(lat, p)
                n_direct = max(n for n in range(-3 * p, 3 * p + 1) if n + p * c <= 0)
                assert up.weights[0] == n_direct + p * c
                down = pushforward_covering(lat, p)
                expected = sorted((F(c - j, 1) / p for j in range(p)), reverse=True)
                assert list(down.weights) == expected


def test_descent_roundtrip(ctx):
    rng = random.Random(5)
    for p in range(1, 7):
        for _ in range(10):
            ws = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
            lat = FilteredLattice(ctx, ws, level=0)
            back = descent(pushforward_covering(pullback_covering(lat, p), p), p)
            assert back == FilteredLattice(ctx, ws, level=0)


def test_descent_requires_equivariance(ctx):
    lat = pushforward_covering(FilteredLattice(ctx, [F(-1, 2)]), 2)
    assert lat.push_tag is not None and lat.push_tag.chars is None
    with pytest.raises(InputError):
        descent(lat, 2)
    with pytest.raises(InputError):
        descent(FilteredLattice(ctx, [F(0)]), 2)


def test_degree_contribution_examples(ctx):
    assert degree_contribution(FilteredLattice(ctx, [F(-1, 4), F(-3, 4)])) == -1
    assert degree_contribution(FilteredLattice(ctx, [F(0)])) == 0


def test_degree_pushforward_relation(ctx):
    # direct evaluation of both sides: delta(push) = delta(up) - k(p-1)/2
    rng = random.Random(9)
    for p in range(1, 5):
        for _ in range(12):
            ws = [F(rng.randint(-5, 0), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
            lat = FilteredLattice(ctx, ws, level=0)
            down = pushforward_covering(lat, p)
            lhs = degree_contribution(down)
            rhs = degree_contribution(lat) - len(ws) * F(p - 1, 2)
            assert lhs == rhs


def test_degree_dual_negation_and_sum_additivity(ctx):
    rng = random.Random(13)
    for _ in range(30):
        ws = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))]
        lat = FilteredLattice(ctx, ws, level=0)
        assert degree_contribution(dual_filtered(lat)) == -degree_contribution(lat)


def test_jump_count_windows(ctx):
    assert jump_count([F(-1, 4)], F(-1, 2), F(1, 2)) == 1
    assert jump_count([F(0), F(-1, 2)], F(-1), F(1, 2)) == 3
    assert jump_count([F(0)], F(0), F(1), include_hi=False) == 0


def _sends_generators_into(g, src, dst, a):
    """Does g (dst <- src) send each generator z^ceil(c_j - a) e_j of
    P_a(src) into P_a(dst) = sum_i z^ceil(d_i - a) O f_i?"""
    for j, c in enumerate(src):
        for i, d in enumerate(dst):
            image = g.entries[i][j].shift(ceil(c - a))
            if not image.is_zero() and image.val < ceil(d - a):
                return False
    return True


def test_lattice_morphism_ok_is_the_levelwise_definition(ctx):
    # weights have denominators <= 6, so every jump of either lattice lies
    # on the grid a = t/60, and a -> a + 1 multiplies both sides by z^-1,
    # so one period of the grid decides every level
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        src = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
        dst = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
        g = LaurentMatrix(ctx, [
            [TL.zero(ctx) if rng.random() < 0.3
             else TL.monomial(ctx, ctx.rational(rng.randint(1, 3)), rng.randint(-2, 2))
             for _ in src]
            for _ in dst
        ])
        want = all(_sends_generators_into(g, src, dst, F(t, 60)) for t in range(60))
        assert lattice_morphism_ok(g, src, dst) == want, (src, dst, g.entries)
        seen.add(want)
    assert seen == {True, False}


def test_lattice_morphism_ok_certifies_each_zero_entry(ctx):
    # src -1/3 to dst 1/3 has bound ceil(2/3) = 1; a zero known below z^1
    # does not decide the entry, whatever the other entry says
    undecided = TL.zero(ctx, 1)
    decided = TL.zero(ctx, 2)
    failing = TL.monomial(ctx, ctx.one, 0)  # bound 1 > valuation 0
    src, dst = [F(-1, 3)], [F(1, 3), F(1, 3)]
    for rows in ([[undecided]], [[failing], [undecided]], [[undecided], [failing]]):
        g = LaurentMatrix(ctx, rows)
        with pytest.raises(PrecisionExhausted):
            lattice_morphism_ok(g, src, dst[:len(rows)])
    assert lattice_morphism_ok(LaurentMatrix(ctx, [[decided]]), src, dst[:1])
    for rows in ([[failing], [decided]], [[decided], [failing]]):
        assert not lattice_morphism_ok(LaurentMatrix(ctx, rows), src, dst)
