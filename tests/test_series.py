"""Truncated Laurent series: the arithmetic and precision contracts."""

import math
from fractions import Fraction

import pytest

from nahmkit.errors import PrecisionExhausted
from nahmkit.field import FieldContext, Scalar
from nahmkit.series import TruncatedLaurent as TL, series_arith


@pytest.fixture(scope="module")
def ctx():
    return FieldContext(M=12, symbols=("a",))


def test_geometric_series(ctx):
    s = TL(ctx, 0, (ctx.one, ctx.rational(-1)))  # 1 - z
    inv = series_arith(s, None, "invert", prec=4)
    assert inv.val == 0 and inv.prec == 4
    assert [c.as_fraction() for c in inv.coeffs] == [1, 1, 1, 1]


def test_monomial_product_exact(ctx):
    a = TL.monomial(ctx, ctx.one, -1)
    b = TL.monomial(ctx, ctx.one, 1)
    prod = series_arith(a, b, "mul")
    assert prod.prec == math.inf and prod.val == 0 and len(prod.coeffs) == 1
    assert prod.coeffs[0] == ctx.one


def test_invert_two_plus_z(ctx):
    # long-division oracle by hand: 1/2 - z/4 + z^2/8
    s = TL(ctx, 0, (ctx.rational(2), ctx.one))
    inv = s.invert(prec=3)
    expected = [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8)]
    assert [c.as_fraction() for c in inv.coeffs] == expected
    assert inv.prec == 3
    # and it really is an inverse to the certified precision
    assert (inv * s).agrees_with(TL.from_scalar(ctx.one), prec=3)


def test_invert_tracks_relative_precision(ctx):
    s = TL(ctx, 2, (ctx.rational(3), ctx.one), prec=6)  # val 2, prec 6
    inv = s.invert()
    assert inv.val == -2 and inv.prec == 6 - 2 * 2


def test_mul_precision_rule(ctx):
    a = TL(ctx, 0, (ctx.one,), prec=3)
    b = TL.monomial(ctx, ctx.one, -2)
    p = a * b
    assert p.val == -2 and p.prec == 1


def test_product_of_zeros_to_negative_precision(ctx):
    # O(z^-2) * O(z^-2) is only known modulo z^-4
    a = TL.zero(ctx, -2)
    p = a * a
    assert p.is_zero() and p.prec == -4
    # a factor zero to a positive precision p has valuation at least p
    b = TL.zero(ctx, 3)
    assert (a * b).prec == 1 and (b * b).prec == 6


def test_zero_distinction(ctx):
    exact0 = TL.zero(ctx)
    prec0 = TL.zero(ctx, 5)
    assert exact0.is_exact_zero() and not prec0.is_exact_zero()
    assert prec0.is_zero()
    with pytest.raises(ZeroDivisionError):
        prec0.invert()


def test_coeff_beyond_precision_raises(ctx):
    s = TL(ctx, 0, (ctx.one,), prec=2)
    assert s.coeff(1).is_zero()
    with pytest.raises(PrecisionExhausted):
        s.coeff(2)


def test_str_forms(ctx):
    a, one = ctx.sym("a"), ctx.one
    exact = TL(ctx, -1, (one, ctx.zero, ctx.rational(2), a + one))
    assert str(exact) == "z^-1 + 2*z + (a + 1)*z^2"
    known = TL(ctx, 0, (ctx.rational(Fraction(-1, 3)), a), prec=4)
    assert str(known) == "(-1/3) + a*z + O(z^4)"
    assert str(TL.zero(ctx)) == "0"
    assert str(TL.zero(ctx, 3)) == "0 + O(z^3)"


def test_substitute_power_and_twist(ctx):
    s = TL(ctx, -1, (ctx.one, ctx.rational(5)), prec=2)
    t = s.substitute_power(3)
    assert t.val == -3 and t.prec == 6
    assert t.coeff(0).as_fraction() == 5
    tw = s.galois_twist(ctx.rational(-1))
    assert tw.coeff(-1).as_fraction() == -1
    assert tw.coeff(0).as_fraction() == 5


def test_addition_cancellation_shifts_valuation(ctx):
    a = TL(ctx, 0, (ctx.one, ctx.one))
    b = TL(ctx, 0, (ctx.rational(-1), ctx.one))
    s = a + b
    assert s.val == 1 and s.coeffs[0].as_fraction() == 2


def test_adding_a_zero_to_precision_only_truncates(ctx):
    s = TL(ctx, 1, (ctx.one, ctx.rational(2), ctx.rational(3)))
    for p, kept in ((2, 1), (3, 2), (9, 3), (0, 0)):
        z = TL.zero(ctx, p)
        for out in (s + z, z + s, s - z, z - s):
            assert out.prec == p
            assert [abs(c.as_fraction()) for c in out.coeffs] == [1, 2, 3][:kept]
    # two zeros keep the lower precision
    a, b = TL.zero(ctx, 2), TL.zero(ctx, 5)
    assert (a + b).prec == (b - a).prec == 2 and (a + b).is_zero()


def test_addition_stops_at_the_supports(ctx, monkeypatch):
    """Past both supports every coefficient sum is zero + zero: the sum of
    1 + O(z^40) and a z + O(z^40) computes two coefficients, not forty."""
    calls = []
    real = Scalar.__add__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(Scalar, "__add__", counting)
    a = ctx.sym("a")
    s = TL(ctx, 0, (ctx.one,), 40) + TL(ctx, 1, (a,), 40)
    monkeypatch.undo()
    assert len(calls) == 2
    assert s == TL(ctx, 0, (ctx.one, a), 40)


def test_series_ring_laws_randomized(ctx):
    import random

    rng = random.Random(17)

    def rand_series():
        val = rng.randint(-2, 2)
        coeffs = [ctx.rational(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            return TL(ctx, val, coeffs)
        return TL(ctx, val, coeffs, prec=val + rng.randint(2, 5))

    for _ in range(60):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert ((a + b) + c).agrees_with(a + (b + c))
        assert ((a * b) * c).agrees_with(a * (b * c))
        assert (a * (b + c)).agrees_with(a * b + a * c)


def test_equality_compares_session_precision_and_coefficients(ctx):
    one, two = ctx.one, ctx.rational(2)
    exact = TL(ctx, 0, (one, two))
    known = TL(ctx, 0, (one, two), prec=3)
    assert exact != known and known != exact
    assert exact == TL(ctx, 0, (one, two)) and known == TL(ctx, 0, (one, two), prec=3)
    assert TL.zero(ctx) != TL.zero(ctx, 3)
    other = FieldContext(M=12, symbols=("a",))
    assert TL(other, 0, (other.one, other.rational(2))) != exact
    assert (exact == 1) is False and (exact == "1 + 2*z") is False
