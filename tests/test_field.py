"""Session field: canonical forms, cyclotomic arithmetic, exact roots."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from nahmkit import schema
from nahmkit.errors import FieldExtensionRequired, InputError
from nahmkit.field import FieldContext, cyclotomic_polynomial, scalar_sqrt


@pytest.fixture(scope="module")
def ctx():
    return FieldContext(M=12, symbols=("x", "y"))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_roots_of_unity(ctx):
    z = ctx.zeta(12)
    assert z ** 12 == ctx.one
    assert z ** 6 == ctx.rational(-1)
    assert all(z ** k != ctx.one for k in range(1, 12))
    i = ctx.zeta(4)
    assert i * i == ctx.rational(-1)


def test_field_never_silently_enlarged(ctx):
    with pytest.raises(FieldExtensionRequired):
        ctx.zeta(5)
    assert ctx.has_root_of_unity(3)
    assert not ctx.has_root_of_unity(8)


def test_canonical_fraction_reduction(ctx):
    x, y = ctx.sym("x"), ctx.sym("y")
    q = (x * x - y * y) / (x - y)
    assert q == x + y
    r = (x * x * y + 2 * x * y + y) / (x + 1)
    assert r == (x + 1) * y


def test_equality_is_structural(ctx):
    x, y = ctx.sym("x"), ctx.sym("y")
    a = (x + y) / (ctx.one + x)
    b = (y + x) / (x + ctx.one)
    assert a == b and hash(a) == hash(b)


def test_sort_key_total_and_stable(ctx):
    x, y = ctx.sym("x"), ctx.sym("y")
    vals = [x, y, x + y, ctx.rational(Fraction(3, 7)), x * y]
    keys = [v.sort_key() for v in vals]
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == sorted(keys)  # comparable without error


def test_scalar_sqrt(ctx):
    x = ctx.sym("x")
    v = (x + 1) * (x + 1) * ctx.rational(Fraction(9, 4))
    s = scalar_sqrt(v)
    assert s is not None and s * s == v
    assert scalar_sqrt(x) is None
    d = (x - ctx.sym("y")) ** 2
    s2 = scalar_sqrt(d)
    assert s2 is not None and s2 * s2 == d


def test_mixing_sessions_rejected(ctx):
    other = FieldContext(M=12, symbols=("x", "y"))
    with pytest.raises(InputError):
        ctx.sym("x") + other.sym("x")


def test_undeclared_symbol(ctx):
    with pytest.raises(InputError):
        ctx.sym("zz")


small_rats = st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 4)
)


@st.composite
def scalars(draw):
    ctx = scalars.ctx
    x, y = ctx.sym("x"), ctx.sym("y")
    q = ctx.rational(draw(small_rats))
    parts = [q]
    if draw(st.booleans()):
        parts.append(x * ctx.rational(draw(small_rats)))
    if draw(st.booleans()):
        parts.append(y * ctx.rational(draw(small_rats)))
    if draw(st.booleans()):
        parts.append(ctx.zeta(12) * ctx.rational(draw(small_rats)))
    num = sum(parts[1:], parts[0])
    if draw(st.booleans()):
        den = x + ctx.rational(draw(st.integers(1, 3)))
        return num / den
    return num


scalars.ctx = FieldContext(M=12, symbols=("x", "y"))


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_inverse_when_nonzero(a):
    if not a.is_zero():
        assert a * a.inverse() == scalars.ctx.one


# -- the integer Q(zeta_N) kernel --


def _random_element(cf, rng):
    """An element with seeded rational coordinates of mixed denominators."""
    return cf.from_coords([
        Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 6, 7, 9, 10)))
        if rng.random() < 0.7 else Fraction(0)
        for _ in range(cf.degree)
    ])


@pytest.mark.parametrize("N", [4, 12, 24])
def test_kernel_matches_sympy(N):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    phi = sympy.Poly(sympy.cyclotomic_poly(N, z), z, domain="QQ")
    cf = FieldContext(M=N, symbols=("x",)).cyc

    def to_poly(a):
        coords = [sympy.Rational(q.numerator, q.denominator) for q in cf.coords(a)]
        return sympy.Poly(list(reversed(coords)), z, domain="QQ")

    def from_poly(p):
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.rem(phi).all_coeffs())]
        return cf.from_coords(coeffs + [Fraction(0)] * (cf.degree - len(coeffs)))

    rng = random.Random(N)
    for _ in range(40):
        a, b = _random_element(cf, rng), _random_element(cf, rng)
        pa, pb = to_poly(a), to_poly(b)
        assert cf.mul(a, b) == from_poly(pa * pb)
        assert cf.add(a, b) == from_poly(pa + pb)
        assert cf.sub(a, b) == from_poly(pa - pb)
        if not cf.is_zero(a):
            assert cf.inv(a) == from_poly(sympy.invert(pa, phi))


def _canonical(cf, a):
    return len(a) == cf.degree + 1 and a[-1] > 0 and gcd(*a) == 1


kernel_field = FieldContext(M=12, symbols=("x",)).cyc
coordinate_lists = st.lists(
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    min_size=kernel_field.degree, max_size=kernel_field.degree,
)


@settings(max_examples=80, deadline=None)
@given(coordinate_lists, coordinate_lists)
def test_kernel_results_are_canonical(ca, cb):
    cf = kernel_field
    a, b = cf.from_coords(ca), cf.from_coords(cb)
    results = [a, b, cf.add(a, b), cf.sub(a, b), cf.neg(a), cf.mul(a, b)]
    if not cf.is_zero(a):
        results.append(cf.inv(a))
    for r in results:
        assert _canonical(cf, r)
        assert cf.from_coords(cf.coords(r)) == r
    assert cf.coords(a) == tuple(ca)


def test_schema_keeps_reduced_coordinates():
    ctx = FieldContext(M=12, symbols=("x1",))
    z = ctx.zeta(12)
    s = (ctx.rational(Fraction(1, 2)) + ctx.rational(Fraction(3, 7)) * z ** 3) / ctx.sym("x1")
    obj = schema.scalar_to_json(s)
    assert obj["num"] == [{"m": [0], "c": [
        {"num": 1, "den": 2}, {"num": 0, "den": 1},
        {"num": 0, "den": 1}, {"num": 3, "den": 7},
    ]}]
    assert schema.scalar_from_json(ctx, obj) == s
