"""Session field: canonical forms, cyclotomic arithmetic, exact roots."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from nahmkit import field, schema
from nahmkit.errors import FieldExtensionRequired, InputError
from nahmkit.field import (
    FieldContext, cyclotomic_polynomial, p_add, p_divexact, p_gcd, p_mul, p_neg, p_sub, reduced,
    scalar_sqrt,
)


@pytest.fixture(scope="module")
def ctx():
    return FieldContext(M=12, symbols=("x", "y"))


def _coords(a):
    """The power-basis coordinates of a cyclotomic element, as Fractions."""
    return tuple(Fraction(c, a[-1]) for c in a[:-1])


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


def _fraction_sort_key(s):
    """The sort key as it was once computed, through a Fraction for each
    cyclotomic coordinate."""
    def enc(p):
        return tuple(
            (m, tuple((c.numerator, c.denominator) for c in _coords(v)))
            for m, v in sorted(p.items())
        )

    return (enc(s.num), enc(s.den))


def test_sort_key_matches_the_fraction_formula():
    ctx = FieldContext(M=12, symbols=("x1", "x2"))
    rng = random.Random(12)
    zeta, x1, x2 = ctx.zeta(12), ctx.sym("x1"), ctx.sym("x2")

    def poly():
        out = ctx.zero
        for _ in range(rng.randint(1, 4)):
            c = Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 6, 12]))
            out = out + ctx.rational(c) * zeta ** rng.randint(0, 5) \
                * x1 ** rng.randint(0, 2) * x2 ** rng.randint(0, 1)
        return out

    negative = shared = 0
    for _ in range(200):
        s = poly() if rng.random() < 0.3 else poly() / (poly() + x1)
        assert s.sort_key() == _fraction_sort_key(s)
        for v in list(s.num.values()) + list(s.den.values()):
            negative += any(c < 0 for c in v[:-1])
            shared += any(c and gcd(c, v[-1]) > 1 for c in v[:-1])
    assert negative and shared


def _fraction_cyc_str(ctx, c):
    """The text of a cyclotomic coefficient as it was once printed, through
    a Fraction for each coordinate."""
    terms = []
    for i, q in enumerate(_coords(c)):
        if not q:
            continue
        if i == 0:
            terms.append(str(q))
        else:
            z = f"zeta{ctx.N}" + (f"^{i}" if i > 1 else "")
            terms.append(z if q == 1 else f"{q}*{z}")
    return " + ".join(terms) if terms else "0"


def test_cyc_str_matches_the_fraction_formula(ctx):
    """Seeded coefficients of Q(zeta_12) with zero, unit, negative and
    non-integral coordinates print as they did through Fractions."""
    cf = ctx.cyc
    rng = random.Random(14)
    seen = set()
    for _ in range(300):
        coords = [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 6]))
                  if rng.random() < 0.6 else Fraction(0) for _ in range(cf.degree)]
        c = cf.from_coords(coords)
        assert field._cyc_str(ctx, c) == _fraction_cyc_str(ctx, c), coords
        seen.update(q for q in coords if q in (0, 1, -1) or q.denominator > 1)
    assert {0, 1, -1} <= seen and any(q.denominator > 1 for q in seen)


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
        coords = [sympy.Rational(q.numerator, q.denominator) for q in _coords(a)]
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
        assert cf.from_coords(_coords(r)) == r
    assert _coords(a) == tuple(ca)


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


# -- sums, products and negations built directly, against reduction --

DIRECT_FIELDS = [(4, ("x",)), (4, ("x", "y")), (12, ("x",)), (12, ("x", "y"))]
DIRECT_IDS = ["Q(i)-x", "Q(i)-xy", "Q(zeta12)-x", "Q(zeta12)-xy"]
OPERAND_KINDS = ("poly", "term", "ratfun")


def _coefficient(cf, rng):
    while True:
        c = cf.from_coords([
            Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) if rng.random() < 0.6
            else Fraction(0)
            for _ in range(cf.degree)
        ])
        if not cf.is_zero(c):
            return c


def _poly(ctx, rng, terms):
    return {
        tuple(rng.randint(0, 2) for _ in range(ctx.nvars)): _coefficient(ctx.cyc, rng)
        for _ in range(terms)
    }


def _operand(ctx, rng, kind):
    """A polynomial, a one-term polynomial or a true rational function; half
    of the rational functions are built over a common factor."""
    if kind != "ratfun":
        return reduced(ctx, _poly(ctx, rng, 1 if kind == "term" else rng.randint(1, 3)),
                       ctx.unit)
    cf = ctx.cyc
    while True:
        g = _poly(ctx, rng, rng.randint(1, 2)) if rng.random() < 0.5 else ctx.unit
        s = reduced(ctx, p_mul(cf, _poly(ctx, rng, rng.randint(1, 3)), g),
                    p_mul(cf, _poly(ctx, rng, rng.randint(1, 3)), g))
        if s.den != ctx.unit:
            return s


def _operand_pairs(ctx, seed, per_kind_pair):
    rng = random.Random(seed)
    for ka in OPERAND_KINDS:
        for kb in OPERAND_KINDS:
            for _ in range(per_kind_pair):
                yield _operand(ctx, rng, ka), _operand(ctx, rng, kb)


def _unreduced(a, b):
    """The parts of a+b, a-b and a*b as the general formulas give them."""
    cf = a.ctx.cyc
    den = p_mul(cf, a.den, b.den)
    left, right = p_mul(cf, a.num, b.den), p_mul(cf, b.num, a.den)
    return {
        "add": (a + b, p_add(cf, left, right), den),
        "sub": (a - b, p_sub(cf, left, right), den),
        "mul": (a * b, p_mul(cf, a.num, b.num), den),
    }


@pytest.mark.parametrize("M, symbols", DIRECT_FIELDS, ids=DIRECT_IDS)
def test_direct_arithmetic_is_what_reduction_gives(M, symbols):
    ctx = FieldContext(M=M, symbols=symbols)
    cf = ctx.cyc
    for a, b in _operand_pairs(ctx, M + len(symbols), 6):
        for op, (got, num, den) in _unreduced(a, b).items():
            want = reduced(ctx, num, den)
            assert (got.num, got.den) == (want.num, want.den), (op, a, b)
        neg = reduced(ctx, p_neg(cf, a.num), a.den)
        assert ((-a).num, (-a).den) == (neg.num, neg.den), a
        assert (a - a).num == {} and (a - a).den == ctx.unit


def _sympy_converter(ctx):
    """The map from polynomial dicts of the session to sympy Polys over
    Q(zeta_N), for N = 4 and 12; skips the test without sympy."""
    sympy = pytest.importorskip("sympy")
    zeta = {4: sympy.I, 12: (sympy.sqrt(3) + sympy.I) / 2}[ctx.N]
    K = sympy.QQ.algebraic_field(zeta)
    gens = sympy.symbols(ctx.symbols)
    powers = [K.from_sympy(zeta) ** i for i in range(ctx.cyc.degree)]

    def to_sympy(p):
        terms = {
            m: sum((K.from_sympy(sympy.Rational(q.numerator, q.denominator)) * z
                    for q, z in zip(_coords(c), powers)), K.zero)
            for m, c in p.items()
        }
        return sympy.Poly.from_dict(terms or {(0,) * len(gens): K.zero}, *gens, domain=K)

    return to_sympy


@pytest.mark.parametrize("M, symbols", DIRECT_FIELDS, ids=DIRECT_IDS)
def test_direct_arithmetic_matches_sympy_cancel(M, symbols):
    """The canonical form is sympy's cancel of the same value, with the
    denominator made monic in its lex-leading term."""
    ctx = FieldContext(M=M, symbols=symbols)
    to_sympy = _sympy_converter(ctx)
    for a, b in _operand_pairs(ctx, 100 + M + len(symbols), 2):
        for op, (got, num, den) in _unreduced(a, b).items():
            p, q = to_sympy(num).cancel(to_sympy(den), include=True)
            assert to_sympy(got.den) == q.monic(), (op, a, b)
            assert to_sympy(got.num) == p.exquo_ground(q.LC()), (op, a, b)


@pytest.mark.parametrize("M, symbols", DIRECT_FIELDS, ids=DIRECT_IDS)
def test_direct_inverse_is_what_reduction_gives(M, symbols):
    ctx = FieldContext(M=M, symbols=symbols)
    for a, b in _operand_pairs(ctx, 200 + M + len(symbols), 4):
        for x in (a, b):
            want = reduced(ctx, x.den, x.num)
            got = x.inverse()
            assert (got.num, got.den) == (want.num, want.den), x
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()


@pytest.mark.parametrize("M, symbols", DIRECT_FIELDS, ids=DIRECT_IDS)
def test_adding_zero_returns_the_other_summand(M, symbols):
    ctx = FieldContext(M=M, symbols=symbols)
    rng = random.Random(300 + M + len(symbols))
    for kind in OPERAND_KINDS:
        for _ in range(4):
            x = _operand(ctx, rng, kind)
            for got in (x + 0, 0 + x, x + ctx.zero, ctx.zero + x):
                assert (got.num, got.den) == (x.num, x.den), (kind, x)
    assert ctx.zero + ctx.zero == ctx.zero


# -- residues modulo a word-size prime --


def _largest_prime_below_2_31(N):
    def prime(n):
        return n > 1 and all(n % q for q in range(2, int(n ** 0.5) + 1))

    p = (2 ** 31 - 2) // N * N + 1
    while not prime(p):
        p -= N
    return p


@pytest.mark.parametrize("M", [1, 3, 5, 12, 60])
def test_residue_prime_and_root_of_unity(M):
    ctx = FieldContext(M=M, symbols=("x",))
    res = ctx.residues
    assert res is ctx.residues
    p, N = res.p, ctx.N
    assert p == _largest_prime_below_2_31(N) and p % N == 1
    r = res.zeta_powers[1]
    assert sum(c * pow(r, i, p) for i, c in enumerate(cyclotomic_polynomial(N))) % p == 0
    assert [e for e in range(1, N + 1) if pow(r, e, p) == 1] == [N]
    assert res.zeta_powers == tuple(pow(r, i, p) for i in range(ctx.cyc.degree))


def test_residues_are_built_once_into_an_existing_slot():
    ctx = FieldContext(M=12, symbols=("x",))
    names = set(vars(ctx))
    res = ctx.residues
    assert ctx.residues is res
    assert set(vars(ctx)) == names


@pytest.mark.parametrize("M, symbols", DIRECT_FIELDS, ids=DIRECT_IDS)
def test_residue_map_is_a_ring_map(M, symbols):
    ctx = FieldContext(M=M, symbols=symbols)
    res = ctx.residues
    p = res.p
    assert res(ctx.zeta(ctx.N)) == res.zeta_powers[1]
    assert [res(ctx.sym(s)) for s in symbols] == list(res.point)
    for a, b in _operand_pairs(ctx, 300 + M + len(symbols), 4):
        ra, rb = res(a), res(b)
        assert ra is not None and rb is not None
        assert res(a + b) == (ra + rb) % p
        assert res(a - b) == (ra - rb) % p
        assert res(a * b) == ra * rb % p
        if ra:
            assert res(a.inverse()) == pow(ra, -1, p)


def test_residue_map_has_no_image_where_the_denominator_vanishes():
    ctx = FieldContext(M=12, symbols=("x", "y"))
    res = ctx.residues
    x = ctx.sym("x")
    at = ctx.rational(res.point[0])
    assert res(x - at) == 0
    assert res((x - at).inverse()) is None
    assert res(ctx.rational(Fraction(1, res.p))) is None


# -- polynomial gcds: the degree bound modulo p, then the PRS --

GCD_FIELDS = [(4, ("x1", "x2")), (12, ("x1", "x2", "x3", "x4"))]


def _gcd_pairs(ctx, seed, count):
    """Seeded (a, b): a common factor or none, and a third of the pairs with
    one input dividing the other."""
    rng = random.Random(seed)
    cf = ctx.cyc
    for i in range(count):
        g = _poly(ctx, rng, rng.randint(2, 3)) if i % 2 else ctx.unit
        a = p_mul(cf, g, _poly(ctx, rng, rng.randint(1, 3)))
        if i % 3 == 0:
            yield a, p_mul(cf, a, _poly(ctx, rng, rng.randint(1, 2)))
        else:
            yield a, p_mul(cf, g, _poly(ctx, rng, rng.randint(1, 3)))


def _monic(ctx, p):
    """p divided by its lex-leading coefficient."""
    return field._normalize_gcd(ctx.cyc, p)


@pytest.mark.parametrize("M, symbols", GCD_FIELDS, ids=["Q(i)-x1x2", "Q(zeta12)-x1..x4"])
def test_p_gcd_matches_sympy(M, symbols):
    ctx = FieldContext(M=M, symbols=symbols)
    to_sympy = _sympy_converter(ctx)
    cf = ctx.cyc
    equal_to_input = 0
    for a, b in _gcd_pairs(ctx, 40 + M, 18):
        got = p_gcd(cf, a, b)
        assert to_sympy(got) == to_sympy(a).gcd(to_sympy(b)).monic(), (a, b)
        assert p_divexact(cf, a, got) is not None and p_divexact(cf, b, got) is not None
        equal_to_input += got in (_monic(ctx, a), _monic(ctx, b))
    assert equal_to_input >= 6


def _count_prs(monkeypatch):
    calls = [0]
    gcd_uni = field._gcd_uni

    def counted(*args):
        calls[0] += 1
        return gcd_uni(*args)

    monkeypatch.setattr(field, "_gcd_uni", counted)
    return calls


def _mono_min(a, b):
    """The common monomial content of a and b."""
    return tuple(map(min, *a, *b))


def test_coprime_pairs_never_reach_the_prs(monkeypatch):
    ctx = FieldContext(M=12, symbols=("x1", "x2", "x3", "x4"))
    cf = ctx.cyc
    rng = random.Random(7)
    calls = _count_prs(monkeypatch)
    for _ in range(40):
        a = _poly(ctx, rng, rng.randint(2, 4))
        b = _poly(ctx, rng, rng.randint(2, 4))
        assert p_gcd(cf, a, b) == {_mono_min(a, b): cf.one}, (a, b)
    assert calls[0] == 0


def _residue_poly(ctx, terms):
    """sum c x1^i x2^j over terms {(i, j): c}, c rational."""
    return {m: ctx.cyc.from_rational(c) for m, c in terms.items() if c}


def test_vanishing_leading_coefficient_reaches_the_prs(monkeypatch):
    # g = (x1 - c1)(x2 - c2) + 1 with (c1, c2) the residue point: the
    # leading coefficients of a and b in x1 and in x2 vanish there, so the
    # images lose g and would bound its degree by 0
    ctx = FieldContext(M=12, symbols=("x1", "x2"))
    cf = ctx.cyc
    c1, c2 = ctx.residues.point
    g = _residue_poly(ctx, {(1, 1): 1, (1, 0): -c2, (0, 1): -c1, (0, 0): c1 * c2 + 1})
    a = p_mul(cf, g, _residue_poly(ctx, {(1, 0): 1, (0, 1): 1, (0, 0): 3}))
    b = p_mul(cf, g, _residue_poly(ctx, {(1, 0): 1, (0, 1): -1, (0, 0): 5}))
    calls = _count_prs(monkeypatch)
    assert p_gcd(cf, a, b) == _monic(ctx, g)
    assert calls[0] >= 1


def test_unlucky_pairs_fall_through_to_the_prs(monkeypatch):
    ctx = FieldContext(M=12, symbols=("x1", "x2"))
    cf = ctx.cyc
    c1, p = ctx.residues.point[0], ctx.residues.p
    one = {(0, 0): cf.one}
    calls = _count_prs(monkeypatch)
    # x2 + (x1 - c) and x2 + 2(x1 - c): coprime, images x2 and x2
    a = _residue_poly(ctx, {(0, 1): 1, (1, 0): 1, (0, 0): -c1})
    b = _residue_poly(ctx, {(0, 1): 1, (1, 0): 2, (0, 0): -2 * c1})
    assert p_gcd(cf, a, b) == one
    assert calls[0] == 1
    # x1 - c and x1 - c - p: the images are equal, so the bound is a's own
    # degree vector, and the trial division of b by a fails
    a = _residue_poly(ctx, {(1, 0): 1, (0, 0): -c1})
    b = _residue_poly(ctx, {(1, 0): 1, (0, 0): -c1 - p})
    assert p_gcd(cf, a, b) == one
    assert calls[0] == 2


def test_denominators_divisible_by_p_reach_the_prs(monkeypatch):
    # (x1 + 1/p)(x1 + 2) and (x1 + 1/p)(x1 + 3): no image mod p; read with
    # the denominators dropped they would be coprime
    ctx = FieldContext(M=12, symbols=("x1",))
    cf = ctx.cyc
    p = ctx.residues.p
    g = {(1,): cf.one, (0,): cf.from_rational(Fraction(1, p))}
    a = p_mul(cf, g, {(1,): cf.one, (0,): cf.from_rational(2)})
    b = p_mul(cf, g, {(1,): cf.one, (0,): cf.from_rational(3)})
    calls = _count_prs(monkeypatch)
    assert p_gcd(cf, a, b) == g
    assert calls[0] == 1
