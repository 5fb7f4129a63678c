"""Laurent matrices: Smith form, Newton polygon, kernels, inverses, and the
tracked precision of the characteristic polynomial."""

import random
from fractions import Fraction
from math import gcd

import pytest

from nahmkit import higgs
from nahmkit.errors import PrecisionExhausted
from nahmkit.field import FieldContext
from nahmkit.higgs import ElementaryBlock, HiggsGerm, goodness_decomposition, realize
from nahmkit.lmatrix import (
    LaurentMatrix,
    charpoly,
    determinant,
    invert_matrix,
    kernel_basis,
    newton_polygon,
    smith_normal_form,
)
from nahmkit.series import TruncatedLaurent as TL


@pytest.fixture(scope="module")
def ctx():
    return FieldContext(M=12, symbols=("a",))


def mono(ctx, c, e):
    return TL.monomial(ctx, c, e)


def one(ctx):
    return TL.from_scalar(ctx.one)


def test_snf_diagonal_sorted(ctx):
    z = mono(ctx, ctx.one, 1)
    m = LaurentMatrix(ctx, [[z, TL.zero(ctx)], [TL.zero(ctx), one(ctx)]])
    invs, L, R = smith_normal_form(m)
    assert [i.val for i in invs] == [0, 1]


def test_snf_gcd_of_minors_case(ctx):
    # [[z, 1], [0, z]]: gcd of entries 1, determinant z^2 -> (1, z^2)
    z = mono(ctx, ctx.one, 1)
    m = LaurentMatrix(ctx, [[z, one(ctx)], [TL.zero(ctx), z]])
    invs, L, R = smith_normal_form(m)
    assert [i.val for i in invs] == [0, 2]
    prod = L * m * R
    for i in range(2):
        for j in range(2):
            e = prod.entries[i][j]
            if i == j:
                assert e.val == invs[i].val and e.leading() == ctx.one
            else:
                assert not e.coeffs


def test_snf_identity(ctx):
    invs, _, _ = smith_normal_form(LaurentMatrix.identity(ctx, 3))
    assert [i.val for i in invs] == [0, 0, 0]


def test_snf_sum_equals_det_valuation_randomized(ctx):
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([2, 3])
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                d = rng.randint(0, 2)
                c = ctx.rational(rng.randint(1, 3))
                row.append(mono(ctx, c, d) if rng.random() < 0.8 else TL.zero(ctx))
            rows.append(row)
        # unit-perturb the diagonal so the matrix is nonsingular
        for i in range(n):
            rows[i][i] = rows[i][i] + TL(
                ctx, rng.randint(0, 2), (ctx.rational(rng.randint(1, 5)),), exact=True
            )
        m = LaurentMatrix(ctx, rows)
        det = determinant(m)
        if not det.coeffs:
            continue
        invs, _, _ = smith_normal_form(m)
        assert sum(i.val for i in invs) == det.val


def test_snf_requires_power_series(ctx):
    m = LaurentMatrix(ctx, [[mono(ctx, ctx.one, -1)]])
    with pytest.raises(Exception):
        smith_normal_form(m)


def test_snf_precision_error(ctx):
    z8 = TL.zero(ctx, prec=3, exact=False)  # zero to precision only
    m = LaurentMatrix(ctx, [[z8]])
    with pytest.raises(PrecisionExhausted):
        smith_normal_form(m)


def test_newton_polygon_examples(ctx):
    a = ctx.sym("a")
    np1 = newton_polygon([one(ctx), mono(ctx, -a, -1)])
    assert np1 == [(Fraction(1), 1)]
    np2 = newton_polygon([one(ctx), TL.zero(ctx), mono(ctx, -(a * a), -1)])
    assert np2 == [(Fraction(1, 2), 2)]
    np3 = newton_polygon([one(ctx), TL.zero(ctx), TL.zero(ctx)])
    assert np3 == [(Fraction(0), 2)]


def test_newton_polygon_properties(ctx):
    a = ctx.sym("a")
    coeffs = [one(ctx), mono(ctx, a, -1), mono(ctx, ctx.one, -3), mono(ctx, a, -2)]
    out = newton_polygon(coeffs)
    assert sum(mult for _, mult in out) == 3
    slopes = [s for s, _ in out]
    assert slopes == sorted(slopes)


def test_newton_polygon_unknown_coefficient(ctx):
    # middle coefficient zero only to precision; its bound (-3) does not
    # clear the hull through (0,0)-(2,-4), so nothing is certifiable
    c1 = TL.zero(ctx, prec=-3, exact=False)
    with pytest.raises(PrecisionExhausted):
        newton_polygon([one(ctx), c1, mono(ctx, ctx.one, -4)])
    # a bound strictly above the hull is certifiable, the hull stands
    c2 = TL.zero(ctx, prec=-1, exact=False)
    out = newton_polygon([one(ctx), c2, mono(ctx, ctx.one, -4)])
    assert out == [(Fraction(2), 2)]


def test_charpoly_matches_newton(ctx):
    a = ctx.sym("a")
    m = LaurentMatrix(ctx, [[TL.zero(ctx), one(ctx)], [mono(ctx, a * a, -1), TL.zero(ctx)]])
    cp = charpoly(m)
    assert newton_polygon(cp) == [(Fraction(1, 2), 2)]


def test_invert_and_kernel(ctx):
    z = mono(ctx, ctx.one, 1)
    m = LaurentMatrix(ctx, [[one(ctx), z], [TL.zero(ctx), one(ctx)]])
    inv = invert_matrix(m)
    prod = inv * m
    assert prod.agrees_with(LaurentMatrix.identity(ctx, 2))
    k = LaurentMatrix(ctx, [[one(ctx), z], [z, z * z]])
    basis, certified = kernel_basis(k)
    assert len(basis) == 1 and certified
    v = basis[0]
    image = [k.entries[i][0] * v[0] + k.entries[i][1] * v[1] for i in range(2)]
    assert all(not e.coeffs for e in image)


def _faddeev_leverrier(m):
    """Reference charpoly: Faddeev-LeVerrier on the series matrix, with the
    precision that series arithmetic tracks along its own route."""
    ctx, n = m.ctx, m.rows
    coeffs = [TL.from_scalar(ctx.one)]
    mk = m
    for k in range(1, n + 1):
        if k > 1:
            mk = m * (mk + LaurentMatrix.identity(ctx, n).scale(coeffs[-1]))
        tr = mk.entries[0][0]
        for i in range(1, n):
            tr = tr + mk.entries[i][i]
        coeffs.append(tr * ctx.rational(Fraction(-1, k)))
    return coeffs


def _series_key(cp):
    return [(c.val, c.coeffs, c.prec, c.exact) for c in cp]


#: every block shape with p + m <= 6
SHAPES = [(p, m) for p in range(1, 6) for m in range(6)
          if p + m <= 6 and (gcd(p, m) == 1 if m else p == 1)]
#: two blocks of distinct slopes, as the germ benchmark pairs them
PAIRS = [((1, 0), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (1, 2)), ((3, 1), (1, 1)),
         ((1, 0), (2, 1)), ((2, 3), (1, 1)), ((3, 2), (1, 0))]


def _block(ctx, shape, i):
    p, m = shape
    w = (Fraction(0), Fraction(-1, 3), Fraction(-3, 4))[i % 3]
    if m == 0:
        return ElementaryBlock.make(ctx, 1, 0, alpha=ctx.sym("a") + i, weights=(w,))
    return ElementaryBlock.make(ctx, p, m, lead=ctx.sym("a") + i, weights=(w,))


def _germs(ctx):
    for shapes in [[s] for s in SHAPES] + [list(pair) for pair in PAIRS]:
        blocks = [_block(ctx, s, i) for i, s in enumerate(shapes)]
        yield shapes, realize(HiggsGerm.from_blocks(ctx, blocks))


def test_charpoly_matches_the_reference_exactly(monkeypatch):
    """lmatrix.charpoly matches the reference in valuation, coefficients,
    precision and exactness, on the realized germ of every shape and pair
    and on every charpoly their goodness decompositions take."""
    ctx = FieldContext(M=12, symbols=("a",))
    seen = []

    def checked(m):
        cp = charpoly(m)
        assert _series_key(cp) == _series_key(_faddeev_leverrier(m))
        seen.append(m.rows)
        return cp

    monkeypatch.setattr(higgs, "charpoly", checked)
    for shapes, germ in _germs(ctx):
        checked(germ.theta)
        assert goodness_decomposition(germ).good, shapes
    assert max(seen) == 5 and len(seen) > 2 * (len(SHAPES) + len(PAIRS))


def test_charpoly_of_a_truncated_germ_loses_no_precision():
    """On the same germs known only modulo z^N, each coefficient is known at
    least as far as the reference knows it and agrees with it there, and
    with the charpoly of the exact germ, for every N, negative ones too."""
    ctx = FieldContext(M=12, symbols=("a",))
    for shapes, germ in _germs(ctx):
        exact = charpoly(germ.theta)
        for n in range(-4, 9):
            m = germ.theta.truncate(n)
            for c, ref, e in zip(charpoly(m), _faddeev_leverrier(m), exact):
                assert not c.exact or ref.exact, (shapes, n)
                assert c.eff_prec() >= ref.eff_prec(), (shapes, n)
                assert c.agrees_with(ref), (shapes, n)
                assert c.agrees_with(e), (shapes, n)
