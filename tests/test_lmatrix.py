"""Laurent matrices: Smith form, Newton polygon, kernels, solutions of
m X = b, and the tracked precision of the characteristic polynomial."""

import itertools
import math
import random
from fractions import Fraction
from math import gcd

import pytest

from nahmkit import higgs, linalg
from nahmkit.errors import InputError, PrecisionExhausted
from nahmkit.field import FieldContext
from nahmkit.higgs import ElementaryBlock, HiggsGerm, goodness_decomposition, realize
from nahmkit.lmatrix import (
    LaurentMatrix,
    charpoly,
    determinant,
    kernel_basis,
    newton_polygon,
    smith_normal_form,
    solve,
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
    invs = smith_normal_form(m)
    assert [i.val for i in invs] == [0, 1]


def test_snf_gcd_of_minors_case(ctx):
    # [[z, 1], [0, z]]: gcd of entries 1, determinant z^2 -> (1, z^2)
    z = mono(ctx, ctx.one, 1)
    m = LaurentMatrix(ctx, [[z, one(ctx)], [TL.zero(ctx), z]])
    invs = smith_normal_form(m)
    assert [i.val for i in invs] == [0, 2]


def test_snf_identity(ctx):
    invs = smith_normal_form(LaurentMatrix.identity(ctx, 3))
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
                ctx, rng.randint(0, 2), (ctx.rational(rng.randint(1, 5)),)
            )
        m = LaurentMatrix(ctx, rows)
        det = determinant(m)
        if not det.coeffs:
            continue
        invs = smith_normal_form(m)
        assert sum(i.val for i in invs) == det.val


def test_snf_requires_power_series(ctx):
    m = LaurentMatrix(ctx, [[mono(ctx, ctx.one, -1)]])
    with pytest.raises(Exception):
        smith_normal_form(m)


def test_snf_precision_error(ctx):
    z8 = TL.zero(ctx, 3)  # zero to precision only
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
    c1 = TL.zero(ctx, -3)
    with pytest.raises(PrecisionExhausted):
        newton_polygon([one(ctx), c1, mono(ctx, ctx.one, -4)])
    # a bound strictly above the hull is certifiable, the hull stands
    c2 = TL.zero(ctx, -1)
    out = newton_polygon([one(ctx), c2, mono(ctx, ctx.one, -4)])
    assert out == [(Fraction(2), 2)]


def test_newton_polygon_unknown_trailing_coefficient(ctx):
    # T + O(z^3): the trailing coefficient may be zero or z^3, so the last
    # vertex of the polygon is unknown at this precision
    with pytest.raises(PrecisionExhausted, match="trailing Newton-polygon coefficient"):
        newton_polygon([one(ctx), TL.zero(ctx, 3)])


def test_charpoly_matches_newton(ctx):
    a = ctx.sym("a")
    m = LaurentMatrix(ctx, [[TL.zero(ctx), one(ctx)], [mono(ctx, a * a, -1), TL.zero(ctx)]])
    cp = charpoly(m)
    assert newton_polygon(cp) == [(Fraction(1, 2), 2)]


def test_invert_and_kernel(ctx):
    z = mono(ctx, ctx.one, 1)
    m = LaurentMatrix(ctx, [[one(ctx), z], [TL.zero(ctx), one(ctx)]])
    inv = solve(m, LaurentMatrix.identity(ctx, 2))
    prod = inv * m
    assert prod.agrees_with(LaurentMatrix.identity(ctx, 2))
    k = LaurentMatrix(ctx, [[one(ctx), z], [z, z * z]])
    basis, certified = kernel_basis(k)
    assert len(basis) == 1 and certified
    v = basis[0]
    image = [k.entries[i][0] * v[0] + k.entries[i][1] * v[1] for i in range(2)]
    assert all(not e.coeffs for e in image)


def test_solve_full_column_rank(ctx):
    """A 3 x 2 m of full column rank: a consistent rhs gives the exact X, an
    inconsistent one None; a rank-deficient m, or an rhs of another
    height, is refused."""
    z = mono(ctx, ctx.one, 1)
    zero = TL.zero(ctx)
    m = LaurentMatrix(ctx, [[one(ctx), z], [zero, one(ctx)], [z, zero]])
    x = LaurentMatrix(ctx, [[z, one(ctx)], [one(ctx), z * z]])
    rhs = m * x
    sol = solve(m, rhs)
    assert sol.entries == x.entries and all(e.prec == math.inf for row in sol.entries for e in row)
    assert (m * sol).agrees_with(rhs)
    # e_3 is not in the span of m's columns
    assert solve(m, LaurentMatrix(ctx, [[zero], [zero], [one(ctx)]])) is None
    deficient = LaurentMatrix(ctx, [[one(ctx), z], [z, z * z], [zero, zero]])
    with pytest.raises(InputError, match="full column rank"):
        solve(deficient, rhs)
    with pytest.raises(InputError, match="shape mismatch"):
        solve(m, x)


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
    return [(c.val, c.coeffs, c.prec) for c in cp]


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
                assert c.prec != math.inf or ref.prec == math.inf, (shapes, n)
                assert c.prec >= ref.prec, (shapes, n)
                assert c.agrees_with(ref), (shapes, n)
                assert c.agrees_with(e), (shapes, n)


def _horner_with_identities(ctx, coeffs, A):
    """The former Horner loop, with a scaled identity per coefficient."""
    out = LaurentMatrix.identity(ctx, A.rows).scale(coeffs[0])
    for c in coeffs[1:]:
        out = out * A + LaurentMatrix.identity(ctx, A.rows).scale(c)
    return out


def _matrix_key(m):
    return [_series_key(row) for row in m.entries]


def test_eval_poly_at_matrix_matches_the_identity_formula(monkeypatch):
    """Adding each coefficient to the diagonal gives the same matrix, entry
    for entry in valuation, coefficients, precision and exactness, as the
    formula with scaled identities: on every polynomial the goodness
    decompositions evaluate, and on each germ's charpoly, exact and
    truncated, at the germ."""
    ctx = FieldContext(M=12, symbols=("a",))
    evaluate = higgs._eval_poly_at_matrix
    seen = []

    def checked(ctx_, coeffs, A):
        out = evaluate(ctx_, coeffs, A)
        assert _matrix_key(out) == _matrix_key(_horner_with_identities(ctx_, coeffs, A))
        return out

    def recorded(ctx_, coeffs, A):
        seen.append(A.rows)
        return checked(ctx_, coeffs, A)

    monkeypatch.setattr(higgs, "_eval_poly_at_matrix", recorded)
    for shapes, germ in _germs(ctx):
        assert goodness_decomposition(germ).good, shapes
        for n in (None, 0, 3):
            m = germ.theta if n is None else germ.theta.truncate(n)
            checked(ctx, charpoly(m), m)
    assert len(seen) >= 2 * len(PAIRS) and max(seen) > 1


# ----------------------------------------------------------------------
# the elimination core against independent routes
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tctx():
    return FieldContext(M=12, symbols=("t",))


def _poly(ctx, rng, lo):
    """An exact Laurent polynomial with up to three terms from z^lo on, or
    an exact zero one time in four."""
    if rng.random() < 0.25:
        return TL.zero(ctx)
    coeffs = [ctx.rational(rng.choice([-3, -2, -1, 1, 2, 3])) if rng.random() < 0.7
              else ctx.zero for _ in range(3)]
    return TL(ctx, rng.randint(lo, 1), coeffs)


def _full_rank(ctx, rng, nrows, ncols, lo):
    """A random Laurent-polynomial matrix whose leading square block has a
    nonzero determinant, so that it has full rank."""
    k = min(nrows, ncols)
    while True:
        rows = [[_poly(ctx, rng, lo) for _ in range(ncols)] for _ in range(nrows)]
        if not k or charpoly(LaurentMatrix(ctx, [row[:k] for row in rows[:k]]))[-1].coeffs:
            return rows


def _of_rank(ctx, rng, nrows, ncols, rank, lo):
    """An nrows x ncols matrix of the given rank, rows and columns shuffled.

    Full rank: a random matrix.  Lower rank: a random block A of rank
    rank - 1 (possibly with no rows, which leaves zero columns) beside a
    rank-one block of monomials u_i v_j z^(a_i + b_j), some u_i and v_j
    zero.  Eliminating the rank-one block stays exact, so nothing is left
    that vanishes only to precision."""
    if rank == min(nrows, ncols):
        rows = _full_rank(ctx, rng, nrows, ncols, lo)
    else:
        k = rank - 1
        if rng.random() < 0.5:
            ar, ac = k, rng.randint(k, ncols - 1)
        else:
            ar, ac = rng.randint(k, nrows - 1), k
        zero = TL.zero(ctx)
        rows = [row + [zero] * (ncols - ac) for row in _full_rank(ctx, rng, ar, ac, lo)]
        u = [rng.choice([0, 1, 2, -3]) for _ in range(nrows - ar)]
        v = [rng.choice([0, 1, -1, 2]) for _ in range(ncols - ac)]
        u[0] = v[0] = 1
        a = [rng.randint(max(lo, 0), 2) for _ in u]
        b = [rng.randint(lo, 1) for _ in v]
        for ui, ai in zip(u, a):
            rows.append([zero] * ac + [
                TL.monomial(ctx, ctx.rational(ui * vj), ai + bj) if ui * vj else zero
                for vj, bj in zip(v, b)
            ])
    rng.shuffle(rows)
    order = list(range(ncols))
    rng.shuffle(order)
    return LaurentMatrix(ctx, [[row[j] for j in order] for row in rows])


def _cases(ctx, rng, lo, square=False):
    """Seeded 1 x 1 to 5 x 5 inputs: each shape at full rank, and at one
    lower rank but 0 where there is one."""
    for nrows in range(1, 6):
        for ncols in [nrows] if square else range(1, 6):
            full = min(nrows, ncols)
            for rank in [full] + ([rng.randint(1, full - 1)] if full > 1 else []):
                yield rank, _of_rank(ctx, rng, nrows, ncols, rank, lo)


def _sign(perm):
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


def _leibniz(ctx, m, rows, cols):
    total = TL.zero(ctx)
    for perm in itertools.permutations(cols):
        term = TL.from_scalar(ctx.rational(_sign(perm)))
        for i, j in zip(rows, perm):
            term = term * m.entries[i][j]
        total = total + term
    return total


def test_determinant_is_the_charpoly_constant_term(tctx):
    """charpoly is division- and elimination-free: det m = (-1)^n cp[n]."""
    rng = random.Random(11)
    singular = 0
    for rank, m in _cases(tctx, rng, lo=-1, square=True):
        cp = charpoly(m)
        ref = cp[-1] * tctx.rational((-1) ** m.rows)
        det = determinant(m)
        if rank < m.rows:
            singular += 1
            assert det.is_exact_zero() and ref.is_exact_zero()
        else:
            assert det.coeffs and det.val == ref.val
            assert det.agrees_with(ref) and det.prec >= det.val + 16
    assert singular >= 3


def _image(m, v):
    return [sum((a * x for a, x in zip(row, v)), TL.zero(m.ctx)) for row in m.entries]


def test_kernel_against_rank_over_the_function_field(tctx):
    """dim ker = cols - rank of the matrix mapped z -> t over Q(zeta_12)(t);
    each basis vector is killed by m and is saturated.

    The rank is taken on whichever of m and its transpose has fewer
    columns, and the 5 x 5 inputs of full rank skip it: rref over
    Q(zeta_12)(t) runs for many seconds on a generic matrix with five
    columns (the coefficients of the pseudo-remainders in field._gcd_uni
    grow unchecked).  _full_rank certifies their rank by a nonzero charpoly
    constant term instead."""
    rng = random.Random(12)
    t = tctx.sym("t")
    for rank, m in _cases(tctx, rng, lo=-1):
        if rank < 5:
            mapped = [[sum((c * t ** (e.val + k) for k, c in enumerate(e.coeffs)), tctx.zero)
                       for e in row] for row in m.entries]
            if m.cols > m.rows:
                mapped = [list(col) for col in zip(*mapped)]
            assert linalg.rank(mapped) == rank
        basis, certified = kernel_basis(m)
        assert certified and len(basis) == m.cols - rank
        for v in basis:
            for e in _image(m, v):
                assert not e.coeffs and e.prec >= 12
            vals = [e.val for e in v if e.coeffs]
            assert min(vals) == 0 and all(not e.coeffs or e.val >= 0 for e in v)


def test_inverse_on_both_sides(tctx):
    rng = random.Random(13)
    for _, m in _cases(tctx, rng, lo=-1, square=True):
        if determinant(m).is_exact_zero():
            continue
        ident = LaurentMatrix.identity(tctx, m.rows)
        # known modulo z^12 at the exact input, at least to z^0 at the
        # truncated one, so that the unit diagonal is always compared
        for a, floor in ((m, 12), (m.truncate(m.min_valuation() + 14), 1)):
            inv = solve(a, ident)
            for prod in (a * inv, inv * a):
                assert prod.agrees_with(ident) and prod.precision() >= floor


def test_smith_exponents_are_the_least_minor_valuations(tctx):
    """d_1 + ... + d_k is the least valuation of the k x k minors (Leibniz),
    and there are as many invariants as the rank."""
    rng = random.Random(14)
    for rank, m in _cases(tctx, rng, lo=0):
        exps = [inv.val for inv in smith_normal_form(m)]
        assert exps == sorted(exps) and len(exps) == rank
        for k in range(1, min(m.rows, m.cols) + 1):
            vals = [
                _leibniz(tctx, m, rows, cols).valuation()
                for rows in itertools.combinations(range(m.rows), k)
                for cols in itertools.combinations(range(m.cols), k)
            ]
            assert min(vals) == (sum(exps[:k]) if k <= rank else math.inf), (m, k)


def test_a_leftover_known_only_to_precision_is_never_used(tctx):
    one_ = TL.from_scalar(tctx.one)
    unit = TL(tctx, 0, (tctx.one, tctx.one))  # 1 + z
    zero = TL.zero(tctx)
    ragged = LaurentMatrix(tctx, [[one_, zero], [zero, TL.zero(tctx, 3)]])
    # exact, but clearing by 1/(1 + z) leaves the second row zero to precision
    cancelled = LaurentMatrix(tctx, [[unit, one_], [unit, one_]])
    # the pivot column's O(z^3) must be cleared too: the matrix may be
    # [[1, 1], [z^5, z^5]], which is singular
    z5 = TL.monomial(tctx, tctx.one, 5)
    mixed = LaurentMatrix(tctx, [[one_, one_], [TL.zero(tctx, 3), z5]])
    for m in (ragged, cancelled, mixed):
        for routine in (determinant, lambda a: solve(a, LaurentMatrix.identity(tctx, 2)),
                        smith_normal_form):
            with pytest.raises(PrecisionExhausted):
                routine(m)
        basis, certified = kernel_basis(m)
        assert len(basis) == 1 and not certified



def _undercut_cases(ctx):
    z = lambda e: TL.monomial(ctx, ctx.one, e)  # noqa: E731
    o3 = TL.zero(ctx, 3)  # may be z^3, below both pivots
    row = LaurentMatrix(ctx, [[z(5), o3]])
    square = LaurentMatrix(ctx, [[z(5), o3], [TL.zero(ctx), z(4)]])
    return z, o3, row, square


@pytest.mark.parametrize("case", ["smith-row", "kernel-row", "smith-square"])
def test_a_pivot_a_zero_to_precision_may_undercut_is_flagged(tctx, case):
    _, _, row, square = _undercut_cases(tctx)
    if case == "kernel-row":
        basis, certified = kernel_basis(row)
        assert len(basis) == 1 and not certified
    else:
        with pytest.raises(PrecisionExhausted):
            smith_normal_form(row if case == "smith-row" else square)


def test_an_undercut_leaves_the_determinant_and_ties_alone(tctx):
    z, o3, _, square = _undercut_cases(tctx)
    # the determinant reads no valuation order: z^5 * z^4 either way
    det = determinant(square)
    assert det.prec == math.inf and (det.val, det.coeffs) == (9, (tctx.one,))
    # a series zero modulo z^p has valuation at least p, so p equal to the
    # pivot's valuation cannot undercut it
    tie = LaurentMatrix(tctx, [[z(3), o3]])
    assert [e.val for e in smith_normal_form(tie)] == [3]
    basis, certified = kernel_basis(tie)
    assert len(basis) == 1 and certified


def _check_agrees_with_polynomial(e, coeffs):
    """e is known modulo z^prec; it agrees with the polynomial below that."""
    assert e.val >= 0 and e.prec >= 16
    assert all(
        e.coeff(i).as_fraction() == (coeffs[i] if i < len(coeffs) else 0)
        for i in range(min(e.prec, len(coeffs) + 8))
    )


def test_determinant_and_solve_against_sympy(tctx):
    """A second route for determinant and solve: sympy's exact det() and
    adjugate over Q[z], on seeded 2 x 2 and 3 x 3 polynomial matrices.
    det(m) X = adj(m) b for the solution X of m X = b."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def to_sympy(cs):
        return sum(sympy.Rational(c.numerator, c.denominator) * z**i for i, c in enumerate(cs))

    def coeffs(expr):
        poly = sympy.Poly(sympy.expand(expr), z)
        return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]

    def to_series(cs):
        return TL(tctx, 0, [tctx.rational(c) for c in cs])

    rng = random.Random(25)
    checked = 0
    while checked < 20:
        n = 2 + checked % 2
        fr = [[[Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(3)]
               for _ in range(n)] for _ in range(n)]
        b_fr = [[Fraction(rng.randint(-3, 3), rng.choice([1, 3])) for _ in range(3)]
                for _ in range(n)]
        sm = sympy.Matrix([[to_sympy(cs) for cs in row] for row in fr])
        det_ref = sympy.expand(sm.det())
        if det_ref == 0:
            continue
        m = LaurentMatrix(tctx, [[to_series(cs) for cs in row] for row in fr])
        b = LaurentMatrix(tctx, [[to_series(cs)] for cs in b_fr])
        det = determinant(m)
        _check_agrees_with_polynomial(det, coeffs(det_ref))
        adj_b = sm.adjugate() * sympy.Matrix([to_sympy(cs) for cs in b_fr])
        scaled = solve(m, b) * det
        for i in range(n):
            _check_agrees_with_polynomial(scaled.entries[i][0], coeffs(adj_b[i]))
        checked += 1
