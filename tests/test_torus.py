"""Torus points and the endomorphism model of semistable degree-0 bundles."""

import random
from fractions import Fraction as F

import pytest

from nahmkit import field, linalg
from nahmkit.errors import FieldExtensionRequired
from nahmkit.field import FieldContext
from nahmkit.torus import (
    EndoPair,
    TorusPoint,
    g_equiv,
    lattice_vector,
    scalar_to_point,
    torus_reduce,
)


@pytest.fixture(scope="module")
def ctx():
    return FieldContext(M=12, symbols=("x1", "x2", "nu1", "nu2"))


def _coords(a):
    """The power-basis coordinates of a cyclotomic element, as Fractions."""
    return tuple(F(c, a[-1]) for c in a[:-1])


def test_reduce_examples(ctx):
    assert torus_reduce(TorusPoint("T_dual", 1, 0)).is_zero_class()
    p = torus_reduce(TorusPoint("T_dual", F(3, 2), F(-1, 4)))
    assert (p.q1, p.q2) == (F(1, 2), F(3, 4))
    q = TorusPoint("T_dual", 0, 0, sym={"x1": 1}) + TorusPoint("T_dual", 2, -3)
    assert torus_reduce(q) == TorusPoint("T_dual", 0, 0, sym={"x1": 1})


def test_reduce_idempotent_and_equivalence(ctx):
    rng = random.Random(2)
    for _ in range(40):
        pt = TorusPoint(
            "T_dual", F(rng.randint(-9, 9), rng.randint(1, 5)),
            F(rng.randint(-9, 9), rng.randint(1, 5)),
        )
        r = torus_reduce(pt)
        assert torus_reduce(r).lift_key() == r.lift_key()
        assert r == pt
    a = TorusPoint("T_dual", F(1, 3), 0)
    b = a.translate_lattice(2, -5)
    c = b.translate_lattice(-1, 1)
    assert a == b and b == c and a == c


def test_point_scalar_roundtrip(ctx):
    pt = TorusPoint("T_dual", F(1, 2), F(-2, 3), sym={"x1": F(1)}, is_lift=True)
    # the lift of pt as a scalar: q1*nu1 + q2*nu2 plus its symbolic position
    s = ctx.rational(pt.q1) * ctx.sym("nu1") + ctx.rational(pt.q2) * ctx.sym("nu2")
    for name, coeff in pt.sym:
        s = s + ctx.rational(coeff) * ctx.sym(name)
    back = scalar_to_point(ctx, s)
    assert back == pt and (back.q1, back.q2) == (pt.q1, pt.q2)


def _scalar_to_point_by_symbol(ctx, s, gens):
    """The earlier route of scalar_to_point, kept as its reference: per
    symbol, read the monomial's coefficient through the power-basis
    coordinates of the numerator and the denominator, and subtract it."""
    q = {gens[0]: F(0), gens[1]: F(0)}
    sym = {}
    rest = s
    zm = (0,) * ctx.nvars
    for name in ctx.symbols:
        mono = tuple(1 if nm == name else 0 for nm in ctx.symbols)
        if set(s.den) != {zm} or any(_coords(s.den[zm])[1:]):
            continue
        dc = _coords(s.den[zm])[0]
        c = s.num.get(mono)
        if c is None:
            continue
        c = _coords(c)
        if any(c[1:]) or c[0] == 0:
            continue
        c = c[0] / dc
        if name in gens:
            q[name] = c
        else:
            sym[name] = c
        rest = rest - ctx.rational(c) * ctx.sym(name)
    const = None if rest.is_zero() else rest
    return TorusPoint("T_dual", q[gens[0]], q[gens[1]], sym, const, is_lift=True)


@pytest.mark.parametrize("seed", range(4))
def test_scalar_to_point_matches_the_per_symbol_route(ctx, seed):
    """scalar_to_point against the per-symbol route on seeded scalars: terms
    of degree 0 to 2 with rational and zeta coefficients, some divided by a
    rational or by a nonconstant polynomial, read with the default
    generators and with generators that leave nu2 a position symbol."""
    rng = random.Random(seed)
    names = ctx.symbols
    coeffs = [ctx.rational(F(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(4)]
    coeffs += [ctx.zeta(12, 1), ctx.rational(2) + ctx.zeta(4, 1), ctx.zeta(3, 1)]
    cases = [ctx.zero, ctx.one]
    for _ in range(40):
        s = ctx.zero
        for _ in range(rng.randint(1, 5)):
            term = rng.choice(coeffs)
            for _ in range(rng.choice((0, 1, 1, 1, 2))):
                term = term * ctx.sym(rng.choice(names))
            s = s + term
        kind = rng.randrange(4)
        if kind == 1:
            s = s / ctx.rational(rng.choice((2, 3, -5)))
        elif kind == 2:
            s = s / (ctx.sym(rng.choice(names)) + ctx.rational(rng.randint(1, 3)))
        cases.append(s)
    for gens in (("nu1", "nu2"), ("x1", "nu1")):
        for s in cases:
            got = scalar_to_point(ctx, s, gens=gens)
            want = _scalar_to_point_by_symbol(ctx, s, gens)
            assert got.lift_key() == want.lift_key(), (str(s), gens)


def test_g_equiv_nilpotent(ctx):
    vf = EndoPair(ctx, [[ctx.zero, ctx.one], [ctx.zero, ctx.zero]])
    spectrum, blocks = g_equiv(vf)
    assert len(spectrum) == 1 and spectrum[0].is_zero_class()
    assert blocks[0].dim == 2


def test_g_equiv_congruent_eigenvalues(ctx):
    a = ctx.sym("x1")
    nu = lattice_vector(ctx, 2, -1)
    vf = EndoPair(ctx, [[a, ctx.zero], [ctx.zero, a + nu]])
    spectrum, blocks = g_equiv(vf)
    assert len(spectrum) == 1 and blocks[0].dim == 2


def test_g_equiv_two_classes(ctx):
    a = ctx.sym("x1")
    vf = EndoPair(ctx, [[ctx.zero, ctx.zero], [ctx.zero, a]])
    spectrum, blocks = g_equiv(vf)
    assert len(spectrum) == 2 and sorted(b.dim for b in blocks) == [1, 1]


def test_g_equiv_shift_invariance(ctx):
    rng = random.Random(4)
    a, b = ctx.sym("x1"), ctx.sym("x2")
    for _ in range(30):
        f = [
            [a, ctx.rational(rng.randint(0, 2)), ctx.zero],
            [ctx.zero, a, ctx.zero],
            [ctx.zero, ctx.zero, b],
        ]
        vf = EndoPair(ctx, f)
        nu = lattice_vector(ctx, rng.randint(-4, 4), rng.randint(-4, 4))
        s1, bl1 = g_equiv(vf)
        s2, bl2 = g_equiv(vf.shift(nu))
        assert [p.class_key() for p in s1] == [p.class_key() for p in s2]
        assert [x.dim for x in bl1] == [x.dim for x in bl2]
        assert sum(x.dim for x in bl1) == vf.dim


def test_g_equiv_field_extension(ctx):
    # spectrum needs sqrt(x1): not in the session field
    a = ctx.sym("x1")
    vf = EndoPair(ctx, [[ctx.zero, a], [ctx.one, ctx.zero]])
    with pytest.raises(FieldExtensionRequired):
        g_equiv(vf)


def _conjugate(ctx, rng, mat):
    """mat conjugated by three seeded elementary matrices I + a E_ij, whose
    inverses are I - a E_ij: add a times row j to row i, then subtract a
    times column i from column j."""
    n = len(mat)
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        a = ctx.rational(rng.choice((1, -1, 2, F(1, 2))))
        mat = [row[:] for row in mat]
        mat[i] = [x + a * y for x, y in zip(mat[i], mat[j])]
        for row in mat:
            row[j] = row[j] - a * row[i]
    return mat


def _block_cases(ctx, seed):
    """(matrix, eigenvalue candidates) pairs over Q(zeta_12)(x1, x2):
    triangular ones with a seeded diagonal and upper part (a repeated
    diagonal value with a nonzero entry above it is a Jordan block), a
    fixed Jordan block, a pair of eigenvalues congruent modulo the dual
    lattice, and the conjugates of those of size at most 3 by a seeded
    rational matrix."""
    rng = random.Random(seed)
    x1, x2 = ctx.sym("x1"), ctx.sym("x2")
    pool = [x1, x2, x1 + ctx.one, ctx.rational(F(-1, 2)), ctx.zero]
    fixed = [
        [x1, x2 + ctx.one],
        [x1, x1, x2],
        [x1, x1 + lattice_vector(ctx, 1, -2), ctx.rational(3)],
    ]
    diagonals = fixed + [[rng.choice(pool) for _ in range(rng.randint(2, 4))] for _ in range(6)]
    cases = []
    for diag in diagonals:
        n = len(diag)
        tri = [[diag[i] if i == j else ctx.zero for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                tri[i][j] = ctx.rational(rng.choice((0, 1, 2, F(-1, 3))))
        tri[0][1] = ctx.one
        cases.append((tri, diag))
        if n <= 3:
            cases.append((_conjugate(ctx, rng, tri), diag))
    return cases


def _restrict_by_solving(ctx, mat, basis):
    """The matrix X with basis * X = mat * basis, column by column through
    the reduced row echelon form of [basis | mat v_k]."""
    n, d = len(mat), len(basis)
    big = [[basis[k][i] for k in range(d)] for i in range(n)]
    image = linalg.mat_mul(mat, big)
    out = [[None] * d for _ in range(d)]
    for k in range(d):
        rows = [{j: x for j, x in enumerate(big[i] + [image[i][k]]) if not x.is_zero()}
                for i in range(n)]
        red, pivots = linalg.rref(rows)
        assert pivots == list(range(d))
        for j, row in enumerate(red):
            out[j][k] = row.get(d, ctx.zero)
    return out


def _same_sum(ctx, xs, ys):
    """Whether sum(xs) == sum(ys), decided in the polynomial ring: each side
    is put over the product of its distinct denominators and the two are
    cross-multiplied.  No gcd is taken, because adding two rational
    functions through Scalar normalizes through p_gcd, which takes seconds
    on some of these sums."""
    cf = ctx.cyc

    def over_product(terms):
        # denominator -> (that denominator, sum of the numerators over it)
        parts = {}
        for x in terms:
            key = tuple(sorted(x.den.items()))
            d, part = parts.get(key, (x.den, {}))
            parts[key] = (d, field.p_add(cf, part, x.num))
        num, den = {}, ctx.one.num
        for d, part in parts.values():
            num = field.p_add(cf, field.p_mul(cf, num, d), field.p_mul(cf, part, den))
            den = field.p_mul(cf, den, d)
        return num, den

    nx, dx = over_product(xs)
    ny, dy = over_product(ys)
    return field.p_mul(cf, nx, dy) == field.p_mul(cf, ny, dx)


@pytest.mark.parametrize("seed", [1, 2])
def test_blocks_are_the_restriction(ctx, seed, monkeypatch):
    """f V = V B exactly, where V is the concatenated eigenbasis and B the
    block diagonal of g_equiv's blocks, and each block is the restriction of
    f to its class's span found by solving, on each matrix and its shift."""
    found = []
    eigenspace = linalg.generalized_eigenspace

    def recording(mat, val, mult):
        found.append(eigenspace(mat, val, mult))
        return found[-1]

    monkeypatch.setattr(linalg, "generalized_eigenspace", recording)
    rng = random.Random(seed)
    zero = ctx.zero
    jordan = congruent = 0
    for mat, diag in _block_cases(ctx, seed):
        nu = lattice_vector(ctx, rng.randint(-3, 3), rng.randint(-3, 3))
        for f, cand in ((mat, diag), (EndoPair(ctx, mat).shift(nu).matrix, [d + nu for d in diag])):
            found.clear()
            spectrum, blocks = g_equiv(EndoPair(ctx, f), extra_candidates=cand)
            n = len(f)
            assert sum(b.dim for b in blocks) == n
            V = [[v[i] for basis in found for v in basis] for i in range(n)]
            B = [[zero] * n for _ in range(n)]
            at = 0
            for blk in blocks:
                class_basis = []
                while len(class_basis) < blk.dim:
                    class_basis += found.pop(0)
                assert len(class_basis) == blk.dim
                assert blk.matrix == _restrict_by_solving(ctx, f, class_basis)
                for i, row in enumerate(blk.matrix):
                    B[at + i][at:at + blk.dim] = row
                at += blk.dim
            assert not found
            for i in range(n):
                for k in range(n):
                    assert _same_sum(ctx, [f[i][t] * V[t][k] for t in range(n)],
                                     [V[i][j] * B[j][k] for j in range(n)]), (i, k)
            jordan += any(
                blk.matrix[i][j] != zero
                for blk in blocks for i in range(blk.dim) for j in range(blk.dim) if i != j)
            congruent += len(spectrum) < len(set(diag))
    assert jordan and congruent
