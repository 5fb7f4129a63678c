"""The one Gaussian elimination, the one charpoly and the polynomial
toolkit over the session field, against sympy.

linalg.rref serves rank and kernel, and the oracle's rank of a
truncated model where the rank mod p (linalg.rank_mod_p, on the residues
of the model's coefficients) does not certify full column rank; each is compared with sympy's exact rational linear
algebra on seeded random matrices, and so are linalg.charpoly, poly_divmod
and poly_xgcd.
"""

import random
from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")

from nahmkit import linalg, oracle  # noqa: E402
from nahmkit.errors import FieldExtensionRequired  # noqa: E402
from nahmkit.field import FieldContext, Scalar, scalar_sqrt  # noqa: E402
from nahmkit.higgs import ElementaryBlock, HiggsGerm  # noqa: E402
from nahmkit.localnahm import build_local_complex  # noqa: E402
from nahmkit.torus import lattice_vector  # noqa: E402


@pytest.fixture(scope="module")
def ctx():
    return FieldContext(M=12, symbols=("a", "w"))


def _random_fractions(rng, rows, cols, kind):
    def entry():
        return F(rng.randint(-9, 9), rng.randint(1, 5))

    if kind == "deficient":
        # a product through an inner dimension below min(rows, cols)
        inner = rng.randint(0, max(0, min(rows, cols) - 1))
        left = [[entry() for _ in range(inner)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(inner)]
        return [[sum((left[i][t] * right[t][j] for t in range(inner)), F(0))
                 for j in range(cols)] for i in range(rows)]
    out = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == "sparse":
        out = [[x if rng.random() < 0.3 else F(0) for x in row] for row in out]
    elif kind == "zero-row":
        out[rng.randrange(rows)] = [F(0)] * cols
    return out


KINDS = ("dense", "sparse", "deficient", "zero-row")


def _cases(seed, square=False):
    rng = random.Random(seed)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rows if square else rng.randint(1, 6)
        kind = rng.choice(KINDS)
        yield kind, _random_fractions(rng, rows, cols, kind)


def _scalars(ctx, fracs):
    return [[ctx.rational(x) for x in row] for row in fracs]


def _fracs(vec):
    return [x.as_fraction() for x in vec]


def _sympy(fracs):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in fracs])


def _apply(fracs, vec):
    return [sum((a * b for a, b in zip(row, vec)), F(0)) for row in fracs]


def test_rank_matches_sympy(ctx):
    for kind, fr in _cases(1):
        assert linalg.rank(_scalars(ctx, fr)) == _sympy(fr).rank(), kind


def test_kernel_has_nullity_and_is_killed(ctx):
    for kind, fr in _cases(2):
        basis = linalg.kernel(_scalars(ctx, fr))
        assert len(basis) == len(fr[0]) - _sympy(fr).rank(), kind
        for v in basis:
            assert _apply(fr, _fracs(v)) == [0] * len(fr), kind


def test_rank_deficiency_is_singularity(ctx):
    for kind, fr in _cases(5, square=True):
        singular = linalg.rank(_scalars(ctx, fr)) < len(fr)
        assert singular == (_sympy(fr).det() == 0), kind


def test_rref_leaves_rows_and_zero_rows(ctx):
    rows = [{0: ctx.rational(2), 2: ctx.rational(4)}, {}, {0: ctx.one, 2: ctx.rational(2)},
            {1: ctx.rational(3)}]
    before = [dict(r) for r in rows]
    red, pivots = linalg.rref(rows)
    assert rows == before
    assert pivots == [0, 1]
    assert red == [{0: ctx.one, 2: ctx.rational(2)}, {1: ctx.one}]


def _model_19x16(ctx, scale):
    """The complex of a (2, 1) block and the twist w = scale / 2; its model
    at N = 8 is 19 x 16.  The lead is 2 scale, so the map is scale times the
    map at scale 1."""
    b = ElementaryBlock.make(ctx, 2, 1, lead=ctx.rational(2) * scale, weights=(F(-1, 4),))
    return build_local_complex(HiggsGerm.from_blocks(ctx, [b])), ctx.rational(F(1, 2)) * scale


def _counted_eliminations(monkeypatch):
    """The row counts of the models the oracle hands each elimination."""
    eliminations = {"rank_mod_p": [], "rref": []}

    def counting(name):
        fn = getattr(linalg, name)

        def counted(rows, *args):
            eliminations[name].append(len(rows))
            return fn(rows, *args)
        return counted

    for name in eliminations:
        monkeypatch.setattr(oracle, name, counting(name))
    return eliminations


def test_oracle_rank_past_the_triangular_certificate(ctx, monkeypatch):
    complex_, w = _model_19x16(ctx, ctx.one)
    table = oracle.coefficient_table(oracle.part_maps(complex_, w))
    model = oracle.build_truncation_model(complex_, table, 8)
    assert (model.codomain_dim, model.domain_dim) == (19, 16)
    # not triangular: two columns share their lowest nonzero row
    lowest = {}
    for r, row in enumerate(model.matrix):
        for c in row:
            lowest.setdefault(c, r)
    assert len(set(lowest.values())) < model.domain_dim
    eliminations = _counted_eliminations(monkeypatch)
    ker, coker, certified = oracle.truncated_cokernel(complex_, (w, None), 8)
    # the rank mod p decided
    assert eliminations == {"rank_mod_p": [19, 27], "rref": []}
    dense = [[model.matrix[i].get(j, ctx.zero).as_fraction()
              for j in range(model.domain_dim)] for i in range(model.codomain_dim)]
    assert ker == len(_sympy(dense).nullspace()) == 0
    assert (coker, certified) == (3, True)


def test_oracle_rank_falls_through_to_rref(ctx, monkeypatch):
    """Where the residues lose rank, or some coefficient has none, rref
    decides, once for each of the models at N and N + 4.  The 19 x 16 model
    times a - point vanishes mod p; times 1 / (a - point) it has no
    residue, so no model mod p is built; both have the rank of the model
    itself."""
    a = ctx.sym("a")
    vanishing = a - ctx.rational(ctx.residues.point[0])
    assert ctx.residues(vanishing) == 0
    assert ctx.residues(vanishing.inverse()) is None
    for scale, mod_p in ((vanishing, [19, 27]), (vanishing.inverse(), [])):
        complex_, w = _model_19x16(ctx, scale)
        eliminations = _counted_eliminations(monkeypatch)
        assert oracle.truncated_cokernel(complex_, (w, None), 8) == (0, 3, True)
        assert eliminations == {"rank_mod_p": mod_p, "rref": [19, 27]}


def _random_scalar(ctx, rng):
    """A sum of two of 1, zeta_12, x1, x2.  Richer entries make rref over
    two symbols take seconds (the gcds of its quotients)."""
    terms = rng.sample([ctx.one, ctx.zeta(12), ctx.sym("x1"), ctx.sym("x2")], 2)
    return sum((ctx.rational(rng.choice((-3, -2, -1, 1, 2, 3))) * t for t in terms),
               ctx.zero)


def test_rank_mod_p_against_rref_over_symbols():
    """Seeded sparse matrices over Q(zeta_12)(x1, x2): the rank mod p never
    exceeds the exact rank, and a full column rank mod p is exact."""
    ctx = FieldContext(M=12, symbols=("x1", "x2"))
    rng = random.Random(7)
    certified = deficient = 0
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        if rng.random() < 0.4:
            inner = rng.randint(0, min(rows, cols) - 1)
            left = [[_random_scalar(ctx, rng) for _ in range(inner)] for _ in range(rows)]
            right = [[_random_scalar(ctx, rng) for _ in range(cols)] for _ in range(inner)]
            mat = (linalg.mat_mul(left, right) if inner
                   else [[ctx.zero] * cols for _ in range(rows)])
        else:
            mat = [[_random_scalar(ctx, rng) if rng.random() < 0.5 else ctx.zero
                    for _ in range(cols)] for _ in range(rows)]
        residues = [[ctx.residues(x) for x in row] for row in mat]
        assert all(v is not None for row in residues for v in row)
        sparse = [{j: v for j, v in enumerate(row) if v} for row in residues]
        exact = linalg.rank(mat)
        mod_p = linalg.rank_mod_p(sparse, ctx.residues.p)
        assert mod_p <= exact
        if mod_p == cols:
            assert exact == cols
            certified += 1
        deficient += exact < min(rows, cols)
    assert certified and deficient


def test_charpoly_matches_sympy(ctx):
    seen = set()
    for kind, fr in _cases(6, square=True):
        seen.add((kind, len(fr)))
        got = linalg.charpoly(_scalars(ctx, fr), ctx.one)
        want = _sympy(fr).charpoly().all_coeffs()
        assert _fracs(got) == [F(int(x.p), int(x.q)) for x in want], kind
    assert {n for _, n in seen} == set(range(1, 7))
    assert {k for k, _ in seen} == set(KINDS)


def _random_poly(rng, deg):
    out = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)]
    if out[0] == 0:
        out[0] = F(1)
    return out


def _poly_mul_fr(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_pairs(seed):
    """Seeded pairs of rational polynomials; every third shares a factor."""
    rng = random.Random(seed)
    for n in range(40):
        a, b = _random_poly(rng, rng.randint(0, 5)), _random_poly(rng, rng.randint(0, 4))
        if n % 3 == 0:
            common = _random_poly(rng, rng.randint(1, 2))
            a, b = _poly_mul_fr(a, common), _poly_mul_fr(b, common)
        yield a, b


def _sympy_poly(coeffs):
    T = sympy.Symbol("T")
    return sympy.Poly([sympy.Rational(x.numerator, x.denominator) for x in coeffs], T,
                      domain="QQ")


def _coeffs(poly):
    return [F(int(x.p), int(x.q)) for x in poly.all_coeffs()]


def test_poly_divmod_matches_sympy(ctx):
    for a, b in _poly_pairs(7):
        q, r = linalg.poly_divmod(ctx, [ctx.rational(x) for x in a],
                                  [ctx.rational(x) for x in b])
        sq, sr = sympy.div(_sympy_poly(a), _sympy_poly(b))
        assert (_fracs(q), _fracs(r)) == (_coeffs(sq), _coeffs(sr))


def test_poly_xgcd_matches_sympy(ctx):
    nontrivial = 0
    for a, b in _poly_pairs(8):
        g, u, v = linalg.poly_xgcd(ctx, [ctx.rational(x) for x in a],
                                   [ctx.rational(x) for x in b])
        su, sv, sg = sympy.gcdex(_sympy_poly(a), _sympy_poly(b))
        assert (_fracs(g), _fracs(u), _fracs(v)) == (_coeffs(sg), _coeffs(su), _coeffs(sv))
        nontrivial += len(g) > 1
    assert nontrivial


def test_linear_remainder_is_a_root(ctx):
    # T^3 - T^2 - T + 1 = (T - 1)^2 (T + 1): the candidate 1 deflates twice
    # and leaves T + 1, whose root -1 is no candidate
    cp = [ctx.rational(c) for c in (1, -1, -1, 1)]
    assert linalg.scalar_poly_roots(ctx, cp) == [(ctx.one, 2), (ctx.rational(-1), 1)]
    P = _sympy([[1, 1, 0], [0, 1, 1], [1, 0, 2]])
    mat = [[F(int(x.p), int(x.q)) for x in row]
           for row in (P * sympy.diag(1, 1, -1) * P.inv()).tolist()]
    assert linalg.eigenvalues_in_field(_scalars(ctx, mat)) == [
        (ctx.one, 2), (ctx.rational(-1), 1)]


@pytest.mark.parametrize("D", [(1, 5, 11), (2, 3, 7)])
def test_split_rational_cubic_off_the_candidates(D):
    """P diag(D) P^-1 and its shift by a symbolic lattice vector split: no
    root is a candidate, and the centred charpoly is rational in both."""
    ctx = FieldContext(M=12, symbols=("x1", "x2", "nu1", "nu2"))
    P = _sympy([[1, 1, 0], [0, 1, 1], [1, 0, 2]])
    mat = _scalars(ctx, [[F(int(x.p), int(x.q)) for x in row]
                         for row in (P * sympy.diag(*D) * P.inv()).tolist()])
    nu = lattice_vector(ctx, 1, -1)
    shifted = [[x + nu if i == j else x for j, x in enumerate(row)]
               for i, row in enumerate(mat)]
    for m, shift in ((mat, ctx.zero), (shifted, nu)):
        eigs = linalg.eigenvalues_in_field(m)
        assert sorted(eigs, key=lambda e: e[0].sort_key()) == sorted(
            [(ctx.rational(d) + shift, 1) for d in D], key=lambda e: e[0].sort_key())


def test_rational_cubic_without_rational_root_does_not_split(ctx):
    # (T - 1)^3 - 2: its centred form S^3 - 2 has no rational root, and the
    # cube root of 2 is not in Q(zeta_12)
    cp = [ctx.rational(c) for c in (1, -3, 3, -3)]
    with pytest.raises(FieldExtensionRequired):
        linalg.scalar_poly_roots(ctx, cp)


def test_t_squared_minus_two_does_not_split(ctx):
    # the quadratic subfields of Q(zeta_12) are Q(i), Q(sqrt 3) and
    # Q(sqrt -3), so sqrt 2 is not in Q(zeta_12)(a, w)
    cp = [ctx.rational(c) for c in (1, 0, -2)]
    with pytest.raises(FieldExtensionRequired, match="does not split"):
        linalg.scalar_poly_roots(ctx, cp)


def _eager_roots(ctx, coeffs, candidates=()):
    """scalar_poly_roots with every fallback guess built before the first
    trial: the reference for the lazy guesses."""
    deg = len(coeffs) - 1
    cand = [ctx.zero]
    guesses = list(candidates)
    if deg >= 1:
        guesses += [-(coeffs[1] / ctx.rational(j)) for j in range(1, deg + 1)]
        if not coeffs[-1].is_zero() and not coeffs[-2].is_zero():
            guesses.append(-(coeffs[-1] / coeffs[-2]))
    for c in guesses:
        if c not in cand:
            cand.append(c)
    roots, cur, progress = [], list(coeffs), True
    while len(cur) > 1 and progress:
        progress = False
        for c in cand:
            while len(cur) > 1 and linalg.poly_eval(cur, c).is_zero():
                roots.append(c)
                cur = linalg.poly_deflate(cur, c)
                progress = True
        if len(cur) == 2:
            roots.append(-(cur[1] / cur[0]))
            cur = cur[:1]
        elif len(cur) == 3 and not progress:
            s = scalar_sqrt(cur[1] * cur[1] - 4 * cur[2])
            if s is not None:
                half = ctx.rational(F(1, 2))
                roots += [(-cur[1] + s) * half, (-cur[1] - s) * half]
                cur, progress = cur[:1], True
        elif len(cur) > 3 and not progress:
            cand = [c for c in linalg._centred_rational_roots(ctx, cur) if c not in cand]
            progress = bool(cand)
    if len(cur) > 1:
        raise FieldExtensionRequired("no split")
    mult = {}
    for r in roots:
        mult[r] = mult.get(r, 0) + 1
    return list(mult.items())


def _triangular_charpolys(ctx, seed):
    """(charpoly, diagonal) of seeded triangular matrices over
    Q(zeta_12)(x1, x2) and of their shifts by a dual-lattice vector."""
    rng = random.Random(seed)
    x1, x2 = ctx.sym("x1"), ctx.sym("x2")
    pool = [x1, x2, x1 + ctx.one, ctx.rational(F(-2, 3))]
    for _ in range(30):
        n = rng.randint(1, 4)
        diag = [rng.choice(pool) for _ in range(n)]
        if rng.random() < 0.5:
            nu = lattice_vector(ctx, rng.randint(-5, 5), rng.randint(-5, 5))
            diag = [d + nu for d in diag]
        mat = [[diag[i] if i == j else ctx.rational(rng.randint(0, 2)) if i < j else ctx.zero
                for j in range(n)] for i in range(n)]
        yield linalg.charpoly(mat, ctx.one), diag


def test_fallback_guesses_are_built_lazily(monkeypatch):
    """On triangular charpolys the diagonal candidates split the polynomial
    first, so no -c_n/c_(n-1) quotient is formed; there, on the split
    rational cubics and on (T - 1)^2 (T + 1) the roots, their order and the
    number of trials are those of the eager reference."""
    ctx = FieldContext(M=12, symbols=("x1", "x2", "nu1", "nu2"))
    quotients = []
    trials = []
    divide, evaluate = Scalar.__truediv__, linalg.poly_eval

    def counting_divide(a, b):
        quotients.append((a, b))
        return divide(a, b)

    def counting_evaluate(coeffs, x):
        trials.append(x)
        return evaluate(coeffs, x)

    monkeypatch.setattr(Scalar, "__truediv__", counting_divide)
    monkeypatch.setattr(linalg, "poly_eval", counting_evaluate)

    def run(roots, cp, cand):
        quotients.clear()
        trials.clear()
        return roots(ctx, cp, candidates=cand), len(trials), list(quotients)

    eagerly_formed = 0
    for cp, diag in _triangular_charpolys(ctx, 11):
        lazy, lazy_trials, formed = run(linalg.scalar_poly_roots, cp, diag)
        assert (cp[-1], cp[-2]) not in formed
        eager, eager_trials, formed = run(_eager_roots, cp, diag)
        assert (lazy, lazy_trials) == (eager, eager_trials)
        eagerly_formed += (cp[-1], cp[-2]) in formed
    assert eagerly_formed
    # the split rational cubics, their lattice shifts and (T - 1)^2 (T + 1)
    cases = [([ctx.rational(c) for c in (1, -1, -1, 1)], [])]
    P = _sympy([[1, 1, 0], [0, 1, 1], [1, 0, 2]])
    nu = lattice_vector(ctx, 1, -1)
    for D in ((1, 5, 11), (2, 3, 7)):
        mat = _scalars(ctx, [[F(int(x.p), int(x.q)) for x in row]
                             for row in (P * sympy.diag(*D) * P.inv()).tolist()])
        for shift in (ctx.zero, nu):
            m = [[x + shift if i == j else x for j, x in enumerate(row)]
                 for i, row in enumerate(mat)]
            cases.append((linalg.charpoly(m, ctx.one), [m[i][i] for i in range(3)]))
    for cp, cand in cases:
        lazy = run(linalg.scalar_poly_roots, cp, cand)
        assert lazy[:2] == run(_eager_roots, cp, cand)[:2]
        assert sum(m for _, m in lazy[0]) == len(cp) - 1
