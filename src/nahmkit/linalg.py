"""Exact linear algebra over the session field, and univariate polynomials.

Matrices are plain lists of lists of Scalars.  One sparse Gauss-Jordan
elimination, rref, serves rank and kernel (which hand it their dense rows
as dicts of nonzero entries) and the oracle's truncated models (whose rows
are sparse already).  The reduced row echelon form is unique, so every
caller sees the same answer whatever order the elimination takes.
rank_mod_p is the one elimination over F_p: it takes sparse rows of
integers, which the oracle fills with the residues of its coefficients
(field.ResidueMap).  The rank of the residues is at most the rank over the
field, so the oracle takes a full column rank mod p as a certificate and
asks rref only when it does not decide.

charpoly is Berkowitz's division-free algorithm; given the unit of the
entries' ring it serves Scalar matrices and series matrices (lmatrix) alike.
The last section is the one toolkit of univariate polynomials over Scalar:
products, division with remainder, extended gcd, evaluation, deflation and
roots over the session field.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import FieldExtensionRequired
from .field import scalar_sqrt


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            s = None
            for t in range(inner):
                x = a[i][t]
                if x.is_zero():
                    continue
                term = x * b[t][j]
                s = term if s is None else s + term
            row.append(s if s is not None else a[0][0].ctx.zero)
        out.append(row)
    return out


def rref(rows):
    """Sparse Gauss-Jordan elimination over the session field.

    rows: list of dicts {column: nonzero Scalar}; they are not modified.
    Returns (reduced, pivots): the nonzero rows of the reduced row echelon
    form, each a dict whose leading entry 1 sits in the column given by the
    matching entry of the ascending list pivots.  The rank is len(pivots).
    """
    # pivot column -> the rest of its row, zero in every other pivot column
    reduced = {}
    one = None
    for src in rows:
        row = dict(src)
        for c in [c for c in row if c in reduced]:
            f = -row.pop(c)
            for cc, v in reduced[c].items():
                _axpy(row, cc, f * v)
        if not row:
            continue
        pc = min(row)
        inv = row.pop(pc).inverse()
        one = inv.ctx.one
        row = {cc: v * inv for cc, v in row.items()}
        for other in reduced.values():
            f = other.pop(pc, None)
            if f is not None:
                f = -f
                for cc, v in row.items():
                    _axpy(other, cc, f * v)
        reduced[pc] = row
    pivots = sorted(reduced)
    return [{c: one, **reduced[c]} for c in pivots], pivots


def rank_mod_p(rows, p):
    """Rank over F_p of sparse integer rows.

    rows: list of dicts {column: nonzero residue mod p}, as field.ResidueMap
    gives them; they are not modified.  When the rows are the residues of a
    matrix over the session field, their rank is at most its rank there, so
    a rank equal to the number of columns certifies full column rank; a
    lower one decides nothing.
    """
    # pivot column -> its row as given.  A row meeting a pivot becomes
    # a row - f prow, a the pivot entry and f the row's: no inverse is taken
    pivots = {}
    for row in rows:
        while row:
            pc = min(row)
            prow = pivots.get(pc)
            if prow is None:
                pivots[pc] = row
                break
            a, f = prow[pc], row[pc]
            row = {c: v * a % p for c, v in row.items()}
            for c, v in prow.items():
                v = (row.get(c, 0) - f * v) % p
                if v:
                    row[c] = v
                else:
                    del row[c]
    return len(pivots)


def _axpy(row, c, x):
    """row[c] += x, keeping the row free of zeros."""
    v = row.get(c)
    v = x if v is None else v + x
    if v.is_zero():
        row.pop(c, None)
    else:
        row[c] = v


def _sparse(mat):
    return [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in mat]


def rank(mat):
    return len(rref(_sparse(mat))[1])


def kernel(mat):
    """Basis of the right kernel as column vectors (lists), in reduced form.

    Vector k belongs to the k-th free (non-pivot) column c_k of the reduced
    row echelon form: it is 1 at c_k, 0 at every other free column, and
    nonzero elsewhere only at pivot columns left of c_k, so c_k is its last
    nonzero entry.  The coordinates of a kernel element in this basis are
    therefore its entries at c_1, c_2, ... (torus._restrict reads them so).
    """
    if not mat:
        return []
    ctx = mat[0][0].ctx
    red, pivots = rref(_sparse(mat))
    cols = len(mat[0])
    basis = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        v = [ctx.zero] * cols
        v[fc] = ctx.one
        for row, pc in zip(red, pivots):
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


def charpoly(mat, one):
    """Characteristic polynomial det(T I - mat) by Berkowitz's algorithm.

    Division-free: it takes only sums, differences and products of the
    entries, so it serves Scalar and series entries alike (one is the unit of
    their ring), and series arithmetic tracks the precision.  Returns
    coefficients [1, c1, ..., cn] with c_k the coefficient of T^(n-k).

    Step k passes from the charpoly of the leading k x k block A to that of
    the leading (k+1) x (k+1) block: with C the first k entries of column k,
    R the first k entries of row k and a = mat[k][k], the new coefficients
    are the lower-triangular Toeplitz matrix of (1, -a, -R C, -R A C, ...,
    -R A^(k-1) C) times the old ones.  s holds that column without its
    leading 1 and negated.
    """
    coeffs = [one, -mat[0][0]]
    for k in range(1, len(mat)):
        row = mat[k][:k]
        col = [mat[i][k] for i in range(k)]
        s = [mat[k][k], _dot(row, col)]
        for _ in range(k - 1):
            col = [_dot(mat[i][:k], col) for i in range(k)]
            s.append(_dot(row, col))
        new = [one]
        for i in range(1, k + 2):
            # sum of s[d - 1] * coeffs[i - d] over d = 1..i; coeffs[0] is one
            acc = s[i - 1]
            if i > 1:
                acc = acc + _dot(s[:i - 1], coeffs[i - 1:0:-1])
            new.append(coeffs[i] - acc if i <= k else -acc)
        coeffs = new
    return coeffs


def _dot(xs, ys):
    pairs = zip(xs, ys)
    x, y = next(pairs)
    acc = x * y
    for x, y in pairs:
        acc = acc + x * y
    return acc


# ----------------------------------------------------------------------
# univariate polynomials over Scalar (descending-power coefficient lists)
# ----------------------------------------------------------------------


def poly_mul(ctx, a, b):
    out = [ctx.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return out


def poly_trim(a):
    i = 0
    while i < len(a) - 1 and a[i].is_zero():
        i += 1
    return a[i:]


def poly_divmod(ctx, a, b):
    """Descending-coefficient division over Scalar."""
    a = list(a)
    b = poly_trim(list(b))
    if len(b) == 1 and b[0].is_zero():
        raise ZeroDivisionError("scalar poly division by zero")
    q = [ctx.zero] * max(1, len(a) - len(b) + 1)
    inv = b[0].inverse()
    for i in range(len(a) - len(b) + 1):
        c = a[i] * inv
        q[i] = c
        if not c.is_zero():
            for j, y in enumerate(b):
                a[i + j] = a[i + j] - c * y
    # the zero remainder is [0], as every zero polynomial here
    rem = a[len(a) - len(b) + 1:] if len(a) >= len(b) else a
    return poly_trim(q), poly_trim(rem or [ctx.zero])


def poly_xgcd(ctx, a, b):
    """(g, u, v) with u a + v b = g (monic) over the session field."""
    r0, r1 = poly_trim(list(a)), poly_trim(list(b))
    u0, u1 = [ctx.one], [ctx.zero]
    v0, v1 = [ctx.zero], [ctx.one]
    while not (len(r1) == 1 and r1[0].is_zero()):
        q, r = poly_divmod(ctx, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(ctx, u0, poly_mul(ctx, q, u1))
        v0, v1 = v1, poly_sub(ctx, v0, poly_mul(ctx, q, v1))
    c = r0[0].inverse()
    return ([x * c for x in r0], [x * c for x in u0], [x * c for x in v0])


def poly_sub(ctx, a, b):
    n = max(len(a), len(b))
    a = [ctx.zero] * (n - len(a)) + list(a)
    b = [ctx.zero] * (n - len(b)) + list(b)
    return poly_trim([x - y for x, y in zip(a, b)])


def poly_eval(coeffs, x):
    ctx = x.ctx
    out = ctx.zero
    for c in coeffs:
        out = out * x + c
    return out


def poly_deflate(coeffs, root):
    """Divide by (T - root); assumes root is exact."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1] * root)
    return out


def scalar_poly_roots(ctx, coeffs, candidates=()):
    """All roots (with multiplicity) of a monic Scalar polynomial, or raise.

    Deflates verified candidate roots: zero, the given candidates and then
    the fallback guesses of _fallback_guess, each guess built only when a
    sweep reaches it with the remainder still of degree 1 or more.  Then it
    takes a linear remainder directly and a quadratic one through a
    perfect-square discriminant.  A remainder of degree 3 or more on which
    every candidate fails tries the rational roots of its centred form
    instead (_centred_rational_roots).  Raises FieldExtensionRequired when
    the polynomial does not split over the session field.
    """
    deg = len(coeffs) - 1
    cand = [ctx.zero]
    for c in candidates:
        if c not in cand:
            cand.append(c)
    # the deg + 1 fallback guesses follow the candidates; each is built only
    # when a sweep reaches it with the remainder still unsplit
    guessed = 0
    roots = []
    cur = list(coeffs)
    progress = True
    while len(cur) > 1 and progress:
        progress = False
        i = 0
        while len(cur) > 1:
            if i == len(cand):
                if guessed > deg:
                    break
                guessed += 1
                c = _fallback_guess(ctx, coeffs, guessed)
                if c is None or c in cand:
                    continue
                cand.append(c)
            c = cand[i]
            i += 1
            while len(cur) > 1 and poly_eval(cur, c).is_zero():
                roots.append(c)
                cur = poly_deflate(cur, c)
                progress = True
        if len(cur) == 2:
            roots.append(-(cur[1] / cur[0]))
            cur = cur[:1]
        elif len(cur) == 3 and not progress:
            b, c0 = cur[1], cur[2]
            disc = b * b - 4 * c0
            s = scalar_sqrt(disc)
            if s is not None:
                half = ctx.rational(Fraction(1, 2))
                roots.extend([(-b + s) * half, (-b - s) * half])
                cur = cur[:1]
                progress = True
        elif len(cur) > 3 and not progress:
            # every candidate so far failed on cur, so on its factors too
            cand = [c for c in _centred_rational_roots(ctx, cur) if c not in cand]
            progress = bool(cand)
    if len(cur) > 1:
        raise FieldExtensionRequired(
            "polynomial does not split over the session field"
        )
    mult = {}
    for r in roots:
        mult[r] = mult.get(r, 0) + 1
    return list(mult.items())


def _fallback_guess(ctx, coeffs, k):
    """The k-th fallback root guess of a monic polynomial of degree n, or
    None: -c1/k for k <= n, the natural guess for a root of multiplicity k,
    then -c_n/c_(n-1) when both are nonzero."""
    if k < len(coeffs):
        return -(coeffs[1] / ctx.rational(k))
    if coeffs[-1].is_zero() or coeffs[-2].is_zero():
        return None
    return -(coeffs[-1] / coeffs[-2])


# rational-root-theorem candidates are enumerated only for a leading and a
# constant coefficient up to this size; a larger remainder is not split
_DIVISOR_LIMIT = 10**8


def _centred_rational_roots(ctx, coeffs):
    """The roots T = S - c1/(n c0) of coeffs (descending, degree n) for the
    rational roots S of its centred form coeffs(S - c1/(n c0)), or [].

    The centred form has no S^(n-1) term, and it is the same for a
    polynomial and its shift by any scalar: the charpoly of f + nu id is
    symbolic, but its centred form is rational when that of f is.  Its
    rational roots are the d/e with d dividing the constant and e the
    leading coefficient of the integer polynomial (rational root theorem);
    each is checked in integers, and the caller verifies every returned
    root by exact evaluation before it deflates.
    """
    n = len(coeffs) - 1
    shift = -(coeffs[1] / (coeffs[0] * ctx.rational(n)))
    # Taylor shift by repeated synthetic division: coeffs(S + shift)
    centred = list(coeffs)
    for i in range(n):
        for j in range(1, n + 1 - i):
            centred[j] = centred[j] + shift * centred[j - 1]
    fracs = [c.as_fraction() for c in centred]
    if None in fracs:
        return []
    den = lcm(*(q.denominator for q in fracs))
    ints = [int(q * den) for q in fracs]
    found = [Fraction(0)] if not ints[-1] else []
    while not ints[-1]:
        ints.pop()
    lead, const = ints[0], ints[-1]
    if len(ints) > 1 and max(abs(lead), abs(const)) <= _DIVISOR_LIMIT:
        deg = len(ints) - 1
        for d in _divisors(const):
            for e in _divisors(lead):
                if gcd(d, e) != 1:
                    continue
                for num in (d, -d):
                    if not sum(c * num ** (deg - i) * e ** i for i, c in enumerate(ints)):
                        found.append(Fraction(num, e))
    return [ctx.rational(q) + shift for q in found]


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def eigenvalues_in_field(mat, candidates=()):
    """Eigenvalues with multiplicities, certified over the session field.

    Candidate roots default to the diagonal entries; raises
    FieldExtensionRequired when the spectrum does not live in the field.
    """
    n = len(mat)
    ctx = mat[0][0].ctx
    cp = charpoly(mat, ctx.one)
    cand = list(candidates) + [mat[i][i] for i in range(n)]
    return scalar_poly_roots(ctx, cp, candidates=cand)


def generalized_eigenspace(mat, eigval, multiplicity):
    """Basis of ker((mat - eigval)^multiplicity)."""
    n = len(mat)
    ctx = mat[0][0].ctx
    shifted = [[mat[i][j] - (eigval if i == j else ctx.zero) for j in range(n)] for i in range(n)]
    power = shifted
    for _ in range(multiplicity - 1):
        power = mat_mul(power, shifted)
    return kernel(power)
