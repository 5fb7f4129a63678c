"""Exact linear algebra over the session field (Scalar matrices).

Matrices are plain lists of lists of Scalars.  One sparse Gauss-Jordan
elimination, rref, serves rank, kernel and solve (which hand it their dense
rows as dicts of nonzero entries) and the oracle's truncated models (whose
rows are sparse already).  The reduced row echelon form is unique, so every
caller sees the same answer whatever order the elimination takes.
"""

from __future__ import annotations

from fractions import Fraction

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


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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
    """Basis of the right kernel as column vectors (lists)."""
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


def solve(mat, rhs):
    """One solution of mat*x = rhs, or None."""
    ctx = mat[0][0].ctx
    cols = len(mat[0])
    aug = _sparse(mat)
    for row, b in zip(aug, rhs):
        if not b.is_zero():
            row[cols] = b
    red, pivots = rref(aug)
    if pivots and pivots[-1] == cols:
        return None
    x = [ctx.zero] * cols
    for row, pc in zip(red, pivots):
        x[pc] = row.get(cols, ctx.zero)
    return x


def charpoly(mat):
    """Characteristic polynomial det(T I - mat) by Faddeev-LeVerrier.

    Returns coefficients [1, c1, ..., cn] with c_k the coefficient of
    T^(n-k).
    """
    n = len(mat)
    ctx = mat[0][0].ctx
    coeffs = [ctx.one]
    M = None
    for k in range(1, n + 1):
        M = mat if M is None else mat_mul(mat, mat_add(M, _diag_const(ctx, n, coeffs[-1])))
        tr = M[0][0]
        for i in range(1, n):
            tr = tr + M[i][i]
        coeffs.append(-(tr / k))
    return coeffs


def _diag_const(ctx, n, c):
    return [[c if i == j else ctx.zero for j in range(n)] for i in range(n)]


# ----------------------------------------------------------------------
# univariate polynomials over Scalar (descending-power coefficient lists)
# ----------------------------------------------------------------------


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

    Deflates verified candidate roots, then handles a quadratic remainder
    through a perfect-square discriminant.  Raises FieldExtensionRequired
    when the polynomial does not split over the session field.
    """
    deg = len(coeffs) - 1
    cand = [ctx.zero]
    for c in candidates:
        if c not in cand:
            cand.append(c)
    if deg >= 1:
        # -c1/j are the natural guesses for roots of multiplicity j
        for j in range(1, deg + 1):
            c = -(coeffs[1] / ctx.rational(j))
            if c not in cand:
                cand.append(c)
        if not coeffs[-1].is_zero() and not coeffs[-2].is_zero():
            c = -(coeffs[-1] / coeffs[-2])
            if c not in cand:
                cand.append(c)
    roots = []
    cur = list(coeffs)
    progress = True
    while len(cur) > 1 and progress:
        progress = False
        for c in cand:
            while len(cur) > 1 and poly_eval(cur, c).is_zero():
                roots.append(c)
                cur = poly_deflate(cur, c)
                progress = True
        if len(cur) == 3 and not progress:
            b, c0 = cur[1], cur[2]
            disc = b * b - 4 * c0
            s = scalar_sqrt(disc)
            if s is not None:
                half = ctx.rational(Fraction(1, 2))
                roots.extend([(-b + s) * half, (-b - s) * half])
                cur = cur[:1]
                progress = True
    if len(cur) > 1:
        raise FieldExtensionRequired(
            "polynomial does not split over the session field"
        )
    mult = {}
    order = []
    for r in roots:
        if r in mult:
            mult[r] += 1
        else:
            mult[r] = 1
            order.append(r)
    return [(r, mult[r]) for r in order]


def eigenvalues_in_field(mat, candidates=()):
    """Eigenvalues with multiplicities, certified over the session field.

    Candidate roots default to the diagonal entries; raises
    FieldExtensionRequired when the spectrum does not live in the field.
    """
    n = len(mat)
    ctx = mat[0][0].ctx
    cp = charpoly(mat)
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
