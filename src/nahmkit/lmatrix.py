"""Matrices of truncated Laurent series: the working substrate.

Provides the exact kernels every higher layer leans on: arithmetic,
inversion and determinants over the series field, Smith normal form over the
power-series ring (invariant factors are powers of z), column echelon /
kernels, and Newton polygons.  Characteristic polynomials come from
linalg.charpoly, the one division-free (Berkowitz) routine, which serves
series entries as it serves Scalar ones.

Certification discipline: a pivot that is zero to the working precision but
not exactly zero can never be used silently; such situations raise
PrecisionExhausted so the caller can retry with a larger N.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg
from .errors import InputError, PrecisionExhausted
from .series import TruncatedLaurent

# ----------------------------------------------------------------------
# LaurentMatrix
# ----------------------------------------------------------------------


class LaurentMatrix:
    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, ctx, entries):
        self.ctx = ctx
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise InputError("ragged matrix")

    # -- constructors --

    @classmethod
    def identity(cls, ctx, n):
        one = TruncatedLaurent.from_scalar(ctx.one)
        zero = TruncatedLaurent.zero(ctx)
        return cls(ctx, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, ctx, rows, cols):
        z = TruncatedLaurent.zero(ctx)
        return cls(ctx, [[z for _ in range(cols)] for _ in range(rows)])

    @classmethod
    def block_diagonal(cls, ctx, blocks):
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        z = TruncatedLaurent.zero(ctx)
        out = [[z for _ in range(m)] for _ in range(n)]
        r = c = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r + i][c + j] = b.entries[i][j]
            r += b.rows
            c += b.cols
        return cls(ctx, out)

    # -- simple views --

    def precision(self):
        return min((e.eff_prec() for row in self.entries for e in row), default=math.inf)

    def min_valuation(self):
        vals = [e.val for row in self.entries for e in row if e.coeffs]
        return min(vals) if vals else None

    def transpose(self):
        return LaurentMatrix(self.ctx, [list(col) for col in zip(*self.entries)])

    def submatrix(self, row_idx, col_idx):
        return LaurentMatrix(
            self.ctx, [[self.entries[i][j] for j in col_idx] for i in row_idx]
        )

    def map_entries(self, f):
        return LaurentMatrix(self.ctx, [[f(e) for e in row] for row in self.entries])

    def shift(self, k):
        return self.map_entries(lambda e: e.shift(k))

    def substitute_power(self, p):
        return self.map_entries(lambda e: e.substitute_power(p))

    def truncate(self, prec):
        return self.map_entries(lambda e: e.truncate(prec))

    # -- arithmetic --

    def __add__(self, other):
        if other.rows != self.rows or other.cols != self.cols:
            raise InputError("matrix shape mismatch")
        return LaurentMatrix(
            self.ctx,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        return self + other.scale(self.ctx.rational(-1))

    def scale(self, c):
        if isinstance(c, TruncatedLaurent):
            return self.map_entries(lambda e: e * c)
        return self.map_entries(lambda e: e * c)

    def __mul__(self, other):
        if isinstance(other, TruncatedLaurent):
            return self.scale(other)
        if self.cols != other.rows:
            raise InputError("matrix shape mismatch")
        z = TruncatedLaurent.zero(self.ctx)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for t in range(self.cols):
                    a = self.entries[i][t]
                    b = other.entries[t][j]
                    if a.is_exact_zero() or b.is_exact_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return LaurentMatrix(self.ctx, out)

    def agrees_with(self, other, prec=None):
        return all(
            a.agrees_with(b, prec=prec)
            for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb)
        )

    def __str__(self):
        return "[" + "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        ) + "]"

    __repr__ = __str__


# ----------------------------------------------------------------------
# elimination over the series field
# ----------------------------------------------------------------------


def _pick_pivot(work, used_rows, used_cols, nrows, ncols, strict=True):
    """Entry of minimal valuation among unused rows/cols; None if all zero.

    strict: a remaining entry that vanishes only to precision aborts with
    PrecisionExhausted; non-strict callers get (None, pending) back and must
    downgrade their certification instead.
    """
    best = None
    pending = False
    for i in range(nrows):
        if i in used_rows:
            continue
        for j in range(ncols):
            if j in used_cols:
                continue
            e = work[i][j]
            if e.coeffs:
                v = e.val
                if best is None or v < best[0]:
                    best = (v, i, j)
            elif not e.exact:
                pending = True
    if best is None and pending and strict:
        raise PrecisionExhausted(
            "all remaining entries vanish to the working precision but are "
            "not structural zeros; raise the precision"
        )
    if strict:
        return best
    return best, pending


def invert_matrix(m):
    """Inverse over the Laurent-series field, precision tracked."""
    if m.rows != m.cols:
        raise InputError("inverse of non-square matrix")
    n = m.rows
    work = [list(row) for row in m.entries]
    ident = [list(row) for row in LaurentMatrix.identity(m.ctx, n).entries]
    perm = []
    used_rows, used_cols = set(), set()
    for _ in range(n):
        got = _pick_pivot(work, used_rows, used_cols, n, n)
        if got is None:
            raise InputError("matrix not invertible over the series field")
        _, pi, pj = got
        used_rows.add(pi)
        used_cols.add(pj)
        perm.append((pi, pj))
        inv = work[pi][pj].invert()
        work[pi] = [e * inv for e in work[pi]]
        ident[pi] = [e * inv for e in ident[pi]]
        for i in range(n):
            if i != pi and work[i][pj].coeffs:
                f = work[i][pj]
                work[i] = [a - f * b for a, b in zip(work[i], work[pi])]
                ident[i] = [a - f * b for a, b in zip(ident[i], ident[pi])]
    # rows of the inverse: variable pj solved from row pi
    out = [None] * n
    for pi, pj in perm:
        out[pj] = ident[pi]
    return LaurentMatrix(m.ctx, out)


def determinant(m):
    if m.rows != m.cols:
        raise InputError("determinant of non-square matrix")
    n = m.rows
    work = [list(row) for row in m.entries]
    sign = 1
    acc = TruncatedLaurent.from_scalar(m.ctx.one)
    used_rows, used_cols = set(), set()
    order = []
    for _ in range(n):
        # pending (zero-to-precision) entries raise inside the picker, so a
        # missing pivot means a structurally singular matrix
        got = _pick_pivot(work, used_rows, used_cols, n, n)
        if got is None:
            return TruncatedLaurent.zero(m.ctx)
        _, pi, pj = got
        used_rows.add(pi)
        used_cols.add(pj)
        order.append((pi, pj))
        piv = work[pi][pj]
        acc = acc * piv
        inv = piv.invert()
        for i in range(n):
            if i not in used_rows and work[i][pj].coeffs:
                f = work[i][pj] * inv
                work[i] = [a - f * b for a, b in zip(work[i], work[pi])]
    # permutation sign
    rows = [pi for pi, _ in order]
    cols = [pj for _, pj in order]
    sign = _perm_sign(rows) * _perm_sign(cols)
    return acc if sign == 1 else acc * m.ctx.rational(-1)


def _perm_sign(seq):
    seen = [False] * len(seq)
    pos = {v: i for i, v in enumerate(sorted(seq))}
    norm = [pos[v] for v in seq]
    sign = 1
    for i in range(len(norm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = norm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def column_echelon(m):
    """Column echelon over the series field.

    Returns (rank, transform R, reduced) with m * R = reduced, the last
    (cols - rank) columns of `reduced` vanishing (exactly, or to precision;
    `certified` is True when they vanish structurally or the matrix entries
    are exact).
    """
    n, c = m.rows, m.cols
    work = [list(row) for row in m.entries]
    trans = [list(row) for row in LaurentMatrix.identity(m.ctx, c).entries]
    used_rows, used_cols = set(), set()
    pivots = []
    saw_pending = False
    while True:
        got, pending = _pick_pivot(work, used_rows, used_cols, n, c, strict=False)
        if got is None:
            saw_pending = pending
            break
        _, pi, pj = got
        used_rows.add(pi)
        used_cols.add(pj)
        pivots.append((pi, pj))
        inv = work[pi][pj].invert()
        for j in range(c):
            if j != pj and work[pi][j].coeffs:
                f = work[pi][j] * inv
                for i in range(n):
                    work[i][j] = work[i][j] - work[i][pj] * f
                for i in range(c):
                    trans[i][j] = trans[i][j] - trans[i][pj] * f
    rank = len(pivots)
    pivot_cols = {pj for _, pj in pivots}
    free_cols = [j for j in range(c) if j not in pivot_cols]
    certified = not saw_pending and all(
        work[i][j].is_exact_zero() for j in free_cols for i in range(n)
    )
    # order transform columns: pivot columns first, then kernel columns
    cols_order = [pj for _, pj in pivots] + free_cols
    R = LaurentMatrix(m.ctx, [[trans[i][j] for j in cols_order] for i in range(c)])
    red = LaurentMatrix(m.ctx, [[work[i][j] for j in cols_order] for i in range(n)])
    return rank, R, red, certified


def kernel_basis(m):
    """Basis of the right kernel over the series field (saturated)."""
    rank, R, red, certified = column_echelon(m)
    out = []
    for j in range(rank, m.cols):
        vec = [R.entries[i][j] for i in range(m.cols)]
        out.append(_saturate(m.ctx, vec))
    return out, certified


def _saturate(ctx, vec):
    """Scale a series vector so entries lie in the power-series ring with a
    unit somewhere (primitive lattice vector)."""
    vals = [e.val for e in vec if e.coeffs]
    if not vals:
        return vec
    v = min(vals)
    return [e.shift(-v) for e in vec]


def charpoly(m):
    """det(T I - m) as descending coefficient list [1, c1, ..., cr]."""
    return linalg.charpoly(m.entries, TruncatedLaurent.from_scalar(m.ctx.one))


# ----------------------------------------------------------------------
# Smith normal form over the power-series ring
# ----------------------------------------------------------------------


def smith_normal_form(m):
    """Smith normal form over K[[z]].

    Entries must have nonnegative valuation.  Returns (invariants, L, R)
    with L*m*R = diag(z^{d_1}, ..., z^{d_r}), d_1 <= d_2 <= ..., and L, R
    invertible over the power-series ring at the working precision.  The
    invariants are returned as exact monomial series z^{d_i}.

    Raises PrecisionExhausted when an invariant factor cannot be certified
    at the working precision (never guesses).
    """
    ctx = m.ctx
    mv = m.min_valuation()
    if mv is not None and mv < 0:
        raise InputError("Smith normal form expects a power-series matrix")
    n, c = m.rows, m.cols
    work = [list(row) for row in m.entries]
    L = [list(row) for row in LaurentMatrix.identity(ctx, n).entries]
    R = [list(row) for row in LaurentMatrix.identity(ctx, c).entries]
    exponents = []
    t = 0
    while t < min(n, c):
        best = None
        pending = False
        for i in range(t, n):
            for j in range(t, c):
                e = work[i][j]
                if e.coeffs:
                    if best is None or e.val < best[0]:
                        best = (e.val, i, j)
                elif not e.exact:
                    pending = True
        if best is None:
            if pending:
                raise PrecisionExhausted(
                    "cannot certify invariant factor: remaining entries vanish "
                    "to precision only"
                )
            break  # exact zero block: remaining invariants are 0
        d, pi, pj = best
        if pi != t:
            work[t], work[pi] = work[pi], work[t]
            L[t], L[pi] = L[pi], L[t]
        if pj != t:
            for row in work:
                row[t], row[pj] = row[pj], row[t]
            for row in R:
                row[t], row[pj] = row[pj], row[t]
        # normalize pivot to exactly z^d: divide the row by the unit part
        unit = work[t][t].shift(-d)  # valuation 0, unit
        unit_inv = unit.invert()
        work[t] = [e * unit_inv for e in work[t]]
        L[t] = [e * unit_inv for e in L[t]]
        work[t][t] = TruncatedLaurent.monomial(ctx, ctx.one, d)
        # clear the column
        for i in range(n):
            if i != t and work[i][t].coeffs:
                f = work[i][t].shift(-d)  # in K[[z]] since d is minimal
                work[i] = [a - f * b for a, b in zip(work[i], work[t])]
                L[i] = [a - f * b for a, b in zip(L[i], L[t])]
        # clear the row
        for j in range(c):
            if j != t and work[t][j].coeffs:
                f = work[t][j].shift(-d)
                for i in range(n):
                    work[i][j] = work[i][j] - work[i][t] * f
                for i in range(c):
                    R[i][j] = R[i][j] - R[i][t] * f
        exponents.append(d)
        t += 1
    invariants = [TruncatedLaurent.monomial(ctx, ctx.one, d) for d in sorted(exponents)]
    # exponents come out weakly increasing already (min-val pivoting); sort is a no-op
    return invariants, LaurentMatrix(ctx, L), LaurentMatrix(ctx, R)


# ----------------------------------------------------------------------
# Newton polygon
# ----------------------------------------------------------------------


def newton_polygon(coeffs):
    """Slopes of the lower Newton polygon of a T-polynomial.

    `coeffs[i]` is the series coefficient of T^(r-i) (so coeffs[0] is the
    leading coefficient).  Returns [(slope, multiplicity)] sorted by slope,
    slope being the negated edge slope m/p as a reduced Fraction; an exact
    zero tail (T^j dividing the polynomial) contributes slope 0.

    Raises PrecisionExhausted when a coefficient that could support the hull
    is zero to precision without being structurally zero.
    """
    r = len(coeffs) - 1
    if r < 1:
        return []
    tail = 0
    while tail < r and coeffs[r - tail].is_exact_zero():
        tail += 1
    top = r - tail
    pts = []
    unknown = []
    for i in range(top + 1):
        e = coeffs[i]
        if e.coeffs:
            pts.append((i, Fraction(e.val)))
        elif not e.exact:
            unknown.append((i, Fraction(e.prec)))
        # exact zero in the middle: genuinely +inf, never on the lower hull
    if not pts or pts[0][0] != 0:
        raise InputError("leading coefficient of the characteristic polynomial vanishes")
    if pts[-1][0] != top:
        raise PrecisionExhausted(
            "trailing Newton-polygon coefficient known only to precision"
        )
    hull = _lower_hull(pts)
    # certification: unknown points must lie strictly above the hull
    for i, bound in unknown:
        if bound <= _hull_value(hull, i):
            raise PrecisionExhausted(
                f"coefficient of T^{r - i} vanishes to precision but could "
                "support the Newton polygon; raise the precision"
            )
    out = []
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        slope = -(v2 - v1) / (i2 - i1)
        out.append((slope, i2 - i1))
    if tail:
        out.append((Fraction(0), tail))
    merged = {}
    for s, mult in out:
        merged[s] = merged.get(s, 0) + mult
    return sorted(merged.items())


def _lower_hull(pts):
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies on or above segment hull[-2] -> p
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _hull_value(hull, x):
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            return y1 + (y2 - y1) * Fraction(x - x1, x2 - x1)
    return hull[-1][1]
