"""Matrices of truncated Laurent series: the working substrate.

Provides the exact kernels every higher layer leans on: arithmetic, and one
forward elimination over the series field that always pivots on an entry of
least valuation, with one back-substitution.  Determinants, solutions of
m X = b, saturated kernels and the Smith invariants over the power-series
ring (powers of z; the Smith form returns only these, without transforms)
are all read off that elimination.  Newton polygons complete the layer.
Characteristic polynomials come from linalg.charpoly, the one
division-free (Berkowitz) routine, which serves series entries as it
serves Scalar ones.

Certification discipline: a pivot that is zero to the working precision but
not exactly zero can never be used silently, nor, where the Smith form or a
kernel reads pivot valuations, a pivot that such an entry may undercut;
such situations raise PrecisionExhausted (kernel_basis reports its basis
uncertified instead) so the caller can retry with a larger N.
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
        return min((e.prec for row in self.entries for e in row), default=math.inf)

    def min_valuation(self):
        vals = [e.val for row in self.entries for e in row if e.coeffs]
        return min(vals) if vals else None

    def submatrix(self, row_idx, col_idx):
        return LaurentMatrix(
            self.ctx, [[self.entries[i][j] for j in col_idx] for i in row_idx]
        )

    def map_entries(self, f):
        return LaurentMatrix(self.ctx, [[f(e) for e in row] for row in self.entries])

    def shift(self, k):
        return self.map_entries(lambda e: e.shift(k))

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


def _eliminate(rows, ncols):
    """Forward elimination over the series field, in place, always on a
    pivot of least valuation.

    Each step scans the unused rows and the first `ncols` unused columns row
    by row, takes the first entry of strictly least valuation as the pivot
    and clears its column from the unused rows, also where the entry there
    vanishes only to precision, so that the uncertainty moves into the rest
    of the row.  A cleared entry is stored as an exact zero without being
    computed.  Returns (pivots, pending, undercut): the pivots (row, col,
    entry, inverse or None) in the order taken, whether an entry left over
    vanishes only to the working precision, and whether some pivot was
    taken while the scan held an entry zero modulo z^p with p below the
    pivot's valuation.  Such an entry may have the lower valuation, and if
    it sits in the pivot row it is never scanned again.

    Over K[[z]] a pivot of least valuation makes every row operation
    unimodular, so without undercut the pivot valuations are the Smith
    invariant exponents.
    """
    used_rows, used_cols = set(), set()
    pivots = []
    undercut = False
    while True:
        best = None
        unknown = math.inf  # least p of an entry zero modulo z^p in the scan
        for i, row in enumerate(rows):
            if i in used_rows:
                continue
            for j in range(ncols):
                if j in used_cols:
                    continue
                e = row[j]
                if e.coeffs:
                    if best is None or e.val < best[0]:
                        best = (e.val, i, j)
                elif e.prec < unknown:
                    unknown = e.prec
        if best is None:
            return pivots, unknown < math.inf, undercut
        if unknown < best[0]:
            undercut = True
        _, pi, pj = best
        used_rows.add(pi)
        used_cols.add(pj)
        piv = rows[pi][pj]
        targets = [
            i for i, row in enumerate(rows)
            if i not in used_rows and not row[pj].is_exact_zero()
        ]
        inv = piv.invert() if targets else None
        pivots.append((pi, pj, piv, inv))
        zero = TruncatedLaurent.zero(piv.ctx)
        for i in targets:
            f = rows[i][pj] * inv
            rows[i] = [
                zero if j == pj else a - f * b
                for j, (a, b) in enumerate(zip(rows[i], rows[pi]))
            ]


def _certain_pivots(rows, ncols, least=False):
    """_eliminate for the routines that cannot report an uncertified rank;
    with least, also for one that reads the pivot valuations."""
    pivots, pending, undercut = _eliminate(rows, ncols)
    if pending:
        raise PrecisionExhausted(
            "all remaining entries vanish to the working precision but are "
            "not structural zeros; raise the precision"
        )
    if least and undercut:
        raise PrecisionExhausted(
            "an entry zero only to the working precision may have lower "
            "valuation than a pivot; raise the precision"
        )
    return pivots


def _back_substitute(rows, pivots, rhs):
    """Solve the triangle that _eliminate leaves, once per column t in rhs.

    Returns, per t, {pivot column c: x_c} with sum_c rows[r][c] x_c equal
    to rows[r][t] on every pivot row r.  A pivot row's entries in the
    columns of earlier pivots vanish by construction and are not read."""
    invs = [piv.invert() if inv is None else inv for _, _, piv, inv in pivots]
    out = []
    for t in rhs:
        x = {}
        for (r, c, _, _), inv in zip(reversed(pivots), reversed(invs)):
            row = rows[r]
            acc = row[t]
            for c2, v in x.items():
                if not row[c2].is_exact_zero():
                    acc = acc - row[c2] * v
            x[c] = acc * inv
        out.append(x)
    return out


def solve(m, rhs):
    """X with m X = rhs over the Laurent-series field, precision tracked.

    m must have full column rank.  Returns None when a column of rhs is not
    in the span of m's columns to the working precision: after elimination
    it keeps a known coefficient in a row without a pivot."""
    if rhs.rows != m.rows:
        raise InputError("matrix shape mismatch")
    k = m.cols
    rows = [list(a) + list(b) for a, b in zip(m.entries, rhs.entries)]
    pivots = _certain_pivots(rows, k)
    if len(pivots) < k:
        raise InputError("matrix not of full column rank over the series field")
    pivot_rows = {p[0] for p in pivots}
    if any(e.coeffs for i, row in enumerate(rows) if i not in pivot_rows for e in row[k:]):
        return None
    cols = _back_substitute(rows, pivots, range(k, k + rhs.cols))
    return LaurentMatrix(m.ctx, [[x[i] for x in cols] for i in range(k)])


def determinant(m):
    """Signed product of the pivots; an exact zero when the rank is short."""
    if m.rows != m.cols:
        raise InputError("determinant of non-square matrix")
    pivots = _certain_pivots([list(row) for row in m.entries], m.cols)
    if len(pivots) < m.rows:
        return TruncatedLaurent.zero(m.ctx)
    acc = TruncatedLaurent.from_scalar(m.ctx.one)
    for _, _, piv, _ in pivots:
        acc = acc * piv
    sign = _perm_sign([p[0] for p in pivots]) * _perm_sign([p[1] for p in pivots])
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


def kernel_basis(m):
    """Basis of the right kernel over the series field, saturated.

    Returns (basis, certified).  Each vector has 1 at its free column, and
    its other entries lie in K[[z]]: a pivot of least valuation divides
    every entry of its row that the back-substitution reads, so the
    back-substitution never leaves the power-series ring.  certified is True
    when every entry left over in the non-pivot rows and columns is an exact
    zero, so that the rank is exact, and, when there are vectors, every
    pivot certainly has least valuation, so that they lie in K[[z]]; the
    entries cleared from the pivot columns, also those that vanished there
    only to precision, vanish by construction and certify nothing."""
    rows = [list(row) for row in m.entries]
    pivots, pending, undercut = _eliminate(rows, m.cols)
    pivot_cols = {p[1] for p in pivots}
    free = [j for j in range(m.cols) if j not in pivot_cols]
    if not free:
        return [], not pending
    zero = TruncatedLaurent.zero(m.ctx)
    one = TruncatedLaurent.from_scalar(m.ctx.one)
    out = []
    for f, x in zip(free, _back_substitute(rows, pivots, free)):
        out.append([-x[j] if j in x else (one if j == f else zero) for j in range(m.cols)])
    return out, not (pending or undercut)


def charpoly(m):
    """det(T I - m) as descending coefficient list [1, c1, ..., cr]."""
    return linalg.charpoly(m.entries, TruncatedLaurent.from_scalar(m.ctx.one))


def smith_normal_form(m):
    """Invariant factors of m over K[[z]]: z^{d_1}, ..., z^{d_r} with
    d_1 <= d_2 <= ..., as exact monomial series.

    Entries must have nonnegative valuation.  The exponents are the pivot
    valuations of _eliminate.  Raises PrecisionExhausted when an invariant
    factor cannot be certified at the working precision (never guesses).
    """
    mv = m.min_valuation()
    if mv is not None and mv < 0:
        raise InputError("Smith normal form expects a power-series matrix")
    pivots = _certain_pivots([list(row) for row in m.entries], m.cols, least=True)
    ctx = m.ctx
    return [TruncatedLaurent.monomial(ctx, ctx.one, d) for d in sorted(p[2].val for p in pivots)]


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
        elif e.prec != math.inf:
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
