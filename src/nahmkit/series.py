"""Precision-tracked Laurent series in one local coordinate.

A TruncatedLaurent is a finite window of coefficients c_v, ..., c_{prec-1}
with the series known modulo z^prec, with prec an int, or math.inf for a
series that is exactly its finite sum.  Every operation computes the exact
guaranteed precision of its output; nothing is ever rounded.

Structural zeros matter: an exact zero (prec infinite) is different from
being zero to the working precision.  Certification logic downstream relies
on the distinction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError, PrecisionExhausted

#: default working precision of a session (overridable per call / via CLI)
DEFAULT_PRECISION = 24


class TruncatedLaurent:
    __slots__ = ("ctx", "val", "coeffs", "prec")

    def __init__(self, ctx, val, coeffs, prec=math.inf):
        self.ctx = ctx
        coeffs = list(coeffs)
        # strip leading zeros (they only shift the valuation)
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            val += 1
        if prec != math.inf:
            coeffs = coeffs[: max(0, prec - val)]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if not coeffs:
            val = 0
        self.val = val
        self.coeffs = tuple(coeffs)
        self.prec = prec

    # -- constructors --

    @classmethod
    def zero(cls, ctx, prec=math.inf):
        return cls(ctx, 0, (), prec)

    @classmethod
    def from_scalar(cls, c, shift=0):
        return cls(c.ctx, shift, (c,))

    @classmethod
    def monomial(cls, ctx, coeff, exponent):
        return cls(ctx, exponent, (coeff,))

    # -- views --

    def is_zero(self):
        """Zero as far as we know (exact zero or zero to precision)."""
        return not self.coeffs

    def is_exact_zero(self):
        return not self.coeffs and self.prec == math.inf

    def valuation(self):
        """Valuation; None for a zero-to-precision series, inf for exact zero."""
        if self.coeffs:
            return self.val
        return math.inf if self.prec == math.inf else None

    def coeff(self, i):
        """Coefficient of z^i; raises if i is beyond the known precision."""
        if i >= self.prec:
            raise PrecisionExhausted(f"coefficient of z^{i} unknown (prec {self.prec})")
        return self._get(i)

    # -- arithmetic --

    def _align(self, other):
        if other.ctx is not self.ctx:
            raise InputError("series arithmetic across sessions")

    def __add__(self, other):
        self._align(other)
        prec = min(self.prec, other.prec)
        # a zero, exact or to precision, adds nothing but its precision
        if not self.coeffs:
            return other.truncate(prec)
        if not other.coeffs:
            return self.truncate(prec)
        lo = min(self.val, other.val)
        hi = min(prec, max(self.val + len(self.coeffs), other.val + len(other.coeffs)))
        out = [self._get(i) + other._get(i) for i in range(lo, hi)]
        return TruncatedLaurent(self.ctx, lo, out, prec)

    def _get(self, i):
        if self.coeffs and self.val <= i < self.val + len(self.coeffs):
            return self.coeffs[i - self.val]
        return self.ctx.zero

    def __neg__(self):
        return TruncatedLaurent(self.ctx, self.val, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedLaurent):
            # scalar multiple
            c = other if not isinstance(other, (int, Fraction)) else self.ctx.rational(other)
            return TruncatedLaurent(
                self.ctx, self.val, [x * c for x in self.coeffs], self.prec
            )
        self._align(other)
        if not self.coeffs or not other.coeffs:
            # a zero times anything is zero to the propagated precision: a
            # series zero modulo z^p has valuation at least p (and an exact
            # zero makes the product exact)
            return TruncatedLaurent.zero(self.ctx, min(
                self.prec + (other.val if other.coeffs else other.prec),
                other.prec + (self.val if self.coeffs else self.prec),
            ))
        prec = min(self.prec + other.val, other.prec + self.val)
        lo = self.val + other.val
        hi = min(prec, self.val + len(self.coeffs) + other.val + len(other.coeffs) - 1)
        acc = [self.ctx.zero] * max(0, hi - lo)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                k = i + j
                if k >= len(acc):
                    break
                if not b.is_zero():
                    acc[k] = acc[k] + a * b
        return TruncatedLaurent(self.ctx, lo, acc, prec)

    __rmul__ = __mul__

    def invert(self, prec=None):
        """Multiplicative inverse; the leading coefficient must be a unit.

        For an exact monomial the result is exact; otherwise the result is
        certified modulo z^{N - 2v} where N is the input precision and v its
        valuation (relative precision is preserved).
        """
        if not self.coeffs:
            raise ZeroDivisionError("inversion of a (to-precision) zero series")
        if self.prec != math.inf:
            rel = self.prec - self.val
            if prec is not None:
                rel = min(rel, prec + self.val)
        elif len(self.coeffs) == 1:
            return TruncatedLaurent.monomial(
                self.ctx, self.coeffs[0].inverse(), -self.val
            )
        else:
            rel = DEFAULT_PRECISION if prec is None else prec + self.val
            rel = max(rel, len(self.coeffs))
        lead = self.coeffs[0]
        lead_inv = lead.inverse()
        # long division: b_0 = 1/c_0, b_n = -(1/c_0) * sum_{j>=1} c_j b_{n-j}
        out = [lead_inv]
        for n in range(1, rel):
            s = self.ctx.zero
            for j in range(1, min(n, len(self.coeffs) - 1) + 1):
                cj = self.coeffs[j]
                if not cj.is_zero():
                    s = s + cj * out[n - j]
            out.append(-(lead_inv * s))
        return TruncatedLaurent(self.ctx, -self.val, out, -self.val + rel)

    def shift(self, k):
        """Multiply by z^k."""
        return TruncatedLaurent(self.ctx, self.val + k, self.coeffs, self.prec + k)

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return TruncatedLaurent(self.ctx, self.val, self.coeffs, prec)

    def substitute_power(self, p):
        """z -> z^p (pull back along the degree-p covering)."""
        if p == 1:
            return self
        out = []
        for i, c in enumerate(self.coeffs):
            if i:
                out.extend([self.ctx.zero] * (p - 1))
            out.append(c)
        return TruncatedLaurent(self.ctx, self.val * p, out, self.prec * p)

    def galois_twist(self, t):
        """z -> t z for a unit scalar t."""
        out = []
        tp = t ** self.val
        for c in self.coeffs:
            out.append(c * tp)
            tp = tp * t
        return TruncatedLaurent(self.ctx, self.val, out, self.prec)

    # -- comparisons --

    def agrees_with(self, other, prec=None):
        """Equality of all coefficients up to the common known precision."""
        self._align(other)
        bound = min(self.prec, other.prec)
        if prec is not None:
            bound = min(bound, prec)
        if bound == math.inf:
            return self.val == other.val and self.coeffs == other.coeffs
        lo = min(self.val if self.coeffs else 0, other.val if other.coeffs else 0)
        return all(self._get(i) == other._get(i) for i in range(lo, bound))

    def __eq__(self, other):
        if not isinstance(other, TruncatedLaurent):
            return NotImplemented
        return (
            self.ctx is other.ctx
            and self.prec == other.prec
            and self.val == other.val
            and self.coeffs == other.coeffs
        )

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            e = self.val + i
            cs = str(c)
            if "+" in cs or "-" in cs[1:] or "/" in cs:
                cs = f"({cs})"
            if e == 0:
                terms.append(cs)
            else:
                ze = "z" if e == 1 else f"z^{e}"
                terms.append(ze if cs == "1" else f"{cs}*{ze}")
        body = " + ".join(terms) if terms else "0"
        if self.prec == math.inf:
            return body
        return f"{body} + O(z^{self.prec})"

    __repr__ = __str__


def series_arith(a, b, op, prec=None):
    """Dispatcher form of the series arithmetic (spec surface)."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "invert":
        return a.invert(prec=prec)
    raise InputError(f"unknown series op {op!r}")
