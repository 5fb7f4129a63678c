"""Exact coefficient field of a session.

A session fixes once and for all the field

    K = Q(zeta_N)(x_1, ..., x_k),        N = lcm(M, 4),

i.e. the cyclotomic field of order M with the Gaussian unit adjoined,
extended by k independent transcendentals as a rational function field.
Scalars are stored in a canonical normalized form (reduced fraction, sorted
monomials, monic denominator), so equality is structural and decidable.

Arithmetic never enlarges M: asking for a root of unity whose order does not
divide N raises FieldExtensionRequired instead of extending the field.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import FieldExtensionRequired, InputError

# ----------------------------------------------------------------------
# cyclotomic arithmetic: Q(zeta_N) in the power basis 1, zeta, ..., zeta^(phi-1)
# ----------------------------------------------------------------------


def _int_poly_div(num, den):
    """Exact division of integer polynomial lists (ascending); num/den."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError("non-exact cyclotomic division")
        q = c // den[-1]
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    if any(num):
        raise ArithmeticError("non-exact cyclotomic division")
    return out


def cyclotomic_polynomial(n):
    """Coefficients (ascending, int) of the n-th cyclotomic polynomial."""
    # x^n - 1 = prod_{d | n} Phi_d; divide out the proper divisors.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_div(poly, cyclotomic_polynomial(d))
    return poly


class CyclotomicField:
    """Q(zeta_N) with exact tuple-of-Fraction elements."""

    def __init__(self, order):
        self.order = order
        phi_coeffs = cyclotomic_polynomial(order)
        self.degree = len(phi_coeffs) - 1
        self.phi_coeffs = tuple(Fraction(c) for c in phi_coeffs)
        self.zero = (Fraction(0),) * self.degree
        self.one = tuple(
            Fraction(1 if i == 0 else 0) for i in range(self.degree)
        )
        # zeta^j in the power basis, for j up to 2*degree (products of basis
        # elements never reach further).
        table = []
        cur = list(self.one)
        for _ in range(2 * self.degree + 1):
            table.append(tuple(cur))
            nxt = [Fraction(0)] + cur[:-1]
            top = cur[-1]
            if top:
                for i in range(self.degree):
                    nxt[i] -= top * self.phi_coeffs[i]
            cur = nxt
        self.power_table = table

    def from_rational(self, q):
        q = Fraction(q)
        return (q,) + (Fraction(0),) * (self.degree - 1)

    def root(self, j):
        """zeta_N^j."""
        j %= self.order
        if j <= 2 * self.degree:
            return self.power_table[j]
        # fold down by repeated squaring through mul
        out = self.one
        base = self.power_table[1]
        while j:
            if j & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            j >>= 1
        return out

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        deg = self.degree
        acc = [Fraction(0)] * deg
        table = self.power_table
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if not y:
                    continue
                xy = x * y
                red = table[i + j]
                for t in range(deg):
                    if red[t]:
                        acc[t] += xy * red[t]
        return tuple(acc)

    def is_zero(self, a):
        return not any(a)

    def inv(self, a):
        """Inverse via extended Euclid against Phi_N in Q[x]."""
        if self.is_zero(a):
            raise ZeroDivisionError("cyclotomic zero division")
        # r0 = Phi, r1 = a; keep s-coefficients for r1 only.
        r0 = list(self.phi_coeffs)
        r1 = list(a)
        s0 = [Fraction(0)]
        s1 = [Fraction(1)]

        def trim(p):
            while p and not p[-1]:
                p.pop()
            return p

        trim(r0), trim(r1)
        while len(r1) > 1 or (len(r1) == 1 and False):
            if len(r1) == 1:
                break
            if len(r0) < len(r1):
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            # r0 -= (lead ratio) x^(d0-d1) r1
            c = r0[-1] / r1[-1]
            k = len(r0) - len(r1)
            for i, v in enumerate(r1):
                r0[i + k] -= c * v
            s0 = s0 + [Fraction(0)] * max(0, k + len(s1) - len(s0))
            for i, v in enumerate(s1):
                s0[i + k] -= c * v
            trim(r0)
            if len(r0) < len(r1):
                r0, r1, s0, s1 = r1, r0, s1, s0
        if not r1:
            raise ZeroDivisionError("element not invertible (shared factor)")
        c = r1[0]
        out = [v / c for v in s1]
        out = out[: self.degree] + [Fraction(0)] * max(0, self.degree - len(out))
        # s1 may exceed the basis length before reduction; fold it.
        if len(s1) > self.degree:
            acc = self.zero
            for j, v in enumerate(s1):
                if v:
                    acc = self.add(acc, tuple(x * (v / c) for x in self.power_table[j]))
            return acc
        return tuple(out)


# ----------------------------------------------------------------------
# sparse multivariate polynomials over the cyclotomic field
#
# monomial = tuple of k exponents; poly = dict monomial -> Cyc (no zeros)
# ----------------------------------------------------------------------


def p_add(cf, a, b):
    out = dict(a)
    for m, c in b.items():
        if m in out:
            s = cf.add(out[m], c)
            if cf.is_zero(s):
                del out[m]
            else:
                out[m] = s
        else:
            out[m] = c
    return out


def p_neg(cf, a):
    return {m: cf.neg(c) for m, c in a.items()}


def p_sub(cf, a, b):
    return p_add(cf, a, p_neg(cf, b))


def p_mul(cf, a, b):
    if not a or not b:
        return {}
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            c = cf.mul(ca, cb)
            if m in out:
                c = cf.add(out[m], c)
            if cf.is_zero(c):
                out.pop(m, None)
            else:
                out[m] = c
    return out


def p_scale(cf, a, c):
    if cf.is_zero(c):
        return {}
    return {m: cf.mul(v, c) for m, v in a.items()}


def _mono_div(ma, mb):
    out = tuple(x - y for x, y in zip(ma, mb))
    if any(e < 0 for e in out):
        return None
    return out


def p_lead(a):
    """Lex-greatest monomial and its coefficient."""
    m = max(a)
    return m, a[m]


def p_divexact(cf, a, b):
    """Exact division a/b, or None if not divisible."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    mb, cb = p_lead(b)
    cb_inv = cf.inv(cb)
    rem = dict(a)
    out = {}
    while rem:
        ma, ca = p_lead(rem)
        m = _mono_div(ma, mb)
        if m is None:
            return None
        c = cf.mul(ca, cb_inv)
        out[m] = c
        for mbb, cbb in b.items():
            mm = tuple(x + y for x, y in zip(m, mbb))
            s = cf.sub(rem.get(mm, cf.zero), cf.mul(c, cbb))
            if cf.is_zero(s):
                rem.pop(mm, None)
            else:
                rem[mm] = s
    return out


def _mono_content(polys):
    it = iter(m for p in polys for m in p)
    first = next(it)
    mins = list(first)
    for m in it:
        for i, e in enumerate(m):
            if e < mins[i]:
                mins[i] = e
    return tuple(mins)


def _p_shift_down(a, mono):
    if not any(mono):
        return a
    return {tuple(x - y for x, y in zip(m, mono)): c for m, c in a.items()}


def _deg_in(a, v):
    return max((m[v] for m in a), default=-1)


def _coeffs_in(a, v):
    """View a as univariate in variable v: degree -> poly in the others."""
    out = {}
    for m, c in a.items():
        d = m[v]
        key = m[:v] + (0,) + m[v + 1 :]
        out.setdefault(d, {})[key] = c
    return out


def p_gcd(cf, a, b):
    """gcd of multivariate polynomials, monic-normalized; primitive PRS."""
    if not a:
        return _normalize_gcd(cf, b)
    if not b:
        return _normalize_gcd(cf, a)
    if len(a) == 1 or len(b) == 1:
        # gcd with a monomial: common monomial part only (coefficients are units)
        mono = _mono_content([a, b])
        return {mono: cf.one}
    # strip common monomial content first
    mono = _mono_content([a, b])
    a = _p_shift_down(a, _mono_content([a]))
    b = _p_shift_down(b, _mono_content([b]))
    # choose the main variable: highest degree appearing
    k = len(next(iter(a)))
    v = max(range(k), key=lambda i: max(_deg_in(a, i), _deg_in(b, i)))
    if max(_deg_in(a, v), _deg_in(b, v)) == 0:
        # constants times monomials only; coefficients in a field, gcd trivial
        return {mono: cf.one}
    g = _gcd_uni(cf, a, b, v)
    g = _p_shift_down(g, _mono_content([g]))
    mono_g = _mono_content([{mono: cf.one}])  # = mono
    out = {tuple(x + y for x, y in zip(m, mono_g)): c for m, c in g.items()}
    return _normalize_gcd(cf, out)


def _normalize_gcd(cf, g):
    if not g:
        return {}
    _, c = p_lead(g)
    return p_scale(cf, g, cf.inv(c))


def _p_content(cf, a, v):
    """Content of a viewed as univariate in v (gcd of coefficients)."""
    coeffs = list(_coeffs_in(a, v).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        if len(g) == 1 and not any(p_lead(g)[0]):
            break
        g = p_gcd(cf, g, c)
    return g


def _gcd_uni(cf, a, b, v):
    ca = _p_content(cf, a, v)
    cb = _p_content(cf, b, v)
    cont = p_gcd(cf, ca, cb)
    pa = p_divexact(cf, a, ca)
    pb = p_divexact(cf, b, cb)
    if _deg_in(pa, v) < _deg_in(pb, v):
        pa, pb = pb, pa
    while True:
        if not pb:
            break
        if _deg_in(pb, v) == 0:
            pb = None  # coprime in the main variable
            break
        r = _prem(cf, pa, pb, v)
        if not r:
            break
        pa, pb = pb, r
    if pb is None:
        return cont
    pb = p_divexact(cf, pb, _p_content(cf, pb, v))
    return p_mul(cf, cont, pb)


def _prem(cf, a, b, v):
    """Pseudo-remainder of a by b in the variable v."""
    da, db = _deg_in(a, v), _deg_in(b, v)
    bl = _coeffs_in(b, v)[db]
    r = dict(a)
    while r and _deg_in(r, v) >= db:
        dr = _deg_in(r, v)
        rl = _coeffs_in(r, v)[dr]
        # r = bl*r - rl * x^(dr-db) * b
        shift = [0] * len(next(iter(r)))
        shift[v] = dr - db
        shifted = {tuple(x + y for x, y in zip(m, shift)): c for m, c in b.items()}
        r = p_sub(cf, p_mul(cf, bl, r), p_mul(cf, rl, shifted))
    return r


# ----------------------------------------------------------------------
# the session field context and canonical scalars
# ----------------------------------------------------------------------


def _lcm(a, b):
    return a * b // gcd(a, b)


class FieldContext:
    """Session field K_{M,k}; create once, thread through everything."""

    def __init__(self, M=12, symbols=("x1",)):
        if M < 1:
            raise InputError("cyclotomic order M must be positive")
        self.M = M
        self.N = _lcm(M, 4)
        self.symbols = tuple(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError("duplicate symbol names")
        self.nvars = len(self.symbols)
        self.cyc = CyclotomicField(self.N)
        self._zero_mono = (0,) * self.nvars
        self.zero = self._scalar({}, {self._zero_mono: self.cyc.one})
        self.one = self.rational(1)

    # -- constructors --

    def _scalar(self, num, den):
        return Scalar(self, num, den)

    def rational(self, q):
        q = Fraction(q)
        if q == 0:
            return self._scalar({}, {self._zero_mono: self.cyc.one})
        return self._scalar(
            {self._zero_mono: self.cyc.from_rational(q)},
            {self._zero_mono: self.cyc.one},
        )

    def sym(self, name):
        try:
            i = self.symbols.index(name)
        except ValueError:
            raise InputError(f"symbol {name!r} not declared in this session")
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self._scalar({mono: self.cyc.one}, {self._zero_mono: self.cyc.one})

    def zeta(self, order, power=1):
        """Primitive order-th root of unity raised to power."""
        if self.N % order != 0:
            raise FieldExtensionRequired(
                f"root of unity of order {order} is not in Q(zeta_{self.N}); "
                f"declare a session with {order} | lcm(M,4)"
            )
        return self._scalar(
            {self._zero_mono: self.cyc.root((self.N // order) * power)},
            {self._zero_mono: self.cyc.one},
        )

    def has_root_of_unity(self, order):
        return self.N % order == 0

    def __repr__(self):
        return f"FieldContext(M={self.M}, symbols={self.symbols})"


class Scalar:
    """Element of the session field in canonical form.

    Immutable; hashable; equality is structural equality of the canonical
    form (reduced fraction, both parts sorted, monic denominator).
    """

    __slots__ = ("ctx", "num", "den", "_hash")

    def __init__(self, ctx, num, den):
        self.ctx = ctx
        num, den = _normalize(ctx, num, den)
        self.num = num
        self.den = den
        self._hash = None

    # -- basic predicates --

    def is_zero(self):
        return not self.num

    def as_fraction(self):
        """The value as a Fraction if it is one, else None."""
        if not self.num:
            return Fraction(0)
        zm = self.ctx._zero_mono
        if set(self.num) != {zm} or set(self.den) != {zm}:
            return None
        cn, cd = self.num[zm], self.den[zm]
        if any(cn[1:]) or any(cd[1:]):
            return None
        return cn[0] / cd[0]

    # -- arithmetic --

    def _check(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.rational(other)
        if not isinstance(other, Scalar) or other.ctx is not self.ctx:
            raise InputError("scalar arithmetic across sessions")
        return other

    def __add__(self, other):
        other = self._check(other)
        cf = self.ctx.cyc
        num = p_add(
            cf,
            p_mul(cf, dict(self.num), dict(other.den)),
            p_mul(cf, dict(other.num), dict(self.den)),
        )
        den = p_mul(cf, dict(self.den), dict(other.den))
        return Scalar(self.ctx, num, den)

    __radd__ = __add__

    def __neg__(self):
        cf = self.ctx.cyc
        return Scalar(self.ctx, p_neg(cf, dict(self.num)), dict(self.den))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        cf = self.ctx.cyc
        return Scalar(
            self.ctx,
            p_mul(cf, dict(self.num), dict(other.num)),
            p_mul(cf, dict(self.den), dict(other.den)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        cf = self.ctx.cyc
        return Scalar(
            self.ctx,
            p_mul(cf, dict(self.num), dict(other.den)),
            p_mul(cf, dict(self.den), dict(other.num)),
        )

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __pow__(self, n):
        if n < 0:
            return (self.ctx.one / self) ** (-n)
        out = self.ctx.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self):
        return self.ctx.one / self

    # -- canonical identity --

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.ctx is other.ctx
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._key(self.num), self._key(self.den)))
        return self._hash

    @staticmethod
    def _key(p):
        return tuple(sorted(p.items()))

    def sort_key(self):
        """Deterministic total-order key (for canonical tables only)."""

        def enc(p):
            return tuple(
                (m, tuple((c.numerator, c.denominator) for c in v))
                for m, v in sorted(p.items())
            )

        return (enc(self.num), enc(self.den))

    # -- display --

    def __str__(self):
        if self.is_zero():
            return "0"
        num = _poly_str(self.ctx, self.num)
        if self.den == {self.ctx._zero_mono: self.ctx.cyc.one}:
            return num
        return f"({num})/({_poly_str(self.ctx, self.den)})"

    __repr__ = __str__


def _normalize(ctx, num, den):
    cf = ctx.cyc
    num = {m: c for m, c in num.items() if not cf.is_zero(c)}
    den = {m: c for m, c in den.items() if not cf.is_zero(c)}
    if not den:
        raise ZeroDivisionError("scalar with zero denominator")
    if not num:
        return {}, {ctx._zero_mono: cf.one}
    # common monomial factor
    mono = _mono_content([num, den])
    if any(mono):
        num = _p_shift_down(num, mono)
        den = _p_shift_down(den, mono)
    # polynomial gcd (skip the trivial monomial/monomial case)
    if len(num) > 1 or len(den) > 1:
        g = p_gcd(cf, num, den)
        if g and (len(g) > 1 or any(p_lead(g)[0])):
            num = p_divexact(cf, num, g)
            den = p_divexact(cf, den, g)
    # monic denominator
    _, c = p_lead(den)
    if c != cf.one:
        ci = cf.inv(c)
        num = p_scale(cf, num, ci)
        den = p_scale(cf, den, ci)
    return num, den


def _cyc_str(ctx, c):
    terms = []
    for i, q in enumerate(c):
        if not q:
            continue
        if i == 0:
            terms.append(str(q))
        else:
            z = f"zeta{ctx.N}" + (f"^{i}" if i > 1 else "")
            terms.append(z if q == 1 else f"{q}*{z}")
    return " + ".join(terms) if terms else "0"


def _poly_str(ctx, p):
    parts = []
    for m, c in sorted(p.items(), reverse=True):
        factors = []
        cs = _cyc_str(ctx, c)
        for name, e in zip(ctx.symbols, m):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        if not factors:
            parts.append(cs)
        elif cs == "1":
            parts.append("*".join(factors))
        else:
            body = cs if "+" not in cs else f"({cs})"
            parts.append(f"{body}*" + "*".join(factors))
    return " + ".join(parts)


# ----------------------------------------------------------------------
# square roots, used for in-field quadratic eigenvalue splitting
# ----------------------------------------------------------------------


def _cyc_sqrt(cf, c):
    """A square root of c in Q(zeta_N), or None. Rational squares plus the
    obvious root-of-unity multiples; enough for the canonical pathway."""
    if cf.is_zero(c):
        return cf.zero
    # candidates q^2 * zeta^(2j) covering c
    for j in range(cf.order):
        z = cf.root(j)
        # c / zeta^(2j) rational?
        q = cf.mul(c, cf.inv(cf.root((2 * j) % cf.order)))
        if not any(q[1:]):
            val = q[0]
            if val > 0:
                from math import isqrt

                n, d = val.numerator, val.denominator
                rn, rd = isqrt(n), isqrt(d)
                if rn * rn == n and rd * rd == d:
                    return cf.mul(cf.from_rational(Fraction(rn, rd)), z)
    return None


def _poly_sqrt(cf, p):
    """Exact square root of a polynomial dict, or None."""
    if not p:
        return {}
    m, c = p_lead(p)
    if any(e % 2 for e in m):
        return None
    c0 = _cyc_sqrt(cf, c)
    if c0 is None:
        return None
    root = {tuple(e // 2 for e in m): c0}
    rem = p_sub(cf, p, p_mul(cf, root, root))
    lead_div = p_scale(cf, root, cf.inv(cf.add(c0, c0)))  # root / (2 c0)
    # descend by lex order: next term = lead(rem) / (2 * lead(root))
    guard = 4 * (len(p) + 2) ** 2
    while rem:
        guard -= 1
        if guard < 0:
            return None
        mr, cr = p_lead(rem)
        md = _mono_div(mr, tuple(e // 2 for e in m))
        if md is None:
            return None
        t = {md: cf.mul(cr, cf.inv(cf.add(c0, c0)))}
        # rem -= 2*root*t + t^2
        two_rt = p_scale(cf, p_mul(cf, root, t), cf.from_rational(2))
        rem = p_sub(cf, rem, p_add(cf, two_rt, p_mul(cf, t, t)))
        root = p_add(cf, root, t)
    return root


def scalar_sqrt(x):
    """A square root of x in the session field, or None if none exists."""
    cf = x.ctx.cyc
    rn = _poly_sqrt(cf, dict(x.num))
    if rn is None:
        return None
    rd = _poly_sqrt(cf, dict(x.den))
    if rd is None:
        # try num*den / den^2
        rn2 = _poly_sqrt(cf, p_mul(cf, dict(x.num), dict(x.den)))
        if rn2 is None:
            return None
        return Scalar(x.ctx, rn2, dict(x.den))
    return Scalar(x.ctx, rn, rd)
