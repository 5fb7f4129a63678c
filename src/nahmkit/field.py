"""Exact coefficient field of a session.

A session fixes once and for all the field

    K = Q(zeta_N)(x_1, ..., x_k),        N = lcm(M, 4),

i.e. the cyclotomic field of order M with the Gaussian unit adjoined,
extended by k independent transcendentals as a rational function field.
Scalars are stored in a canonical normalized form (coprime numerator and
denominator, the denominator's lex-leading coefficient 1), so equality is
structural and decidable.

Scalars are canonical by construction.  `Scalar(ctx, num, den)` trusts its
parts; `reduced(ctx, num, den)` is the one entry that normalizes them (gcd,
monomial content, monic denominator), for general quotients, square roots
and parsed documents.  Arithmetic builds a result directly whenever its
reduced form is known in advance: polynomial plus or times polynomial (over
the shared denominator `ctx.unit`), polynomial plus b/d (which is
(p d + b)/d), a one-term polynomial times b/d (where only a monomial can
cancel), negation, and the inverse (b/d to d/b, made monic).

A coefficient in Q(zeta_N) is one flat int tuple (c_0, ..., c_{phi-1}, d):
integer power-basis coordinates over one positive common denominator, with
gcd(c_0, ..., c_{phi-1}, d) = 1 (the representation of Cohen, A Course in
Computational Algebraic Number Theory, 4.2, and of FLINT's nf_elem).
Products reduce through an integer table of the powers of zeta.  Each order
N has one shared, immutable CyclotomicField.

Arithmetic never enlarges M: asking for a root of unity whose order does not
divide N raises FieldExtensionRequired instead of extending the field.

Each session has one ResidueMap (`ctx.residues`, built on first use): the
residues of scalars in F_p, p the largest prime below 2^31 with p = 1
(mod N), with zeta sent to a primitive N-th root of unity mod p and the
symbols to fixed residues.  It is a ring map wherever it is defined, so a
full column rank of residues certifies full column rank over K.  The
polynomial gcd uses the same prime, root and point (the prime and root are
chosen once per order by _residue_prime): where no coefficient denominator
and no leading coefficient vanishes mod p, the degree of the gcd of the
images in one variable bounds the degree of the gcd over K in it (Brown
1971).  A bound of 0 in every variable certifies a trivial gcd and a bound
equal to one input's degrees makes a single trial division decide; only the
other cases run the pseudo-remainder sequence.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm
from operator import add, mul, sub

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
    """Q(zeta_N); an element is the int tuple (c_0, ..., c_{phi-1}, d) for
    (c_0 + c_1 zeta + ... + c_{phi-1} zeta^(phi-1)) / d, with d > 0 and
    gcd(c_0, ..., c_{phi-1}, d) = 1, so equal values have equal tuples."""

    def __init__(self, order):
        self.order = order
        self.phi_coeffs = tuple(cyclotomic_polynomial(order))
        deg = self.degree = len(self.phi_coeffs) - 1
        self.zero = (0,) * deg + (1,)
        self.one = (1,) + (0,) * (deg - 1) + (1,)
        # zeta^j in the power basis, as int rows (Phi_N is monic), for every
        # j < N and up to 2*degree (products of basis elements reach no further).
        table = []
        cur = [1] + [0] * (deg - 1)
        for _ in range(max(2 * deg + 1, order)):
            table.append(tuple(cur))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for i in range(deg):
                    cur[i] -= top * self.phi_coeffs[i]
        self.power_table = tuple(table)
        # the nonzero (t, r) pairs of each row: zeta^j = sum of r zeta^t
        self._reduce = tuple(
            tuple((t, r) for t, r in enumerate(row) if r) for row in table
        )

    def _canon(self, acc, d):
        """The element acc/d (acc a list of ints, d > 0) in lowest terms."""
        g = gcd(*acc, d)
        if g != 1:
            acc = [c // g for c in acc]
            d //= g
        acc.append(d)
        return tuple(acc)

    def from_coords(self, fracs):
        """The element with the given rational power-basis coordinates."""
        # with d the lcm of reduced denominators, the gcd is already 1
        d = lcm(*(q.denominator for q in fracs))
        return tuple(q.numerator * (d // q.denominator) for q in fracs) + (d,)

    def from_rational(self, q):
        q = Fraction(q)
        return (q.numerator,) + (0,) * (self.degree - 1) + (q.denominator,)

    def root(self, j):
        """zeta_N^j."""
        return self.power_table[j % self.order] + (1,)

    def add(self, a, b):
        deg = self.degree
        da, db = a[deg], b[deg]
        if da == db:
            acc = [x + y for x, y in zip(a[:deg], b)]
        else:
            acc = [x * db + y * da for x, y in zip(a[:deg], b)]
            da *= db
        return self._canon(acc, da)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return tuple(-x for x in a[:-1]) + (a[-1],)

    def mul(self, a, b):
        deg = self.degree
        red = self._reduce
        acc = [0] * deg
        bs = [(j, y) for j, y in enumerate(b[:deg]) if y]
        for i in range(deg):
            x = a[i]
            if x:
                for j, y in bs:
                    xy = x * y
                    for t, r in red[i + j]:
                        acc[t] += xy * r
        return self._canon(acc, a[deg] * b[deg])

    def is_zero(self, a):
        return a == self.zero

    def inv(self, a):
        """Inverse: a rational element swaps numerator and denominator; any
        other goes through extended Euclid against Phi_N in Q[x]."""
        deg = self.degree
        if not any(a[1:deg]):
            c, d = a[0], a[deg]
            if not c:
                raise ZeroDivisionError("cyclotomic zero division")
            return (d if c > 0 else -d,) + (0,) * (deg - 1) + (abs(c),)
        # r0 = Phi, r1 = d*a (the integer numerator); each r = s*a mod Phi.
        r0 = [Fraction(c) for c in self.phi_coeffs]
        r1 = [Fraction(c) for c in a[:deg]]
        s0 = [Fraction(0)]
        s1 = [Fraction(a[deg])]

        def trim(p):
            while p and not p[-1]:
                p.pop()
            return p

        trim(r1)
        while len(r1) > 1:  # len(r0) >= len(r1) holds throughout
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
        out = [Fraction(0)] * deg
        # s1 may exceed the basis length before reduction; fold it.
        for j, v in enumerate(s1):
            if v:
                for t, r in self._reduce[j]:
                    out[t] += r * v / c
        return self.from_coords(out)


_FIELDS = {}


def cyclotomic_field(order):
    """The one CyclotomicField of this order; fields never change after
    construction, so every session shares it."""
    cf = _FIELDS.get(order)
    if cf is None:
        cf = _FIELDS[order] = CyclotomicField(order)
    return cf


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
            m = tuple(map(add, ma, mb))
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
    out = tuple(map(sub, ma, mb))
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
            mm = tuple(map(add, m, mbb))
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
    return {tuple(map(sub, m, mono)): c for m, c in a.items()}


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
    """gcd of multivariate polynomials, made monic in its lex-leading term.

    A monomial input leaves only the common monomial part.  Otherwise the
    monomial content of each input is stripped and _degree_bound bounds the
    degree of the gcd in every variable from images modulo p.  A bound of 0
    in every variable leaves the common monomial part; a bound equal to one
    input's degree vector makes that input the gcd when one exact division
    of the other by it succeeds.  Any other case, and any case the images do
    not certify, runs the pseudo-remainder sequence _gcd_uni in the variable
    of highest degree; it divides out the content of both inputs and of the
    last remainder, not of the remainders between.
    """
    if not a:
        return _normalize_gcd(cf, b)
    if not b:
        return _normalize_gcd(cf, a)
    mono = _mono_content([a, b])
    if len(a) == 1 or len(b) == 1:
        # gcd with a monomial: common monomial part only (coefficients are units)
        return {mono: cf.one}
    a = _p_shift_down(a, _mono_content([a]))
    b = _p_shift_down(b, _mono_content([b]))
    k = len(mono)
    da = [_deg_in(a, i) for i in range(k)]
    db = [_deg_in(b, i) for i in range(k)]
    bound = _degree_bound(cf, a, b, da, db)
    if bound is not None and not any(bound):
        return {mono: cf.one}
    g = None
    if bound == da and p_divexact(cf, b, a) is not None:
        g = a
    elif bound == db and p_divexact(cf, a, b) is not None:
        g = b
    if g is None:
        # the main variable: highest degree appearing
        g = _gcd_uni(cf, a, b, max(range(k), key=lambda i: max(da[i], db[i])))
    out = {tuple(map(add, m, mono)): c for m, c in g.items()}
    return _normalize_gcd(cf, out)


def _degree_bound(cf, a, b, da, db):
    """Bounds on deg_v gcd(a, b) for each variable v, or None.

    a and b have degree vectors da and db.  Where both have positive degree
    in v, zeta and the other variables go to the residues of _residue_prime
    and _residue_point, and the bound is the degree of the gcd of the two
    images in F_p[x_v]: with every coefficient denominator prime to p and
    both leading coefficients in v nonzero mod p, a factorisation a = g h
    over the localisation of Z[zeta] at the prime above p (a discrete
    valuation ring, so Gauss's lemma holds) maps to one of the images in
    which g keeps its degree in v, so the image of g divides both images
    (Brown 1971).  Elsewhere the bound is 0.  None when some denominator or
    leading coefficient vanishes mod p.
    """
    p, zeta_powers = _residue_prime(cf.order)
    ra = _term_residues(a, p, zeta_powers)
    rb = _term_residues(b, p, zeta_powers)
    if ra is None or rb is None:
        return None
    point = _residue_point(p, len(da))
    bound = []
    for v, (dav, dbv) in enumerate(zip(da, db)):
        if not (dav and dbv):
            bound.append(0)
            continue
        fa = _image_in(ra, v, dav, point, p)
        fb = _image_in(rb, v, dbv, point, p)
        if not (fa[-1] and fb[-1]):
            return None
        bound.append(_gcd_degree_mod_p(fa, fb, p))
    return bound


def _term_residues(a, p, zeta_powers):
    """[(monomial, residue of its coefficient)], or None when some
    coefficient denominator is divisible by p."""
    out = []
    for m, c in a.items():
        r = _cyc_residue(c, p, zeta_powers)
        if r is None:
            return None
        out.append((m, r))
    return out


def _image_in(terms, v, deg, point, p):
    """Ascending coefficients in F_p[x_v] of the polynomial with these
    term residues, the other variables sent to the point."""
    out = [0] * (deg + 1)
    for m, r in terms:
        for j, (x, e) in enumerate(zip(point, m)):
            if e and j != v:
                r = r * pow(x, e, p) % p
        out[m[v]] += r
    return [c % p for c in out]


def _gcd_degree_mod_p(f, g, p):
    """Degree of gcd(f, g) in F_p[x], by Euclid on ascending coefficient
    lists whose leading coefficients are nonzero."""
    while g:
        dg = len(g) - 1
        inv = pow(g[-1], -1, p)
        f = list(f)
        for i in range(len(f) - 1, dg - 1, -1):
            c = f[i] * inv % p
            if c:
                for j in range(dg):
                    f[i - dg + j] = (f[i - dg + j] - c * g[j]) % p
        del f[dg:]
        while f and not f[-1]:
            f.pop()
        f, g = g, f
    return len(f) - 1


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
    db = _deg_in(b, v)
    bl = _coeffs_in(b, v)[db]
    r = dict(a)
    while r and _deg_in(r, v) >= db:
        dr = _deg_in(r, v)
        rl = _coeffs_in(r, v)[dr]
        # r = bl*r - rl * x^(dr-db) * b
        shift = [0] * len(next(iter(r)))
        shift[v] = dr - db
        shifted = {tuple(map(add, m, shift)): c for m, c in b.items()}
        r = p_sub(cf, p_mul(cf, bl, r), p_mul(cf, rl, shifted))
    return r


# ----------------------------------------------------------------------
# the session field context and canonical scalars
# ----------------------------------------------------------------------


class FieldContext:
    """Session field K_{M,k}; create once, thread through everything."""

    def __init__(self, M=12, symbols=("x1",)):
        if M < 1:
            raise InputError("cyclotomic order M must be positive")
        self.M = M
        self.N = lcm(M, 4)
        self.symbols = tuple(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError("duplicate symbol names")
        self.nvars = len(self.symbols)
        self.cyc = cyclotomic_field(self.N)
        self._zero_mono = (0,) * self.nvars
        # the denominator of every polynomial scalar (shared, never mutated)
        self.unit = {self._zero_mono: self.cyc.one}
        self.zero = Scalar(self, {}, self.unit)
        self.one = self.rational(1)
        self._residues = None

    # -- constructors --

    def rational(self, q):
        q = Fraction(q)
        if q == 0:
            return self.zero
        return Scalar(self, {self._zero_mono: self.cyc.from_rational(q)}, self.unit)

    def sym(self, name):
        try:
            i = self.symbols.index(name)
        except ValueError:
            raise InputError(f"symbol {name!r} not declared in this session")
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Scalar(self, {mono: self.cyc.one}, self.unit)

    def zeta(self, order, power=1):
        """Primitive order-th root of unity raised to power."""
        if self.N % order != 0:
            raise FieldExtensionRequired(
                f"root of unity of order {order} is not in Q(zeta_{self.N}); "
                f"declare a session with {order} | lcm(M,4)"
            )
        return Scalar(
            self,
            {self._zero_mono: self.cyc.root((self.N // order) * power)},
            self.unit,
        )

    def has_root_of_unity(self, order):
        return self.N % order == 0

    @property
    def residues(self):
        """The session's ResidueMap into F_p, built on first use (into an
        attribute set in __init__: one added later slows every read)."""
        if self._residues is None:
            self._residues = ResidueMap(self)
        return self._residues

    def __repr__(self):
        return f"FieldContext(M={self.M}, symbols={self.symbols})"


class Scalar:
    """Element of the session field in canonical form.

    Immutable; hashable; equality is structural equality of the canonical
    form: numerator and denominator coprime, the denominator's lex-leading
    coefficient 1.  The constructor trusts its parts to be canonical; parts
    that may not be go through `reduced`.
    """

    __slots__ = ("ctx", "num", "den", "_hash")

    def __init__(self, ctx, num, den):
        self.ctx = ctx
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
        if any(cn[1:-1]) or any(cd[1:-1]):
            return None
        return Fraction(cn[0] * cd[-1], cn[-1] * cd[0])

    # -- arithmetic --

    def _check(self, other):
        if type(other) is Scalar and other.ctx is self.ctx:
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.rational(other)
        raise InputError("scalar arithmetic across sessions")

    def __add__(self, other):
        other = self._check(other)
        # canonical and immutable: a zero summand returns the other one as is
        if not other.num:
            return self
        if not self.num:
            return other
        ctx = self.ctx
        cf = ctx.cyc
        unit = ctx.unit
        a, b = (self, other) if self.den == unit else (other, self)
        if a.den != unit:
            return reduced(
                ctx,
                p_add(cf, p_mul(cf, a.num, b.den), p_mul(cf, b.num, a.den)),
                p_mul(cf, a.den, b.den),
            )
        if b.den == unit:
            num = p_add(cf, a.num, b.num)
            return Scalar(ctx, num, unit) if num else ctx.zero
        # p + b/d = (p d + b)/d, reduced since gcd(p d + b, d) = gcd(b, d) = 1
        return Scalar(ctx, p_add(cf, p_mul(cf, a.num, b.den), b.num), b.den)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ctx, p_neg(self.ctx.cyc, self.num), self.den)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        ctx = self.ctx
        cf = ctx.cyc
        unit = ctx.unit
        if not self.num or not other.num:
            return ctx.zero
        a, b = (self, other) if self.den == unit else (other, self)
        num = p_mul(cf, a.num, b.num)
        if a.den != unit:
            return reduced(ctx, num, p_mul(cf, a.den, b.den))
        if b.den == unit:
            return Scalar(ctx, num, unit)
        if len(a.num) == 1:
            # c x^e * b/d with gcd(b, d) = 1: only a monomial can cancel
            mono = _mono_content([num, b.den])
            return Scalar(ctx, _p_shift_down(num, mono), _p_shift_down(b.den, mono))
        return reduced(ctx, num, b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        cf = self.ctx.cyc
        return reduced(
            self.ctx,
            p_mul(cf, self.num, other.den),
            p_mul(cf, self.den, other.num),
        )

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ctx.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self):
        """1/(b/d) = d/b, with both parts divided by the lex-leading
        coefficient of b; no gcd, since gcd(b, d) = 1 already."""
        if not self.num:
            raise ZeroDivisionError("scalar division by zero")
        cf = self.ctx.cyc
        _, c = p_lead(self.num)
        if c == cf.one:
            return Scalar(self.ctx, self.den, self.num)
        ci = cf.inv(c)
        return Scalar(self.ctx, p_scale(cf, self.den, ci), p_scale(cf, self.num, ci))

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
            return tuple((m, _coords(v)) for m, v in sorted(p.items()))

        return (enc(self.num), enc(self.den))

    # -- display --

    def __str__(self):
        if self.is_zero():
            return "0"
        num = _poly_str(self.ctx, self.num)
        if self.den == self.ctx.unit:
            return num
        return f"({num})/({_poly_str(self.ctx, self.den)})"

    __repr__ = __str__


def reduced(ctx, num, den):
    """The canonical scalar num/den, for parts that may share a factor or
    have a denominator that is not monic; the one normalizing entry."""
    return Scalar(ctx, *_normalize(ctx, num, den))


def _normalize(ctx, num, den):
    cf = ctx.cyc
    num = {m: c for m, c in num.items() if not cf.is_zero(c)}
    den = {m: c for m, c in den.items() if not cf.is_zero(c)}
    if not den:
        raise ZeroDivisionError("scalar with zero denominator")
    if not num:
        return {}, ctx.unit
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


def _coords(a):
    """The power-basis coordinates of a cyclotomic element, each c/d in
    lowest terms (d > 0) as the integer pair (c, d)."""
    d = a[-1]
    out = []
    for c in a[:-1]:
        g = gcd(c, d)
        out.append((c // g, d // g))
    return tuple(out)


def _cyc_str(ctx, c):
    terms = []
    for i, (n, d) in enumerate(_coords(c)):
        if not n:
            continue
        q = str(n) if d == 1 else f"{n}/{d}"
        if i == 0:
            terms.append(q)
        else:
            z = f"zeta{ctx.N}" + (f"^{i}" if i > 1 else "")
            terms.append(z if q == "1" else f"{q}*{z}")
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
# residues modulo a word-size prime
# ----------------------------------------------------------------------


def _is_prime(n):
    """Deterministic Miller-Rabin: the bases 2, 3, 5, 7 decide every n
    below 3 215 031 751."""
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n):
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] if n > 1 else out


class ResidueMap:
    """The residues of a session's scalars in F_p at one fixed point.

    p and the root r are _residue_prime(N): p = 1 (mod N) and zeta goes to
    a primitive N-th root of unity r mod p, so Phi_N(r) = 0; symbol i goes
    to _residue_point, 7^(3i+5) mod p, far from small integers.  A
    coefficient (c_0, ..., c_{phi-1}, d) goes to sum c_i r^i / d, and a
    scalar num/den to num(point) / den(point).  That is a ring map on the
    local ring of the scalars whose coefficient denominators are prime to p
    and whose denominator does not vanish at the point; any other scalar has
    no image (None).  A minor of a matrix over that ring maps to the minor
    of the images, so full column rank mod p certifies full column rank over
    K (the specialisation argument of Schwartz 1980 and Zippel 1979).
    """

    def __init__(self, ctx):
        self.p, self.zeta_powers = _residue_prime(ctx.N)
        self.point = _residue_point(self.p, ctx.nvars)

    def _poly(self, a):
        """The residue of a polynomial dict at the point, or None."""
        p = self.p
        acc = 0
        for m, c in a.items():
            v = _cyc_residue(c, p, self.zeta_powers)
            if v is None:
                return None
            for x, e in zip(self.point, m):
                if e:
                    v = v * pow(x, e, p) % p
            acc += v
        return acc % p

    def __call__(self, x):
        """The residue of the scalar x, or None where the map is undefined."""
        num, den = self._poly(x.num), self._poly(x.den)
        if num is None or not den:
            return None
        return num * pow(den, -1, self.p) % self.p


def _cyc_residue(c, p, zeta_powers):
    """sum c_i r^i / d mod p for the coefficient (c_0, ..., c_{phi-1}, d), or
    None when p divides d."""
    d = c[-1] % p
    if not d:
        return None
    v = sum(map(mul, c, zeta_powers))
    return v % p if d == 1 else v * pow(d, -1, p) % p


@cache
def _residue_prime(N):
    """(p, zeta_powers): p the largest prime below 2^31 with p = 1 (mod N),
    and the powers r^0, ..., r^(phi-1) of a primitive N-th root of unity r
    mod p.  The one choice, made once per order, that ResidueMap and the
    gcd degree bound share.  (Kept off CyclotomicField: an attribute set
    after construction slows every attribute read of the field.)"""
    p = (2**31 - 2) // N * N + 1
    while not _is_prime(p):
        p -= N
    qs = _prime_factors(N)
    g = 2
    while True:
        r = pow(g, (p - 1) // N, p)
        if all(pow(r, N // q, p) != 1 for q in qs):
            break
        g += 1
    return p, tuple(pow(r, i, p) for i in range(cyclotomic_field(N).degree))


@cache
def _residue_point(p, k):
    """The residues 7^(3i+5) mod p of the symbols x_1, ..., x_k."""
    return tuple(pow(7, 3 * i + 5, p) for i in range(k))


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
        # c / zeta^(2j) rational?
        q = cf.mul(c, cf.root(-2 * j))
        if not any(q[1:-1]):
            n, d = q[0], q[-1]
            if n > 0:
                rn, rd = isqrt(n), isqrt(d)
                if rn * rn == n and rd * rd == d:
                    return cf.mul(cf.from_rational(Fraction(rn, rd)), cf.root(j))
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
    half_inv = cf.inv(cf.add(c0, c0))
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
        t = {md: cf.mul(cr, half_inv)}
        # rem -= 2*root*t + t^2
        two_rt = p_scale(cf, p_mul(cf, root, t), cf.from_rational(2))
        rem = p_sub(cf, rem, p_add(cf, two_rt, p_mul(cf, t, t)))
        root = p_add(cf, root, t)
    return root


def scalar_sqrt(x):
    """A square root of x in the session field, or None when none is found.
    None is no proof: in Q(zeta_12), scalar_sqrt(3) is None, yet
    3 = (zeta + zeta^-1)^2 (_cyc_sqrt tries only q * zeta^j, q rational)."""
    cf = x.ctx.cyc
    rn = _poly_sqrt(cf, x.num)
    if rn is None:
        return None
    rd = _poly_sqrt(cf, x.den)
    if rd is None:
        # try num*den / den^2
        rn2 = _poly_sqrt(cf, p_mul(cf, x.num, x.den))
        if rn2 is None:
            return None
        return reduced(x.ctx, rn2, x.den)
    return reduced(x.ctx, rn, rd)
