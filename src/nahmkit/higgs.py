"""Higgs fields on filtered disc germs: slope, type, goodness.

Two data pathways coexist.

Canonical pathway: a germ is a direct sum of elementary blocks, each the
push-forward along u -> u^p = z of a rank-k twist of a line datum

    theta_up = d(a) + (alpha + N) du/u,    a = a_m u^{-m} + ... + a_1 u^{-1},

with gcd(p, m) = 1 and a_m invertible when m > 0.  The Galois orbit of the
leading data is stored through its in-field invariant, the radicand
A = a_m^p (the session field need not contain the p-th roots themselves).

Matrix pathway: a germ is a filtered lattice plus the matrix A of
theta = A dz/z in the compatible frame.  The slope and the type
decompositions share one leading-form split: on the p-fold cover with
T = s^{-m} S the characteristic polynomial becomes integral, a coprime
factorization f0 * g0 of its leading form is Hensel-lifted, and the germ is
split along the two lifted factors by kernels; theta on each part is read
off by one solve in the part's frame.  The slope split takes f0 from the
top segment of the Newton polygon, the type split from one Galois orbit of
the residue.  Each part is certified by slope_check once and
carries its characteristic polynomial on to the next step.  Failures are
honest errors (NotAdmissible / FieldExtensionRequired / PrecisionExhausted),
never guesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf

from .errors import (
    FieldExtensionRequired,
    InputError,
    NotAdmissible,
    PrecisionExhausted,
)
from . import linalg
from .field import scalar_sqrt
from .filtered import FilteredLattice, frame_order, lattice_morphism_ok, normalize_weight
from .lmatrix import (
    LaurentMatrix,
    charpoly,
    kernel_basis,
    newton_polygon,
    solve,
)
from .series import DEFAULT_PRECISION, TruncatedLaurent

# ----------------------------------------------------------------------
# elementary blocks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ElementaryBlock:
    """One canonical-form summand of a Higgs germ.

    weights/degrees/twists are per upstairs line (k entries); the downstairs
    rank is p*k.  `lead` is an explicit leading coefficient when available;
    `radicand` = lead**p is the Galois-orbit invariant and is what equality
    uses.  `injection` is an opaque verbatim-carried slot for the
    exceptional tame nilpotent part of the global transforms.
    """

    p: int
    m: int
    alpha: object  # Scalar
    weights: tuple  # Fractions, upstairs, in (-1, 0]
    degrees: tuple  # ints, per line
    radicand: object = None  # Scalar, None iff m == 0
    lead: object = None  # Scalar or None
    tail: tuple = ()  # Scalars a_{m-1} ... a_1
    nilp: tuple = ()  # k x k strictly upper Scalar rows, () = zero
    twists: tuple = ()  # TorusPoint classes or None, per line
    injection: object = None

    # -- constructors --

    @staticmethod
    def make(ctx, p, m, alpha=None, weights=(Fraction(0),), degrees=None,
             lead=None, radicand=None, tail=(), nilp=(), twists=(), injection=None):
        if p < 1 or m < 0:
            raise InputError("invalid block covering data")
        if m > 0 and gcd(p, m) != 1:
            raise InputError(f"slope data ({p},{m}) not coprime")
        alpha = alpha if alpha is not None else ctx.zero
        if m == 0:
            if lead is not None or radicand is not None or tail:
                raise InputError("tame block carries no irregular part")
        else:
            if lead is not None:
                if lead.is_zero():
                    raise InputError("leading coefficient of the irregular part vanishes")
                rad = lead ** p
                if radicand is not None and radicand != rad:
                    raise InputError("lead and radicand disagree")
                radicand = rad
            if radicand is None or radicand.is_zero():
                raise InputError("irregular block needs an invertible leading datum")
        k = len(weights)
        if degrees is None:
            degrees = (0,) * k
        if len(degrees) != k:
            raise InputError("degrees do not match the upstairs rank")
        ws, ds = [], []
        for w, d in zip(weights, degrees):
            w, shift = normalize_weight(w, 0)
            ws.append(w)
            ds.append(d - shift)
        tail = tuple(tail)
        if m > 0 and len(tail) > m - 1:
            raise InputError("irregular tail too long")
        if nilp:
            if len(nilp) != k or any(len(r) != k for r in nilp):
                raise InputError("nilpotent part has wrong shape")
            for i in range(k):
                for j in range(k):
                    if nilp[i][j].is_zero():
                        continue
                    if j <= i:
                        raise InputError("nilpotent part must be strictly upper")
                    # N sends line j into line i: theta preserves the
                    # filtration only if ws[i] <= ws[j].  An entry into a
                    # strictly lower weight is kept: it preserves the
                    # filtration and vanishes on the graded pieces.
                    if ws[i] > ws[j]:
                        raise InputError(
                            "nilpotent part maps a line into a line of higher weight")
            nilp = tuple(tuple(r) for r in nilp)
        if twists and len(twists) != k:
            raise InputError("twists do not match the upstairs rank")
        return ElementaryBlock(
            p=p, m=m, alpha=alpha, weights=tuple(ws), degrees=tuple(ds),
            radicand=radicand, lead=lead, tail=tail, nilp=nilp,
            twists=tuple(twists), injection=injection,
        )

    # -- derived quantities --

    @property
    def k(self):
        return len(self.weights)

    @property
    def rank(self):
        return self.p * self.k

    @property
    def slope(self):
        return Fraction(self.m, self.p)

    def is_tame(self):
        return (self.p, self.m) == (1, 0)

    def is_exceptional(self):
        """The (1,0,0) part: tame with nilpotent residue."""
        return self.is_tame() and self.alpha.is_zero()

    def downstairs_weights(self):
        out = []
        for c in self.weights:
            for j in range(self.p):
                out.append(Fraction(c - j, self.p))
        return out

    def nilp_matrix(self, ctx):
        k = self.k
        if not self.nilp:
            return [[ctx.zero] * k for _ in range(k)]
        return [list(r) for r in self.nilp]

    def orbit_key(self):
        """Canonical key of the type (p, m, o): Galois-invariant."""
        if self.m == 0:
            lead_part = ("tame", self.alpha.sort_key())
        else:
            lead_part = ("irr", self.radicand.sort_key())
        inv_tail = ()
        if self.tail and self.lead is not None:
            s = pow(self.m, -1, self.p) if self.p > 1 else 0
            parts = []
            for idx, a in enumerate(self.tail):
                i = self.m - 1 - idx
                e = (-i * s) % self.p
                parts.append((a * self.lead ** e).sort_key())
            inv_tail = tuple(parts)
        elif self.tail:
            inv_tail = tuple(a.sort_key() for a in self.tail)
        return (self.p, self.m, lead_part, inv_tail, self.alpha.sort_key())

    def table_key(self):
        """Full comparison key used by roundtrip verdicts."""
        nil = tuple(tuple(c.sort_key() for c in row) for row in self.nilp)
        tw = tuple(
            (t.class_key() if t is not None else None) for t in (self.twists or ())
        )
        return (
            self.orbit_key(), self.weights, self.degrees, nil, tw,
        )

    def pardeg(self):
        """Contribution to the global parabolic degree: sum deg - delta, with
        delta the sum of the downstairs weights (c - j)/p over the weights c
        and j = 0..p-1, that is sum(weights) - k(p-1)/2."""
        delta = sum(self.weights, Fraction(0)) - Fraction(self.k * (self.p - 1), 2)
        return sum(self.degrees) - delta

    def describe(self):
        o = "0" if self.m == 0 and self.alpha.is_zero() else (
            str(self.alpha) if self.m == 0 else f"orbit[a^{self.p}={self.radicand}]"
        )
        return {
            "p": self.p,
            "m": self.m,
            "orbit": o,
            "weights": [str(w) for w in self.weights],
            "degrees": list(self.degrees),
        }


# ----------------------------------------------------------------------
# Higgs germs
# ----------------------------------------------------------------------


class HiggsGerm:
    """Higgs field on a filtered disc germ; canonical or matrix form.

    coord is "finite" (coordinate vanishing at the singular point of the
    dual torus) or "infinity" (coordinate tau at infinity; endomorphism
    germs are wrapped as theta = -tau^{-2} g dtau).
    """

    __slots__ = ("ctx", "coord", "blocks", "lattice", "theta")

    def __init__(self, ctx, coord, blocks=None, lattice=None, theta=None):
        if coord not in ("finite", "infinity"):
            raise InputError("coord must be 'finite' or 'infinity'")
        self.ctx = ctx
        self.coord = coord
        self.blocks = tuple(blocks) if blocks is not None else None
        self.lattice = lattice
        self.theta = theta
        if self.blocks is None and (lattice is None or theta is None):
            raise InputError("germ needs blocks or (lattice, theta)")
        if theta is not None and lattice is not None:
            if theta.rows != lattice.rank or theta.cols != lattice.rank:
                raise InputError("theta shape does not match the lattice rank")

    @classmethod
    def from_blocks(cls, ctx, blocks, coord="finite"):
        return cls(ctx, coord, blocks=tuple(blocks))

    @classmethod
    def from_matrix(cls, lattice, theta, coord="finite"):
        return cls(lattice.ctx, coord, lattice=lattice, theta=theta)

    def is_canonical(self):
        return self.blocks is not None

    @property
    def rank(self):
        if self.blocks is not None:
            return sum(b.rank for b in self.blocks)
        return self.lattice.rank

    def weights(self):
        if self.blocks is not None:
            out = []
            for b in self.blocks:
                out.extend(b.downstairs_weights())
            return sorted(out, reverse=True)
        return list(self.lattice.weights)

    def __repr__(self):
        kind = "canonical" if self.is_canonical() else "matrix"
        return f"HiggsGerm({kind}, rank={self.rank}, coord={self.coord})"


def _grouped(blocks, key):
    """[(key, [blocks with that key])], keys in first-seen order."""
    groups = {}
    for b in blocks:
        groups.setdefault(key(b), []).append(b)
    return list(groups.items())


def recommended_precision(p, m, weights):
    den = max((Fraction(w).denominator for w in weights), default=1)
    return p * (m + 2) + den


# ----------------------------------------------------------------------
# realization of canonical data as matrix germs
# ----------------------------------------------------------------------


def _sorted_germ(ctx, weights, theta):
    order = frame_order(weights)
    return FilteredLattice(ctx, weights, level=0), theta.submatrix(order, order)


def realize_block(ctx, block):
    """Matrix germ of one elementary block (weights, theta with
    theta = A dz/z in the compatible frame).

    Uses the explicit leading coefficient when present; otherwise the
    radicand presentation (a diagonal-rescaled Galois twist whose entries
    live in the session field).
    """
    p, m, k = block.p, block.m, block.k
    r = p * k
    zero = TruncatedLaurent.zero(ctx)
    A = [[zero for _ in range(r)] for _ in range(r)]
    idx = lambda t, j: t * p + j  # upstairs line t, power u^j

    def add_term(row, col, coeff, zexp):
        if coeff.is_zero():
            return
        A[row][col] = A[row][col] + TruncatedLaurent.monomial(ctx, coeff, zexp)

    # residue part (alpha I + N) du/u = ((alpha I + N)/p) dz/z
    pinv = ctx.rational(Fraction(1, p))
    nilp = block.nilp_matrix(ctx)
    for t in range(k):
        for j in range(p):
            add_term(idx(t, j), idx(t, j), block.alpha * pinv, 0)
            for t2 in range(k):
                add_term(idx(t2, j), idx(t, j), nilp[t2][t] * pinv, 0)
    # irregular part d(a) = sum_i (-i a_i / p) u^{-i} dz/z
    if m > 0:
        if block.lead is not None:
            terms = {m: block.lead}
            for pos, a in enumerate(block.tail):
                i = m - 1 - pos
                if not a.is_zero():
                    terms[i] = a
            for i, a_i in terms.items():
                c0 = ctx.rational(Fraction(-i, p)) * a_i
                for t in range(k):
                    for j in range(p):
                        jj = (j - i) % p
                        zshift = (j - i - jj) // p
                        add_term(idx(t, jj), idx(t, j), c0, zshift)
        else:
            if any(not a.is_zero() for a in block.tail):
                raise FieldExtensionRequired(
                    "realizing a tailed irregular block needs an explicit "
                    "leading coefficient in the session field"
                )
            # radicand presentation: conjugate by diag(a_m^{s j}) so every
            # entry is a power of the radicand a_m^p
            s = pow(m, -1, p) if p > 1 else 0
            for t in range(k):
                for j in range(p):
                    jj = (j - m) % p
                    zshift = (j - m - jj) // p
                    e = 1 + s * (jj - j)
                    assert e % p == 0
                    coeff = ctx.rational(Fraction(-m, p)) * block.radicand ** (e // p)
                    add_term(idx(t, jj), idx(t, j), coeff, zshift)
    weights = block.downstairs_weights()
    return _sorted_germ(ctx, weights, LaurentMatrix(ctx, A))


def realized_lattice(ctx, block):
    """The lattice of realize_block's germ, without building theta: its
    weights are the block's downstairs weights, sorted, at level 0."""
    return FilteredLattice(ctx, block.downstairs_weights(), level=0)


def realize(germ):
    """Canonical germ -> matrix germ (identity on matrix germs)."""
    if not germ.is_canonical():
        return germ
    ctx = germ.ctx
    if len(germ.blocks) == 1:
        # realize_block's germ is sorted already
        return HiggsGerm.from_matrix(*realize_block(ctx, germ.blocks[0]), germ.coord)
    weights = []
    thetas = []
    for b in germ.blocks:
        lat, th = realize_block(ctx, b)
        weights.extend(lat.weights)
        thetas.append(th)
    lat, theta = _sorted_germ(ctx, weights, LaurentMatrix.block_diagonal(ctx, thetas))
    return HiggsGerm.from_matrix(lat, theta, germ.coord)


# ----------------------------------------------------------------------
# germ pull-back and the slope certificate
# ----------------------------------------------------------------------


def _germ_pullback(weights, level, A, p):
    """Pull back a matrix germ along u^p = z; returns (weights, A) in the
    compatible frame w_i = u^{-n_i} phi^* v_i, sorted."""
    ctx = A.ctx
    ns = [(p * level - p * c).__floor__() for c in weights]
    new_w = [n + p * c for n, c in zip(ns, weights)]
    order = frame_order(new_w)
    pc = ctx.rational(p)
    ent = [
        [A.entries[i][j].substitute_power(p).shift(ns[i] - ns[j]) * pc for j in order]
        for i in order
    ]
    return [new_w[i] for i in order], LaurentMatrix(ctx, ent)


@dataclass
class SlopeCertificate:
    p: int
    m: int
    residues: dict  # jump level -> Scalar matrix
    lattice_ok: bool
    residue_ok: bool

    @property
    def ok(self):
        return self.lattice_ok and self.residue_ok


def slope_check(germ, p, m):
    """Does the germ have pure slope (p, m)?  Returns (bool, certificate).

    Checks, on the compatible frame after pull-back by u^p = z: that
    z^m * theta preserves every lattice level, and (for (p,m) != (1,0))
    that its residue is invertible on each graded piece.
    """
    if m > 0 and gcd(p, m) != 1:
        raise InputError("slope data must be coprime")
    g = realize(germ)
    w_up, A_up = _germ_pullback(list(g.lattice.weights), g.lattice.level, g.theta, p)
    X = A_up.shift(m)
    r = len(w_up)
    lattice_ok = lattice_morphism_ok(X, w_up, w_up)
    residues = {}
    residue_ok = True
    if lattice_ok:
        levels = sorted(set(w_up), reverse=True)
        for b in levels:
            idxs = [i for i in range(r) if w_up[i] == b]
            mat = [
                [X.entries[i][j].coeff(0) for j in idxs]
                for i in idxs
            ]
            residues[b] = mat
            if (p, m) != (1, 0):
                if linalg.rank(mat) < len(mat):
                    residue_ok = False
    cert = SlopeCertificate(p=p, m=m, residues=residues,
                            lattice_ok=lattice_ok, residue_ok=residue_ok)
    return cert.ok, cert


# ----------------------------------------------------------------------
# Hensel factorization along the Newton polygon
# ----------------------------------------------------------------------


def hensel_split(ctx, coeffs, f0, g0, prec):
    """Lift the coprime mod-z factorization f0 * g0 of a polynomial with
    series coefficients (descending lists; coeffs[0] must be exactly 1 and
    all coefficients in K[[z]]).

    The lift finds one z-slice of F and of G per power of z.  Step n sums
    the products F[a] * G[n - a] over the 0 < a < n where both slices are
    nonzero, and adds only the nonzero entries of each product: on the
    germ path the input coefficients are series in z^p, so most slices
    vanish.  A zero residual gives zero slices without a solve, since zero
    is the only solution of f0 * dG + g0 * dF = 0 with deg dG < r2 and
    deg dF < r1.

    Returns (F, G) as descending lists of series known modulo z^prec.
    """
    r = len(coeffs) - 1
    r1, r2 = len(f0) - 1, len(g0) - 1
    if r1 + r2 != r:
        raise InputError("factor degrees do not match")
    g, u, _ = linalg.poly_xgcd(ctx, f0, g0)
    # _leading_split's pairs are coprime: f0 with f0(0) != 0 and S^k, or one
    # orbit's (S^p - B)^mult and the factors of the other roots
    assert len(g) == 1, "mod-z factors are not coprime"

    def c_at(n):
        # coefficient slice of the input at z^n (descending scalar list)
        return [
            (ctx.one if n == 0 else ctx.zero) if i == 0 else coeffs[i].coeff(n)
            for i in range(r + 1)
        ]

    F = [_pad(ctx, f0, r1)]  # F[n]: scalar list (padded, descending) at z^n
    G = [_pad(ctx, g0, r2)]
    F_nz, G_nz = [], set()  # the n >= 1 with F[n], resp. G[n], nonzero
    for n in range(1, prec):
        acc = [ctx.zero] * (r + 1)
        for a in F_nz:
            if n - a in G_nz:
                # both factors are padded, so the product has length r + 1
                for i, x in enumerate(linalg.poly_mul(ctx, F[a], G[n - a])):
                    if not x.is_zero():
                        acc[i] = acc[i] + x
        R = linalg.poly_trim([t - s for t, s in zip(c_at(n), acc)])
        if len(R) == 1 and R[0].is_zero():
            F.append([ctx.zero] * (r1 + 1))
            G.append([ctx.zero] * (r2 + 1))
            continue
        # solve f0 * dG + g0 * dF = R with deg dG < r2, deg dF < r1
        uR = linalg.poly_mul(ctx, u, R)
        _, dG = linalg.poly_divmod(ctx, uR, g0)
        num = linalg.poly_sub(ctx, R, linalg.poly_mul(ctx, f0, dG))
        # exact: u f0 = 1 mod g0, so num = R - f0 (u R mod g0) = 0 mod g0
        dF, _ = linalg.poly_divmod(ctx, num, g0)
        F.append(_pad(ctx, dF, r1))
        G.append(_pad(ctx, dG, r2))
        if not all(x.is_zero() for x in F[n]):
            F_nz.append(n)
        if not all(x.is_zero() for x in G[n]):
            G_nz.add(n)
    Fs = [
        TruncatedLaurent(ctx, 0, [F[n][i] for n in range(len(F))], prec=prec)
        for i in range(r1 + 1)
    ]
    Gs = [
        TruncatedLaurent(ctx, 0, [G[n][i] for n in range(len(G))], prec=prec)
        for i in range(r2 + 1)
    ]
    return Fs, Gs


def _pad(ctx, a, deg):
    a = list(a)
    return [ctx.zero] * (deg + 1 - len(a)) + a


# ----------------------------------------------------------------------
# germ splitting along charpoly factors
# ----------------------------------------------------------------------


def _eval_poly_at_matrix(ctx, coeffs, A):
    """The polynomial with descending coefficients coeffs at A, by Horner:
    out * A, then the next coefficient added to the diagonal."""
    n = A.rows
    out = LaurentMatrix.identity(ctx, n).scale(coeffs[0])
    for c in coeffs[1:]:
        rows = [list(row) for row in (out * A).entries]
        for i in range(n):
            rows[i][i] = rows[i][i] + c
        out = LaurentMatrix(ctx, rows)
    return out


def compatible_subframe(ctx, weights, vecs):
    """Weight-respecting reduction of spanning vectors to a compatible frame
    of the saturated sub-lattice (intersection of the ambient lattice with
    the spanned subspace); returns (sub_weights, columns).

    Vectors are grouped by the residue class of their parabolic degree;
    graded leading terms that become dependent after integral shifts are
    reduced, strictly lowering a degree, until the leads are independent.
    """
    vs = [list(v) for v in vecs]

    def pdeg(v):
        best = None
        for i, e in enumerate(v):
            if e.coeffs:
                d = weights[i] - e.val
                if best is None or d > best:
                    best = d
        if best is None:
            raise InputError("zero vector in splitting basis")
        return best

    def lead_vec(v, d):
        # graded leading term: component i sits at z^(weights[i] - d)
        out = []
        for i, e in enumerate(v):
            exp = weights[i] - d
            out.append(e._get(int(exp)) if exp.denominator == 1 else ctx.zero)
        return out

    # each pass lowers a degree, and the wedge of vs bounds their sum below
    for _ in range(400):
        degs = [pdeg(v) for v in vs]
        classes = {}
        for i, d in enumerate(degs):
            classes.setdefault(d - d.__floor__(), []).append(i)
        reduced = False
        for idxs in classes.values():
            if len(idxs) < 2:
                continue
            mat = [lead_vec(vs[i], degs[i]) for i in idxs]
            dep_space = linalg.kernel([list(col) for col in zip(*mat)])
            if not dep_space:
                continue
            dep = dep_space[0]
            live = [i for i, c in enumerate(dep) if not c.is_zero()]
            tgt = max(live, key=lambda i: degs[idxs[i]])
            d_tgt = degs[idxs[tgt]]
            inv = dep[tgt].inverse()
            newv = list(vs[idxs[tgt]])
            for i in live:
                if i == tgt:
                    continue
                shift = int(d_tgt - degs[idxs[i]])
                c = dep[i] * inv
                newv = [
                    a + (e.shift(-shift) * c)
                    for a, e in zip(newv, vs[idxs[i]])
                ]
            vs[idxs[tgt]] = newv
            reduced = True
            break
        if not reduced:
            order = frame_order(degs)
            return [degs[i] for i in order], [vs[i] for i in order]
    raise AssertionError("compatible-frame reduction did not stabilize")


def _split_by_factors(g, factor_list):
    """Split a matrix germ along pairwise-coprime charpoly factors.

    factor_list: list of descending TruncatedLaurent coefficient lists.
    Returns list of sub-germs (matrix form) in the same order.  Each part
    is the kernel of F(A) for its factor F; A commutes with F(A), so the
    kernel is A-invariant and theta restricted to it is the one solution
    B of S B = A S in the part's frame S.
    """
    ctx = g.ctx
    A = g.theta
    r = A.rows
    parts = []
    for coeffs in factor_list:
        B = _eval_poly_at_matrix(ctx, coeffs, A)
        vecs, _certified = kernel_basis(B)
        parts.append(vecs)
    if sum(len(v) for v in parts) != r:
        raise NotAdmissible(
            "characteristic factors do not split the germ at this precision"
        )
    out = []
    for vecs in parts:
        ws, frame_cols = compatible_subframe(ctx, list(g.lattice.weights), vecs)
        norm = []
        norm_cols = []
        for w, colv in zip(ws, frame_cols):
            w0, shift = normalize_weight(w, 0)
            norm.append(w0)
            norm_cols.append([e.shift(shift) for e in colv])
        order = frame_order(norm)
        S = LaurentMatrix(ctx, [[norm_cols[j][i] for j in order] for i in range(r)])
        B = solve(S, A * S)
        if B is None:
            raise NotAdmissible("splitting frame did not block-diagonalize theta")
        sub_lat = FilteredLattice(ctx, [norm[i] for i in order], level=0)
        out.append(HiggsGerm.from_matrix(sub_lat, B, g.coord))
    return out


# ----------------------------------------------------------------------
# the leading-form split (shared by the slope and type decompositions)
# ----------------------------------------------------------------------


def _cover_form(cp, p, m):
    """The charpoly cp on the p-fold cover with T = s^{-m} S: the
    coefficients c_i(s^p) s^(m i), which must be integral.  Their constant
    terms are the graded leading form phi(S) (descending, monic)."""
    ctil = [c.substitute_power(p).shift(m * i) for i, c in enumerate(cp)]
    if any(c.coeffs and c.val < 0 for c in ctil):
        raise NotAdmissible(f"slope {m}/{p} is not the top slope of the charpoly")
    return ctil


def _leading_split(g, ctil, p, m, f0):
    """Split a matrix germ along a factor f0 of the leading form phi of its
    cover form ctil.

    g0 = phi / f0; the coprime pair (f0, g0) is Hensel-lifted on the cover,
    descended to charpoly factors F and G, and the germ split along them.
    Returns [(part, its charpoly)] for F, then for G.
    """
    ctx = g.ctx
    g0, rem = linalg.poly_divmod(ctx, [c.coeff(0) for c in ctil], f0)
    # both callers pass a divisor: the top segment or one orbit's factor
    assert len(rem) == 1 and rem[0].is_zero(), "factor does not divide the leading form"
    prec = min(min(c.prec for c in ctil), max(8, DEFAULT_PRECISION * p))
    factors = [
        [_descend_series(ctx, c.shift(-m * i), p) for i, c in enumerate(lifted)]
        for lifted in hensel_split(ctx, ctil, f0, g0, prec)
    ]
    return [(part, charpoly(part.theta)) for part in _split_by_factors(g, factors)]


def _descend_series(ctx, c, phat):
    if c.val % phat != 0:
        raise NotAdmissible("factor does not descend (valuation)")
    if any(not x.is_zero() for i, x in enumerate(c.coeffs) if i % phat):
        raise NotAdmissible("factor does not descend (mixed exponents)")
    # known mod z^prec descends to known mod w^ceil(prec / phat)
    prec = c.prec if c.prec == inf else -(-c.prec // phat)
    return TruncatedLaurent(ctx, c.val // phat, c.coeffs[::phat], prec)


# ----------------------------------------------------------------------
# slope decomposition
# ----------------------------------------------------------------------


def slope_decomposition(germ):
    """Split a germ into pure-slope parts; returns [(germ, (p, m))].

    Slopes <= 0 collapse to the logarithmic part (1, 0).  Raises
    NotAdmissible when the germ does not split over the session field.
    """
    if germ.is_canonical():
        groups = _grouped(germ.blocks, lambda b: (b.p, b.m) if b.m else (1, 0))
        return [
            (HiggsGerm.from_blocks(germ.ctx, blocks, germ.coord), pm)
            for pm, blocks in sorted(groups, key=lambda grp: Fraction(grp[0][1], grp[0][0]))
        ]
    return [(part, pm) for part, _, pm in _slope_parts(germ, charpoly(germ.theta))]


def _slope_to_pm(mu):
    if mu <= 0:
        return (1, 0)
    return (mu.denominator, mu.numerator)


def _slope_parts(g, cp):
    """Pure-slope parts of a matrix germ with charpoly cp, by ascending
    slope: [(part, its charpoly, (p, m))].

    The top slope group is split off along the top Newton segment f0 of the
    leading form and the rest recursed on; each part passes slope_check
    once.
    """
    pm_groups = {}
    for mu, mult in newton_polygon(cp):
        pm = _slope_to_pm(mu)
        pm_groups[pm] = pm_groups.get(pm, 0) + mult
    pms = sorted(pm_groups, key=lambda t: Fraction(t[1], t[0]))
    needed = max(
        recommended_precision(p, m, g.lattice.weights) for p, m in pms
    )
    if g.theta.precision() < needed:
        raise PrecisionExhausted(
            f"germ needs working precision >= {needed} to certify its "
            f"decomposition (matrix known to {g.theta.precision()})"
        )
    p, m = pms[-1]
    if len(pms) == 1:
        if not slope_check(g, p, m)[0]:
            raise NotAdmissible(
                f"single Newton slope {m}/{p} but the lattice certificate fails"
            )
        return [(g, cp, (p, m))]
    # past the top segment every cover coefficient has positive valuation,
    # so the leading form is f0 * S^(r - mult); f0 ends on a vertex, a
    # coefficient of valuation 0, so S^(r - mult) is prime to f0
    ctil = _cover_form(cp, p, m)
    f0 = [c.coeff(0) for c in ctil[:pm_groups[p, m] + 1]]
    (top, cp_top), (rest, cp_rest) = _leading_split(g, ctil, p, m, f0)
    out = _slope_parts(rest, cp_rest)
    if not slope_check(top, p, m)[0]:
        raise NotAdmissible(f"slope-{m}/{p} part fails its certificate")
    return out + [(top, cp_top, (p, m))]


# ----------------------------------------------------------------------
# type decomposition (refinement by residue orbits)
# ----------------------------------------------------------------------
#
# Orbit labels are ("tame", alpha) for logarithmic parts and
# ("irr", radicand) otherwise, carrying actual session scalars; the radicand
# is the p-th power of the leading coefficient of the irregular part, the
# in-field invariant of the Galois orbit.


def _power_factor(ctx, base, mult):
    out = [ctx.one]
    for _ in range(mult):
        out = linalg.poly_mul(ctx, out, base)
    return out


def _orbit_groups_from_phi(ctx, phi, p, m):
    """Split phi(S) into Galois-orbit factors; returns [(label, factor)].

    The polynomial must live in S^p, so phi(S) = psi(S^p); each root B of
    psi gives the factor (S^p - B)^mult.  When m = 0 (so p = 1) B is a
    residue alpha, labelled ("tame", alpha).  Otherwise B must not vanish,
    and it relates to the block radicand by radicand = B * (-p/m)^p (the
    realized leading normalization -m a / p).
    """
    r = len(phi) - 1
    if r % p:
        raise NotAdmissible("rank is not divisible by the covering degree")
    psi = []
    for i in range(r + 1):
        if i % p == 0:
            psi.append(phi[i])
        elif not phi[i].is_zero():
            raise NotAdmissible(
                "residue leading form is not Galois-homogeneous "
                "(germ not admissible over this covering)"
            )
    out = []
    for B, mult in linalg.scalar_poly_roots(ctx, psi):
        if m == 0:
            label = ("tame", B)
        elif B.is_zero():
            raise NotAdmissible("pure-slope germ with vanishing residue")
        else:
            label = ("irr", B * ctx.rational(Fraction(-p, m) ** p))
        base = [ctx.one] + [ctx.zero] * (p - 1) + [-B]  # S^p - B
        out.append((label, _power_factor(ctx, base, mult)))
    return out


def _orbit_label_of_block(b):
    if b.m == 0:
        return ("tame", b.alpha)
    return ("irr", b.radicand)


def type_decomposition(germ):
    """Refine a pure-slope germ by Galois orbits of the residue.

    Returns [(germ, (p, m, label))] with label = ("tame", alpha) or
    ("irr", radicand).  A canonical germ is grouped by block orbit; a
    matrix germ is certified pure-slope by the slope split and then split
    by the same leading-form split, one orbit factor at a time.
    """
    if germ.is_canonical():
        out = []
        for _, blocks in _grouped(germ.blocks, lambda b: b.orbit_key()[:3]):
            b = blocks[0]
            pm = (b.p, b.m) if b.m else (1, 0)
            out.append((
                HiggsGerm.from_blocks(germ.ctx, blocks, germ.coord),
                pm + (_orbit_label_of_block(b),),
            ))
        return out
    parts = _slope_parts(germ, charpoly(germ.theta))
    if len(parts) != 1:
        raise InputError("type decomposition expects a pure-slope germ")
    g, cp, (p, m) = parts[0]
    return [(part, (p, m, label)) for part, _, label in _orbit_parts(g, cp, p, m)]


def _orbit_parts(g, cp, p, m):
    """Galois-orbit parts of a pure-slope (p, m) matrix germ with charpoly
    cp: [(part, its charpoly, label)].  Every orbit factor of the leading
    form but the last is split off in turn."""
    ctil = _cover_form(cp, p, m)
    groups = _orbit_groups_from_phi(g.ctx, [c.coeff(0) for c in ctil], p, m)
    out = []
    for label, f0 in groups[:-1]:
        (part, cp_part), (g, cp) = _leading_split(g, ctil, p, m, f0)
        out.append((part, cp_part, label))
        ctil = _cover_form(cp, p, m)
    out.append((g, cp, groups[-1][0]))
    return out


# ----------------------------------------------------------------------
# recognition and goodness
# ----------------------------------------------------------------------


def _scalar_nth_root(x, n):
    """An exact n-th root of a scalar when one is easily exhibited."""
    if n == 1:
        return x
    ctx = x.ctx
    if x.is_zero():
        return ctx.zero
    cur = x
    while n % 2 == 0:
        s = scalar_sqrt(cur)
        if s is None:
            return None
        cur = s
        n //= 2
    if n == 1:
        return cur
    if cur == ctx.one:
        return ctx.one
    q = cur.as_fraction()
    if q is not None:
        # n is odd here, so a negative rational has the negated root
        rn, rd = _int_root(abs(q.numerator), n), _int_root(q.denominator, n)
        if rn is not None and rd is not None:
            return ctx.rational(Fraction(rn if q > 0 else -rn, rd))
    return None


def _int_root(a, n):
    """The integer n-th root of a >= 1 if a is an exact n-th power, else
    None.  Integer Newton from a start above the root decreases to the
    floor of the root."""
    x = 1 << -(-a.bit_length() // n)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            return x if x ** n == a else None
        x = y


def _upstairs_weights(down_weights, p):
    """Invert the push-forward weight rule (c - j)/p on a sorted multiset."""
    if p == 1:
        return list(down_weights)
    remaining = sorted(down_weights, reverse=True)
    ups = []
    while remaining:
        top = remaining[0]
        for j in range(p):
            # the family of a push-forward line is spaced by 1/p
            w, _ = normalize_weight(top - Fraction(j, p), 0)
            if w not in remaining:
                raise NotAdmissible(
                    "downstairs weights are not a push-forward family"
                )
            remaining.remove(w)
        c, _ = normalize_weight(top * p, 0)
        ups.append(c)
    return ups


def _recognize_block(g, cp, p, m, label):
    """Canonical block data of a recognized pure-type matrix germ with
    charpoly cp.

    Recovers (p, m, radicand, alpha, upstairs weights) and verifies the
    claim by comparing cp with the charpoly of the realized monomial
    elementary model at the available precision; germs whose irregular part
    has sub-leading structure (a tail) are refused here, not guessed --
    supply them canonically.  The nilpotent part is not reconstructed (the
    preserved equivalence is type and weights).
    """
    ctx = g.ctx
    r = g.lattice.rank
    if r % p:
        raise NotAdmissible("rank not divisible by covering degree")
    k = r // p
    weights_up = _upstairs_weights(list(g.lattice.weights), p)
    if len(weights_up) != k:
        raise NotAdmissible("weight family inconsistent with the covering")
    _, val = label
    if m == 0:
        return ElementaryBlock.make(ctx, 1, 0, alpha=val, weights=tuple(weights_up))
    # cp[1] is minus the trace of theta
    alpha = -cp[1].coeff(0) / ctx.rational(k)
    block = ElementaryBlock.make(
        ctx, p, m, alpha=alpha, weights=tuple(weights_up),
        radicand=val, lead=_scalar_nth_root(val, p),
    )
    # verify the eigen-data against the monomial model; the filtered side is
    # already pinned by the weights and the slope certificate
    _, model_theta = realize_block(ctx, block)
    cp_b = charpoly(model_theta)
    bound = min(c.prec for c in cp)
    bound = min(bound, recommended_precision(p, m, weights_up))
    for cg, cb in zip(cp, cp_b):
        if not cg.agrees_with(cb, prec=bound):
            raise NotAdmissible(
                "eigenvalue data does not match a monomial elementary model "
                "(sub-leading irregular structure); goodness undecided at "
                "this precision -- supply the germ in canonical form"
            )
    return block


@dataclass
class GoodnessResult:
    """Goodness decomposition: elementary blocks grouped by the Galois orbit
    of the irregular part."""

    groups: list  # list of dicts {p, m, orbit, blocks: [ElementaryBlock]}
    good: bool
    failure: str = ""

    def all_blocks(self):
        return [b for grp in self.groups for b in grp["blocks"]]


def goodness_decomposition(germ):
    """Full decomposition into twisted push-forwards of logarithmic data.

    Canonical germs are good by construction and are returned grouped by
    irregularity orbit.  Matrix germs are split (slope, then type) and each
    pure-type part recognized as an elementary model; a part that resists
    recognition at the working precision is reported as a structured
    failure, never silently accepted.
    """
    if germ.is_canonical():
        # grouped by irregularity orbit: the orbit key without alpha
        groups = _grouped(germ.blocks, lambda b: b.orbit_key()[:4])
        return GoodnessResult(groups=[
            {"p": blocks[0].p, "m": blocks[0].m,
             "orbit": _orbit_label_of_block(blocks[0]), "blocks": blocks}
            for _, blocks in groups
        ], good=True)
    parts = []
    for sub, cp, (p, m) in _slope_parts(germ, charpoly(germ.theta)):
        for tsub, tcp, label in _orbit_parts(sub, cp, p, m):
            try:
                block = _recognize_block(tsub, tcp, p, m, label)
            except NotAdmissible as exc:
                return GoodnessResult(
                    groups=[], good=False,
                    failure=f"block of slope {m}/{p} resists the d(a)-shift "
                    f"reduction: {exc}",
                )
            if tsub.rank != block.rank:
                return GoodnessResult(
                    groups=[], good=False,
                    failure=f"slope {m}/{p} part of rank {tsub.rank} does not "
                    f"match an elementary model of rank {block.rank}",
                )
            parts.append({"p": p, "m": m, "orbit": label, "blocks": [block]})
    return GoodnessResult(groups=parts, good=True)


def canonical_germ(germ, where):
    """The germ in canonical (block) form: a canonical germ unchanged, a
    matrix germ through its goodness decomposition.  A matrix germ that is
    not good raises NotAdmissible with the failure, prefixed by `where`."""
    if germ.is_canonical():
        return germ
    res = goodness_decomposition(germ)
    if not res.good:
        raise NotAdmissible(where + res.failure)
    return HiggsGerm.from_blocks(germ.ctx, res.all_blocks(), germ.coord)


# ----------------------------------------------------------------------
# admissibility and endomorphism germs
# ----------------------------------------------------------------------


def admissibility_check(germ, bound=None, strict=False):
    """True iff the slope decomposition succeeds and every slope respects
    the bound (m/p <= bound, strict: <)."""
    try:
        dec = slope_decomposition(germ)
    except NotAdmissible:
        return False
    if bound is None:
        return True
    bound = Fraction(bound)
    for _, (p, m) in dec:
        s = Fraction(m, p)
        if s > bound or (strict and s == bound):
            return False
    return True


def endo_germ_wrap(lattice, gmat):
    """Higgs germ of a filtered bundle with endomorphism at infinity.

    The wrapped field is theta = -tau^{-2} g dtau, i.e. A = -g/tau relative
    to dtau/tau; boundedness of g forces every slope weakly below 1.
    """
    mv = gmat.min_valuation()
    if mv is not None and mv < 0:
        raise InputError("endomorphism must be regular (nonnegative valuation)")
    theta = gmat.shift(-1).scale(gmat.ctx.rational(-1))
    return HiggsGerm.from_matrix(lattice, theta, coord="infinity")

