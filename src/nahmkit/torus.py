"""Exact points of the two tori and the linear-algebra model of semistable
degree-0 bundles.

Points are stored in lattice units: (q1, q2) means q1 + q2*tau on the T side
and (pi/tau_2)(q1 + q2*tau) on the dual side, plus a formal Q-linear
combination of declared transcendental position symbols and an exact
constant channel.  Nothing is ever evaluated numerically; mod-lattice
equality is decided on the representation.

The endomorphism model: a pair (V, f) presents a semistable degree-0 bundle
on the torus; its spectrum is the set of eigenvalue classes of f modulo the
dual lattice, and the spectral decomposition refines (V, f) by those
classes.  Eigenvalue extraction is exact and raises FieldExtensionRequired
when the spectrum does not live in the session field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from . import linalg

#: default names of the dual-lattice generator symbols in a session field
DUAL_GENS = ("nu1", "nu2")


class TorusPoint:
    """Point of T or of the dual torus, exact, possibly a chosen lift.

    Equality and hashing are modulo the lattice; use lift_key() when the
    particular lift matters.
    """

    __slots__ = ("lattice", "q1", "q2", "sym", "const", "is_lift")

    def __init__(self, lattice, q1=0, q2=0, sym=(), const=None, is_lift=False):
        if lattice not in ("T", "T_dual"):
            raise InputError("lattice tag must be 'T' or 'T_dual'")
        self.lattice = lattice
        self.q1 = Fraction(q1)
        self.q2 = Fraction(q2)
        if isinstance(sym, dict):
            sym = tuple(sorted((k, Fraction(v)) for k, v in sym.items() if v))
        else:
            sym = tuple(sorted((k, Fraction(v)) for k, v in sym if v))
        self.sym = sym
        self.const = None if (const is not None and const.is_zero()) else const
        self.is_lift = is_lift

    # -- arithmetic --

    def _check(self, other):
        if self.lattice != other.lattice:
            raise InputError("torus arithmetic across different lattices")

    def __add__(self, other):
        self._check(other)
        sym = dict(self.sym)
        for k, v in other.sym:
            sym[k] = sym.get(k, Fraction(0)) + v
        const = self.const
        if other.const is not None:
            const = other.const if const is None else const + other.const
        return TorusPoint(
            self.lattice, self.q1 + other.q1, self.q2 + other.q2, sym, const,
            is_lift=self.is_lift and other.is_lift,
        )

    def __neg__(self):
        return TorusPoint(
            self.lattice, -self.q1, -self.q2,
            {k: -v for k, v in self.sym},
            None if self.const is None else -self.const,
            is_lift=self.is_lift,
        )

    def __sub__(self, other):
        return self + (-other)

    def translate_lattice(self, n1, n2):
        return TorusPoint(
            self.lattice, self.q1 + n1, self.q2 + n2, self.sym, self.const,
            is_lift=self.is_lift,
        )

    # -- reduction and identity --

    def reduce(self):
        return TorusPoint(
            self.lattice, self.q1 - self.q1.__floor__(), self.q2 - self.q2.__floor__(),
            self.sym, self.const, is_lift=False,
        )

    def is_zero_class(self):
        return (
            self.q1.denominator == 1
            and self.q2.denominator == 1
            and not self.sym
            and self.const is None
        )

    def class_key(self):
        ck = None if self.const is None else self.const.sort_key()
        return (
            self.lattice,
            self.q1 - self.q1.__floor__(),
            self.q2 - self.q2.__floor__(),
            self.sym,
            ck,
        )

    def lift_key(self):
        ck = None if self.const is None else self.const.sort_key()
        return (self.lattice, self.q1, self.q2, self.sym, ck)

    def __eq__(self, other):
        if not isinstance(other, TorusPoint):
            return NotImplemented
        return self.class_key() == other.class_key()

    def __hash__(self):
        return hash(self.class_key())

    def __repr__(self):
        parts = []
        if self.q1 or self.q2:
            parts.append(f"({self.q1}, {self.q2})")
        for k, v in self.sym:
            parts.append(k if v == 1 else f"{v}*{k}")
        if self.const is not None:
            parts.append(str(self.const))
        body = " + ".join(parts) if parts else "0"
        tag = "T*" if self.lattice == "T_dual" else "T"
        return f"<{body} in {tag}>"


def torus_reduce(x):
    """Canonical representative with coordinates in [0, 1)."""
    return x.reduce()


# -- Scalar <-> point conversions (dual side) --


def scalar_to_point(ctx, s, gens=DUAL_GENS):
    """Parse a scalar as a point of the dual torus, a chosen lift.

    The rational-linear part in the declared generator symbols becomes the
    lattice coordinates, rational-linear parts in other symbols become the
    symbolic position, and everything else goes to the exact constant
    channel (where only exact equality can ever cancel it).
    """
    q = {gens[0]: Fraction(0), gens[1]: Fraction(0)}
    sym = {}
    rest = s
    # a constant canonical denominator is the shared ctx.unit; otherwise no
    # coefficient is rational and everything is the constant channel
    if s.den == ctx.unit:
        for i, name in enumerate(ctx.symbols):
            c = s.num.get(tuple(int(j == i) for j in range(ctx.nvars)))
            # c = (c_0, ..., c_{deg-1}, d) in the power basis: rational when
            # every zeta coordinate is 0
            if c is None or any(c[1:-1]):
                continue
            c = Fraction(c[0], c[-1])
            if name in gens:
                q[name] = c
            else:
                sym[name] = c
            rest = rest - ctx.rational(c) * ctx.sym(name)
    const = None if rest.is_zero() else rest
    return TorusPoint("T_dual", q[gens[0]], q[gens[1]], sym, const, is_lift=True)


def lattice_vector(ctx, n1, n2):
    """n1*nu1 + n2*nu2 as a scalar (an exact dual-lattice element)."""
    return ctx.rational(n1) * ctx.sym(DUAL_GENS[0]) + ctx.rational(n2) * ctx.sym(DUAL_GENS[1])


# ----------------------------------------------------------------------
# (V, f) pairs and the spectral decomposition
# ----------------------------------------------------------------------


@dataclass
class EndoPair:
    """Vector space with endomorphism, presenting a semistable degree-0
    bundle on the torus."""

    ctx: object
    matrix: list  # square Scalar matrix
    label: str = ""

    @property
    def dim(self):
        return len(self.matrix)

    def shift(self, scalar):
        """(V, f + scalar id)."""
        n = self.dim
        return EndoPair(
            self.ctx,
            [
                [self.matrix[i][j] + (scalar if i == j else self.ctx.zero) for j in range(n)]
                for i in range(n)
            ],
            label=self.label,
        )


def g_equiv(vf, gens=DUAL_GENS, extra_candidates=()):
    """Spectral decomposition of (V, f) by eigenvalue classes mod the dual
    lattice.

    Returns (spectrum, blocks): reduced dual-torus points and, parallel to
    them, the EndoPair blocks (f restricted to the generalized eigenspaces
    of each class).  A class's basis is the concatenation, in spectrum
    order, of the kernel bases of (f - lambda)^m over its eigenvalues
    lambda of multiplicity m.  f maps each of those kernels into itself, so
    the block is block-diagonal, one _restrict per eigenvalue.  The kernels
    span V, as ker (f - lambda)^m has dimension m and the multiplicities
    sum to dim V.  The inverse direction is the identity on this data.
    """
    ctx = vf.ctx
    if vf.dim == 0:
        return [], []
    eigs = linalg.eigenvalues_in_field(vf.matrix, candidates=extra_candidates)
    groups = {}
    for val, mult in eigs:
        pt = scalar_to_point(ctx, val, gens=gens).reduce()
        groups.setdefault(pt.class_key(), (pt, []))[1].append((val, mult))
    spectrum = []
    blocks = []
    for pt, vals in groups.values():
        parts = [
            _restrict(ctx, vf.matrix, linalg.generalized_eigenspace(vf.matrix, val, mult))
            for val, mult in vals
        ]
        spectrum.append(pt)
        blocks.append(EndoPair(ctx, _block_diagonal(ctx, parts), label=vf.label))
    return spectrum, blocks


def _restrict(ctx, mat, basis):
    """Matrix of mat on the span of basis, in that basis, where basis is a
    kernel basis (linalg.kernel) of a polynomial in mat.

    mat commutes with that polynomial, so it maps the kernel into itself:
    mat v_k = sum_j B[j][k] v_j.  Vector v_j is 1 at its free column c_j and
    every other basis vector is 0 there, so reading that equation at c_j
    gives B[j][k] = (mat v_k)[c_j], and only the rows c_j of mat are needed.
    """
    free = [max(i for i, x in enumerate(v) if not x.is_zero()) for v in basis]
    return [[sum((x * y for x, y in zip(mat[c], v)), ctx.zero) for v in basis] for c in free]


def _block_diagonal(ctx, parts):
    n = sum(len(p) for p in parts)
    out = []
    for p in parts:
        left = len(out)
        for row in p:
            out.append([ctx.zero] * left + row + [ctx.zero] * (n - left - len(row)))
    return out
