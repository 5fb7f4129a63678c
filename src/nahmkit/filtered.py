"""Filtered bundles on a disc germ and their calculus.

A FilteredLattice presents one lattice P_a E of a filtered bundle germ: the
rank, the presented level a, the parabolic weights (normalized into the
window (a-1, a], one per frame vector), and the frame expressing the chosen
compatible basis in a reference trivialization of the meromorphic germ.

The operations are the standard ones: grading and parabolic filtration,
dual, tensor, pull-back along the degree-p cyclic covering, push-forward,
Galois descent, and the local parabolic-degree contribution delta.  Frame
rules follow the compatible-frame conventions:

    pull-back:    w_i = u^{-n_i} phi^* v_i,  n_i = max{n : n + p c_i <= p a}
    push-forward: w~_{ij} = image of u^j v_i, weight (c_i - j)/p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .errors import InputError
from .lmatrix import LaurentMatrix, invert_matrix
from .series import TruncatedLaurent


def normalize_weight(x, level):
    """Shift x by the integer putting it into (level-1, level]; (weight, shift)."""
    x = Fraction(x)
    level = Fraction(level)
    k = ceil(x - level)
    return x - k, k


@dataclass(frozen=True)
class PushforwardTag:
    """Provenance of a push-forward lattice, needed for descent."""

    p: int
    chars: tuple  # Galois character of each upstairs frame vector, mod p
    upstairs_weights: tuple
    upstairs_level: Fraction


class FilteredLattice:
    """One presented lattice of a filtered bundle germ on a disc."""

    __slots__ = ("ctx", "rank", "level", "weights", "frame", "chars", "push_tag")

    def __init__(self, ctx, weights, level=0, frame=None, chars=None, push_tag=None):
        level = Fraction(level)
        pairs = []
        for i, w in enumerate(weights):
            w, shift = normalize_weight(w, level)
            pairs.append((w, i, shift))
        # canonical order: weights descending, ties by original index
        order = sorted(range(len(pairs)), key=lambda t: (-pairs[t][0], pairs[t][1]))
        self.ctx = ctx
        self.rank = len(pairs)
        self.level = level
        self.weights = tuple(pairs[i][0] for i in order)
        if frame is not None:
            cols = []
            for i in order:
                w, orig, shift = pairs[i]
                col = [frame.entries[r][orig].shift(shift) for r in range(frame.rows)]
                cols.append(col)
            frame = LaurentMatrix(ctx, [list(row) for row in zip(*cols)])
        self.frame = frame
        self.chars = tuple(chars[pairs[i][1]] for i in order) if chars is not None else None
        self.push_tag = push_tag

    # -- basic views --

    def frame_matrix(self):
        return self.frame if self.frame is not None else LaurentMatrix.identity(self.ctx, self.rank)

    def relevel(self, new_level):
        """Pure renormalization to another presented level."""
        return FilteredLattice(
            self.ctx, self.weights, level=new_level, frame=self.frame, chars=self.chars,
            push_tag=self.push_tag,
        )

    def __eq__(self, other):
        if not isinstance(other, FilteredLattice):
            return NotImplemented
        if (self.level, self.weights) != (other.level, other.weights):
            return False
        if self.frame is None and other.frame is None:
            return True
        return frames_equivalent(self, other)

    def __repr__(self):
        ws = ", ".join(str(w) for w in self.weights)
        return f"FilteredLattice(level={self.level}, weights=({ws}))"


# ----------------------------------------------------------------------
# grading and degree
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Grading:
    par: tuple  # jump set, decreasing
    gr_dims: tuple  # dim Gr_b parallel to par
    filtration: tuple  # (b, dim F_b) increasing in b


def grading(lattice):
    """Jump set Par, graded dimensions, and the parabolic filtration of the
    fiber of the presented lattice."""
    dims = {}
    for w in lattice.weights:
        dims[w] = dims.get(w, 0) + 1
    par = tuple(sorted(dims, reverse=True))
    gr = tuple(dims[b] for b in par)
    filt = []
    total = 0
    for b in sorted(dims):
        total += dims[b]
        filt.append((b, total))
    assert total == lattice.rank
    return Grading(par=par, gr_dims=gr, filtration=tuple(filt))


def degree_contribution(lattice, a=None):
    """delta(P_* E, a) = sum of b * dim Gr_b over the jumps of P_a."""
    if a is not None and Fraction(a) != lattice.level:
        lattice = lattice.relevel(a)
    return sum(lattice.weights, Fraction(0))


def jump_count(weights, lo, hi, include_lo=False, include_hi=True):
    """Number of filtration jumps of the weight multiset in the interval."""
    total = 0
    for c in weights:
        c = Fraction(c)
        # integers n with lo (<|<=) c + n (<|<=) hi
        x, y = lo - c, hi - c
        hi_count = floor(y) if include_hi else ceil(y) - 1
        lo_count = ceil(x) - 1 if include_lo else floor(x)
        # hi_count - lo_count counts integers in the chosen interval
        total += hi_count - lo_count
    return total


# ----------------------------------------------------------------------
# dual and tensor
# ----------------------------------------------------------------------


def dual_filtered(lattice, level=None):
    """Dual filtered germ.

    Weight multiset is negated; by default the dual is presented at the
    reflected level (the one whose window holds every negated weight), so
    that the degree contribution negates exactly and the double dual is the
    identity on the nose.  Pass an explicit level to renormalize.  The
    frame becomes the dual basis (inverse transpose), rescaled by the
    normalizing shifts.
    """
    if level is None:
        level = -min(lattice.weights)
    frame = None
    if lattice.frame is not None:
        frame = invert_matrix(lattice.frame).transpose()
    return FilteredLattice(
        lattice.ctx, [-w for w in lattice.weights], level=level, frame=frame
    )


def tensor_filtered(l1, l2, level=None):
    if l1.ctx is not l2.ctx:
        raise InputError("tensor across sessions")
    if level is None:
        level = l1.level + l2.level
    weights = [a + b for a in l1.weights for b in l2.weights]
    frame = None
    if l1.frame is not None or l2.frame is not None:
        f1 = l1.frame_matrix()
        f2 = l2.frame_matrix()
        rows = []
        for i1 in range(l1.rank):
            for i2 in range(l2.rank):
                row = []
                for j1 in range(l1.rank):
                    for j2 in range(l2.rank):
                        row.append(f1.entries[i1][j1] * f2.entries[i2][j2])
                rows.append(row)
        frame = LaurentMatrix(l1.ctx, rows)
    return FilteredLattice(l1.ctx, weights, level=level, frame=frame)


# ----------------------------------------------------------------------
# coverings: pull-back, push-forward, descent
# ----------------------------------------------------------------------


def pullback_covering(lattice, p):
    """Pull back along u -> u^p = z; compatible frame w_i = u^{-n_i} phi^* v_i."""
    if p < 1:
        raise InputError("covering degree must be >= 1")
    if p == 1:
        return lattice
    a = lattice.level
    new_weights = []
    chars = []
    shifts = []
    for c in lattice.weights:
        n = floor(p * a - p * c)  # max{n : n + p c <= p a}
        new_weights.append(n + p * c)
        chars.append((-n) % p)
        shifts.append(n)
    frame = None
    if lattice.frame is not None:
        cols = []
        for j in range(lattice.rank):
            col = [
                lattice.frame.entries[i][j].substitute_power(p).shift(-shifts[j])
                for i in range(lattice.rank)
            ]
            cols.append(col)
        frame = LaurentMatrix(lattice.ctx, [list(r) for r in zip(*cols)])
    return FilteredLattice(
        lattice.ctx, new_weights, level=p * a, frame=frame, chars=tuple(chars)
    )


def pushforward_covering(lattice, p):
    """Push forward along u -> u^p; rank multiplies by p.

    Downstairs frame vectors are the images of u^j v_i (0 <= j < p) with
    parabolic degree (c_i - j)/p.  The downstairs reference trivialization
    is e_{t,s} = image of u^s e_t, ordered t-major.
    """
    if p < 1:
        raise InputError("covering degree must be >= 1")
    if p == 1:
        return lattice
    ctx = lattice.ctx
    r = lattice.rank
    weights = []
    for i in range(r):
        for j in range(p):
            weights.append(Fraction(lattice.weights[i] - j, p))
    frame = None
    if lattice.frame is not None:
        rows = r * p
        data = [[TruncatedLaurent.zero(ctx) for _ in range(rows)] for _ in range(rows)]
        for i in range(r):
            for j in range(p):
                col = i * p + j
                for t in range(r):
                    e = lattice.frame.entries[t][i]
                    for d_idx, coeff in enumerate(e.coeffs):
                        if coeff.is_zero():
                            continue
                        d = e.val + d_idx + j
                        s = d % p
                        zexp = d // p
                        row = t * p + s
                        data[row][col] = data[row][col] + TruncatedLaurent.monomial(
                            ctx, coeff, zexp
                        )
        frame = LaurentMatrix(ctx, data)
    tag = PushforwardTag(
        p=p,
        chars=lattice.chars if lattice.chars is not None else None,
        upstairs_weights=lattice.weights,
        upstairs_level=lattice.level,
    )
    return FilteredLattice(
        ctx, weights, level=Fraction(lattice.level, p), frame=frame, push_tag=tag
    )


def descent(lattice, p):
    """Galois-invariant part of an equivariant push-forward.

    The input must be a push-forward carrying equivariance characters; the
    invariant frame vectors are the u^j v_i with j + char_i = 0 mod p.
    """
    if p == 1:
        return lattice
    tag = lattice.push_tag
    if tag is None or tag.p != p or tag.chars is None:
        raise InputError("descent requires an equivariant push-forward lattice")
    if len(tag.chars) * p != lattice.rank:
        raise InputError("inconsistent equivariance data")
    weights = []
    for c_up, ch in zip(tag.upstairs_weights, tag.chars):
        j = (-ch) % p
        weights.append(Fraction(c_up - j, p))
    return FilteredLattice(lattice.ctx, weights, level=Fraction(tag.upstairs_level, p))


# ----------------------------------------------------------------------
# frame comparison
# ----------------------------------------------------------------------


def lattice_morphism_ok(g, src_weights, dst_weights):
    """Does the matrix g define a filtered morphism (dst <- src)?

    Column j maps the weight-c_j source vector; entry (i, j) must have
    valuation >= c_i(dst)... precisely val >= ceil(w_i(dst) - w_j(src))
    is required for preserving every level simultaneously.
    """
    for i in range(len(dst_weights)):
        for j in range(len(src_weights)):
            e = g.entries[i][j]
            if not e.coeffs:
                continue
            if e.val < ceil(dst_weights[i] - src_weights[j]):
                return False
    return True


def frames_equivalent(l1, l2):
    """Do the two presented lattices agree inside the meromorphic germ?"""
    if l1.weights != l2.weights or l1.level != l2.level:
        return False
    g = invert_matrix(l2.frame_matrix()) * l1.frame_matrix()
    if not lattice_morphism_ok(g, l1.weights, l2.weights):
        return False
    ginv = invert_matrix(g)
    return lattice_morphism_ok(ginv, l2.weights, l1.weights)
