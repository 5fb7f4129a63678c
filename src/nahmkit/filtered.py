"""Filtered bundles on a disc germ and their calculus.

A FilteredLattice presents one lattice P_a E of a filtered bundle germ in
a compatible (splitting) frame, where P_a is fixed by the level and the
weights alone: P_a = sum_i z^{ceil(c_i - a)} O e_i.  A lattice is its rank,
the presented level a and the parabolic weights (normalized into the window
(a-1, a], one per frame vector), with the Galois characters of a pull-back
and the provenance of a push-forward where descent needs them.

The operations are the standard ones: grading and parabolic filtration,
dual, tensor, pull-back along the degree-p cyclic covering, push-forward,
Galois descent, and the local parabolic-degree contribution delta.  Every
compatible frame has one order, frame_order: weights descending, ties by
index.  A matrix is a filtered morphism by one certified bound,
lattice_morphism_ok.  The compatible frames the operations produce are:

    pull-back:    w_i = u^{-n_i} phi^* v_i,  n_i = max{n : n + p c_i <= p a}
    push-forward: w~_{ij} = image of u^j v_i, weight (c_i - j)/p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .errors import InputError, PrecisionExhausted


def normalize_weight(x, level):
    """Shift x by the integer putting it into (level-1, level]; (weight, shift).
    The weight is a Fraction."""
    if type(x) is not Fraction:
        x = Fraction(x)
    if level - 1 < x <= level:
        return x, 0
    k = ceil(x - level)
    return x - k, k


def frame_order(weights):
    """The compatible frame's order of the given weights: their indices by
    weight descending, ties by index."""
    return sorted(range(len(weights)), key=lambda i: (-weights[i], i))


@dataclass(frozen=True)
class PushforwardTag:
    """Provenance of a push-forward lattice, needed for descent."""

    p: int
    chars: tuple  # Galois character of each upstairs frame vector, mod p
    upstairs_weights: tuple
    upstairs_level: Fraction


class FilteredLattice:
    """One presented lattice of a filtered bundle germ on a disc."""

    __slots__ = ("ctx", "rank", "level", "weights", "chars", "push_tag")

    def __init__(self, ctx, weights, level=0, chars=None, push_tag=None):
        level = Fraction(level)
        weights = [normalize_weight(w, level)[0] for w in weights]
        order = frame_order(weights)
        self.ctx = ctx
        self.rank = len(weights)
        self.level = level
        self.weights = tuple(weights[i] for i in order)
        self.chars = tuple(chars[i] for i in order) if chars is not None else None
        self.push_tag = push_tag

    # -- basic views --

    def relevel(self, new_level):
        """Pure renormalization to another presented level."""
        return FilteredLattice(
            self.ctx, self.weights, level=new_level, chars=self.chars,
            push_tag=self.push_tag,
        )

    def __eq__(self, other):
        if not isinstance(other, FilteredLattice):
            return NotImplemented
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
    identity on the nose.  Pass an explicit level to renormalize.  Both
    lattices are presented by level and weights in the compatible frame: the
    dual's is the dual basis, rescaled by the normalizing shifts.
    """
    if level is None:
        level = -min(lattice.weights)
    return FilteredLattice(lattice.ctx, [-w for w in lattice.weights], level=level)


def tensor_filtered(l1, l2, level=None):
    if l1.ctx is not l2.ctx:
        raise InputError("tensor across sessions")
    if level is None:
        level = l1.level + l2.level
    weights = [a + b for a in l1.weights for b in l2.weights]
    return FilteredLattice(l1.ctx, weights, level=level)


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
    for c in lattice.weights:
        n = floor(p * a - p * c)  # max{n : n + p c <= p a}
        new_weights.append(n + p * c)
        chars.append((-n) % p)
    return FilteredLattice(lattice.ctx, new_weights, level=p * a, chars=tuple(chars))


def pushforward_covering(lattice, p):
    """Push forward along u -> u^p; rank multiplies by p.

    Downstairs frame vectors are the images of u^j v_i (0 <= j < p) with
    parabolic degree (c_i - j)/p.
    """
    if p < 1:
        raise InputError("covering degree must be >= 1")
    if p == 1:
        return lattice
    weights = [Fraction(c - j, p) for c in lattice.weights for j in range(p)]
    tag = PushforwardTag(
        p=p,
        chars=lattice.chars,
        upstairs_weights=lattice.weights,
        upstairs_level=lattice.level,
    )
    return FilteredLattice(
        lattice.ctx, weights, level=Fraction(lattice.level, p), push_tag=tag
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
# lattice comparison
# ----------------------------------------------------------------------


def lattice_morphism_ok(g, src_weights, dst_weights):
    """Does the matrix g define a filtered morphism (dst <- src)?

    Column j maps the source frame vector of weight src_weights[j].  The map
    sends every P_a(src) into P_a(dst) exactly when each nonzero entry
    (i, j) has valuation >= ceil(dst_weights[i] - src_weights[j]).  An entry
    that is zero only to a precision at or below its bound is undecided, and
    raises PrecisionExhausted whatever the other entries say.
    """
    ok = True
    for i, row in enumerate(g.entries):
        for j, e in enumerate(row):
            bound = ceil(dst_weights[i] - src_weights[j])
            if e.coeffs:
                if e.val < bound:
                    ok = False
            elif e.prec <= bound:
                raise PrecisionExhausted(
                    "cannot certify lattice preservation at this precision"
                )
    return ok


def frames_equivalent(l1, l2):
    """Do the two presented lattices agree?  In the compatible frame a
    lattice is fixed by its level and weights."""
    return (l1.level, l1.weights) == (l2.level, l2.weights)
