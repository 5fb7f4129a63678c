"""Local algebraic Nahm transforms of Higgs-germ singularity data.

At a singular point the two-term complex

    C0 = P_{-1/2-m/p} (irregular parts)  +  P_{-1/2} (tame, nonzero residue)
                                         +  P_0     (tame, nilpotent residue)
    C1 = P_{1/2} (x) Omega   for the first two,
         P_{<1} (x) Omega + theta P_0    for the nilpotent tame part

computes the transform fiberwise; its index is pure lattice bookkeeping
(generator-exponent drops), which is what the global rank formula consumes.

The germ-level transforms exchange elementary blocks:

    N^{0,inf}:  (p, m)  ->  (p+m, m)      slope m/p -> m/(p+m) < 1
    N^{inf,0}:  (P, M)  ->  (P-M, M)      inverse off the exceptional part

with the weight map c -> c + m/2 (normalized, base degrees compensating so
the parabolic degree is preserved exactly) and the leading-datum rule

    radicand -> (p+m)^(p+m) / (m^m p^p) * radicand

(derived by inverting the spectral correspondence; the residue, nilpotent
part, twists and irregular tail ride along verbatim).  Both directions are
one block rule, given the target covering degree, the weight shift (+m/2
or -M/2) and the radicand factor (kappa or its inverse).  The tame
nilpotent part (1,0,0) is not transformed here: the global layer owns its
injection rule, and the local operator refuses it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil

from .errors import InputError, NotAdmissible
from .filtered import frame_order
from .higgs import ElementaryBlock, HiggsGerm, _scalar_nth_root, canonical_germ

#: the single place the C0/C1 level offsets live
LEVEL_HALF = Fraction(1, 2)


def c0_level(block):
    if block.is_exceptional():
        return Fraction(0)
    if block.is_tame():
        return -LEVEL_HALF
    return -LEVEL_HALF - block.slope


def _gen_exponent(weight, level):
    """Exponent n of the generator z^n e of P_level on a weight-`weight`
    line: the smallest n with weight - n <= level."""
    return ceil(weight - level)


def _gen_exponent_strict(weight, level):
    """Generator exponent for P_{<level}: smallest n with weight - n < level."""
    n = ceil(weight - level)
    if weight - n == level:
        n += 1
    return n


@dataclass(frozen=True)
class ComplexBlock:
    """Lattice data of the local complex on one elementary block.

    The lattices are monomial: line i (weight down_weights[i]) is generated
    by z^(exponent) times the frame vector.  C1 carries the implicit
    one-form twist.
    """

    block: ElementaryBlock
    down_weights: tuple  # downstairs weights, sorted descending
    c0_exponents: tuple  # generator exponent per line
    c1_exponents: tuple

    @property
    def index(self):
        """deg C1 - deg C0 (each unit exponent drop adds one to degree)."""
        return sum(self.c0_exponents) - sum(self.c1_exponents)


@dataclass(frozen=True)
class LocalComplexLattices:
    """The complex C0 -> C1 at one singular point, blockwise."""

    germ: HiggsGerm
    parts: tuple  # ComplexBlocks

    @property
    def index(self):
        return sum(p.index for p in self.parts)


def build_local_complex(germ):
    """Assemble C0/C1 blockwise at the displayed levels.

    Canonical germs are used directly; matrix germs are first decomposed
    (their goodness structure is the certificate).
    """
    germ = canonical_germ(germ, "")
    parts = []
    for b in germ.blocks:
        down = b.downstairs_weights()
        # the realized frame
        order = frame_order(down)
        dw = [down[i] for i in order]
        l0 = c0_level(b)
        c0 = tuple(_gen_exponent(w, l0) for w in dw)
        if b.is_exceptional():
            # C1 = P_{<1} (x) Omega + theta P_0, a lattice join
            c1 = list(_gen_exponent_strict(w, Fraction(1)) for w in dw)
            if b.nilp:
                # C0 = P_0 here, so c0 holds the P_0 generator exponents
                k = b.k
                for t in range(k):
                    for s in range(k):
                        if not b.nilp[order[s]][order[t]].is_zero():
                            # theta maps line t into line s with a dz/z pole
                            c1[s] = min(c1[s], c0[t] - 1)
            c1 = tuple(c1)
        else:
            # C1 = P_{1/2} (x) Omega on the non-exceptional parts
            c1 = tuple(_gen_exponent(w, LEVEL_HALF) for w in dw)
        parts.append(
            ComplexBlock(block=b, down_weights=tuple(dw), c0_exponents=c0, c1_exponents=c1)
        )
    return LocalComplexLattices(germ=germ, parts=tuple(parts))


# ----------------------------------------------------------------------
# the block-level transforms
# ----------------------------------------------------------------------


def kappa(p, m):
    """Leading-datum multiplier of the forward transform."""
    return Fraction((p + m) ** (p + m), (m ** m) * (p ** p))


def transform_block_0_inf(block):
    """N^{0,inf} on one elementary block."""
    if block.is_exceptional():
        raise NotAdmissible(
            "the tame nilpotent part has no local transform; it is handled "
            "by the global injection rule"
        )
    p, m = block.p, block.m
    return _transform_block(block, p + m, Fraction(m, 2), kappa(p, m))


def transform_block_inf_0(block):
    """N^{inf,0} on one elementary block (slope strictly below 1)."""
    if block.is_exceptional():
        raise NotAdmissible(
            "nonzero tame nilpotent part: N^{inf,0} is undefined there"
        )
    P, M = block.p, block.m
    if P <= M:
        raise InputError(
            f"slope {M}/{P} is not strictly smaller than 1; not in the image "
            "of the forward transform"
        )
    return _transform_block(block, P - M, -Fraction(M, 2), 1 / kappa(P - M, M))


def _transform_block(block, p, shift, factor):
    """The block rule of both directions: an irregular block becomes one of
    covering degree p, its weights shifted by `shift` (`make` normalizes
    them into (-1, 0], the base degrees compensating) and its radicand
    multiplied by `factor`; a tame block is carried as a fresh (1, 0) block
    of its residue data."""
    ctx = block.alpha.ctx
    if block.m == 0:
        return ElementaryBlock.make(
            ctx, 1, 0, alpha=block.alpha, weights=block.weights,
            degrees=block.degrees, nilp=block.nilp, twists=block.twists,
        )
    rad = block.radicand * ctx.rational(factor)
    out = ElementaryBlock.make(
        ctx, p, block.m, alpha=block.alpha,
        weights=tuple(c + shift for c in block.weights), degrees=block.degrees,
        radicand=rad, lead=_scalar_nth_root(rad, p), tail=block.tail,
        twists=block.twists,
    )
    # the nilpotent part rides along past make's filtration check: where
    # one line's weight wraps and another's does not, the new frame puts a
    # power of z on the entry, which a canonical block cannot record
    return replace(out, nilp=block.nilp)


def local_nahm_0_inf(germ):
    """Forward local transform of an admissible germ at a finite point.

    Output is a canonical germ at infinity whose slopes are strictly
    smaller than 1; rank and filtered data are computed blockwise.
    """
    germ = canonical_germ(germ, "")
    if germ.coord != "finite":
        raise InputError("forward transform expects a germ at a finite point")
    blocks = tuple(transform_block_0_inf(b) for b in germ.blocks)
    return HiggsGerm.from_blocks(germ.ctx, blocks, coord="infinity")


def local_nahm_inf_0(germ):
    """Backward local transform; the tame nilpotent part must vanish."""
    germ = canonical_germ(germ, "")
    if germ.coord != "infinity":
        raise InputError("backward transform expects a germ at infinity")
    if any(b.is_exceptional() for b in germ.blocks):
        raise InputError(
            "germ has a nonzero tame nilpotent part; the backward transform "
            "requires it to vanish"
        )
    blocks = tuple(transform_block_inf_0(b) for b in germ.blocks)
    return HiggsGerm.from_blocks(germ.ctx, blocks, coord="finite")
