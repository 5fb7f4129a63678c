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
part, twists and irregular tail ride along verbatim).  The tame nilpotent
part (1,0,0) is not transformed here: the global layer owns its injection
rule, and the local operator refuses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .errors import InputError, NotAdmissible
from .higgs import ElementaryBlock, HiggsGerm, goodness_decomposition
from .filtered import normalize_weight

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
    if not germ.is_canonical():
        gr = goodness_decomposition(germ)
        if not gr.good:
            raise NotAdmissible(gr.failure)
        germ = HiggsGerm.from_blocks(germ.ctx, gr.all_blocks(), germ.coord)
    parts = []
    for b in germ.blocks:
        down = b.downstairs_weights()
        # the realized frame: weights descending, ties in block order
        order = sorted(range(len(down)), key=lambda i: -down[i])
        dw = [down[i] for i in order]
        l0 = c0_level(b)
        c0 = tuple(_gen_exponent(w, l0) for w in dw)
        if b.is_exceptional():
            # C1 = P_{<1} (x) Omega + theta P_0, a lattice join
            c1 = list(_gen_exponent_strict(w, Fraction(1)) for w in dw)
            if b.nilp:
                k = b.k
                n0 = [_gen_exponent(w, Fraction(0)) for w in dw]
                for t in range(k):
                    for s in range(k):
                        if not b.nilp[order[s]][order[t]].is_zero():
                            # theta maps line t into line s with a dz/z pole
                            c1[s] = min(c1[s], n0[t] - 1)
            c1 = tuple(c1)
        else:
            # C1 = P_{1/2} (x) Omega on the non-exceptional parts
            c1 = tuple(_gen_exponent(w, LEVEL_HALF) for w in dw)
        parts.append(
            ComplexBlock(block=b, down_weights=tuple(dw), c0_exponents=c0, c1_exponents=c1)
        )
    return LocalComplexLattices(germ=germ, parts=tuple(parts))


def block_index(block):
    """Bookkeeping index of one block: the local transform's rank."""
    ctx = block.alpha.ctx
    germ = HiggsGerm.from_blocks(ctx, [block])
    return build_local_complex(germ).parts[0].index


# ----------------------------------------------------------------------
# the block-level transforms
# ----------------------------------------------------------------------


def kappa(p, m):
    """Leading-datum multiplier of the forward transform."""
    return Fraction((p + m) ** (p + m), (m ** m) * (p ** p))


def _shift_weights(weights, degrees, shift):
    ws, ds = [], []
    for c, d in zip(weights, degrees):
        w, k = normalize_weight(c + shift, 0)
        ws.append(w)
        ds.append(d - k)
    return tuple(ws), tuple(ds)


def transform_block_0_inf(block):
    """N^{0,inf} on one elementary block."""
    ctx = block.alpha.ctx
    if block.is_exceptional():
        raise NotAdmissible(
            "the tame nilpotent part has no local transform; it is handled "
            "by the global injection rule"
        )
    if block.m == 0:
        return ElementaryBlock.make(
            ctx, 1, 0, alpha=block.alpha, weights=block.weights,
            degrees=block.degrees, nilp=block.nilp, twists=block.twists,
        )
    p, m = block.p, block.m
    half = Fraction(m, 2)
    ws, ds = _shift_weights(block.weights, block.degrees, half)
    rad = block.radicand * ctx.rational(kappa(p, m))
    from .higgs import _scalar_nth_root

    lead = _scalar_nth_root(rad, p + m)
    return ElementaryBlock.make(
        ctx, p + m, m, alpha=block.alpha, weights=ws, degrees=ds,
        radicand=rad, lead=lead, tail=block.tail, nilp=block.nilp,
        twists=block.twists,
    )


def transform_block_inf_0(block):
    """N^{inf,0} on one elementary block (slope strictly below 1)."""
    ctx = block.alpha.ctx
    if block.is_exceptional():
        raise NotAdmissible(
            "nonzero tame nilpotent part: N^{inf,0} is undefined there"
        )
    if block.m == 0:
        return ElementaryBlock.make(
            ctx, 1, 0, alpha=block.alpha, weights=block.weights,
            degrees=block.degrees, nilp=block.nilp, twists=block.twists,
        )
    P, M = block.p, block.m
    if P <= M:
        raise InputError(
            f"slope {M}/{P} is not strictly smaller than 1; not in the image "
            "of the forward transform"
        )
    p = P - M
    half = Fraction(M, 2)
    ws, ds = _shift_weights(block.weights, block.degrees, -half)
    rad = block.radicand / ctx.rational(kappa(p, M))
    from .higgs import _scalar_nth_root

    lead = _scalar_nth_root(rad, p)
    return ElementaryBlock.make(
        ctx, p, M, alpha=block.alpha, weights=ws, degrees=ds,
        radicand=rad, lead=lead, tail=block.tail, nilp=block.nilp,
        twists=block.twists,
    )


def local_nahm_0_inf(germ):
    """Forward local transform of an admissible germ at a finite point.

    Output is a canonical germ at infinity whose slopes are strictly
    smaller than 1; rank and filtered data are computed blockwise.
    """
    if not germ.is_canonical():
        complex_ = build_local_complex(germ)
        germ = complex_.germ
    if germ.coord != "finite":
        raise InputError("forward transform expects a germ at a finite point")
    blocks = tuple(transform_block_0_inf(b) for b in germ.blocks)
    return HiggsGerm.from_blocks(germ.ctx, blocks, coord="infinity")


def local_nahm_inf_0(germ):
    """Backward local transform; the tame nilpotent part must vanish."""
    if not germ.is_canonical():
        complex_ = build_local_complex(germ)
        germ = complex_.germ
    if germ.coord != "infinity":
        raise InputError("backward transform expects a germ at infinity")
    if any(b.is_exceptional() for b in germ.blocks):
        raise InputError(
            "germ has a nonzero tame nilpotent part; the backward transform "
            "requires it to vanish"
        )
    blocks = tuple(transform_block_inf_0(b) for b in germ.blocks)
    return HiggsGerm.from_blocks(germ.ctx, blocks, coord="finite")
