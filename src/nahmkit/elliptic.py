"""Global singularity data on the two sides of the transform, with the
degree, stability, and cohomology-vanishing detectors.

A datum is a reduced divisor of torus points, each carrying a canonical
Higgs germ; every numerical invariant is exact bookkeeping on the blocks.
The modeled bundle is the direct sum of the blocks' global realizations
(one summand per block, smooth away from its point, unmodeled directions
normalized to degree zero), which is precisely the canonical-form pathway
the condition detectors quantify over.

Vanishing conditions reduce to finite scans: only the tame-nilpotent
(exceptional) blocks can support flat sections or constant spectral
branches, so the failing twist classes are read off from their kernel
lines' degrees and classes; the second-cohomology side is the same scan on
the dual datum with classes negated.  A block's dual is exceptional exactly
when the block is, so that scan dualizes the exceptional blocks only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import linalg
from .errors import InputError
from .higgs import (
    ElementaryBlock,
    HiggsGerm,
    admissibility_check,
    canonical_germ,
    goodness_decomposition,
)
from .torus import TorusPoint

# ----------------------------------------------------------------------
# containers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SingularPoint:
    point: TorusPoint  # dual-torus point; the stored lift matters
    germ: HiggsGerm  # canonical form preferred

    def blocks(self):
        if not self.germ.is_canonical():
            raise InputError("canonical germ required here")
        return self.germ.blocks


class _DataBase:
    kind = None
    coord = None

    def __init__(self, ctx, points):
        self.ctx = ctx
        pts = []
        seen = set()
        for sp in points:
            if sp.point.lattice != "T_dual":
                raise InputError("singular points live on the dual torus")
            key = sp.point.class_key()
            if key in seen:
                raise InputError("divisor is not reduced (repeated point)")
            seen.add(key)
            if sp.germ.coord != self.coord:
                raise InputError(
                    f"{self.kind} germs must be presented at coord={self.coord!r}"
                )
            pts.append(sp)
        self.points = tuple(pts)

    @property
    def rank(self):
        return sum(sp.germ.rank for sp in self.points)

    def canonical(self):
        """The same datum with every germ in canonical (block) form.

        Matrix germs are decomposed through their goodness structure; a
        germ that resists is a hard error.  Degrees of recognized blocks
        default to zero (matrix germs carry no global degree data)."""
        if all(sp.germ.is_canonical() for sp in self.points):
            return self
        return type(self)(self.ctx, [
            SingularPoint(sp.point, canonical_germ(
                sp.germ, f"germ at {sp.point!r} has no canonical form: "))
            for sp in self.points
        ])

    def all_blocks(self):
        out = []
        for sp in self.points:
            for b in sp.blocks():
                out.append((sp.point, b))
        return out

    def table(self):
        rows = []
        for pt, b in self.all_blocks():
            rows.append((repr(pt), b.describe()))
        rows.sort(key=lambda r: (r[0], r[1]["p"], r[1]["m"], str(r[1]["orbit"])))
        return rows

    def table_keys(self):
        keys = [
            (pt.class_key(), pt.lift_key(), b.table_key())
            for pt, b in self.all_blocks()
        ]
        return sorted(keys, key=repr)


class AdmissibleHiggsData(_DataBase):
    """Filtered Higgs data on the dual torus with a reduced divisor."""

    kind = "higgs"
    coord = "finite"


class FilteredBundleData(_DataBase):
    """Filtered-bundle data at the infinity divisor of the product side.

    The per-point germs are the endomorphism-wrapped residual germs of
    (V_P, g_P - lift(P)); their ranks partition the generic rank.
    """

    kind = "bundle"
    coord = "infinity"


# ----------------------------------------------------------------------
# duals and degree
# ----------------------------------------------------------------------


def dual_block(block):
    ctx = block.alpha.ctx
    k = block.k
    p = block.p
    ws, ds = [], []
    for c, d in zip(block.weights, block.degrees):
        # per-line contribution is d - c + (p-1)/2; the dual negates it
        if c == 0:
            ws.append(Fraction(0))
            ds.append(-d - (p - 1))
        else:
            ws.append(-c - 1)
            ds.append(-d - p)
    # reverse the line order so the transposed nilpotent part stays upper
    ws.reverse()
    ds.reverse()
    nilp = ()
    if block.nilp:
        nilp = tuple(
            tuple(-block.nilp[k - 1 - j][k - 1 - i] for j in range(k))
            for i in range(k)
        )
    twists = tuple(-t if t is not None else None for t in block.twists) if block.twists else ()
    lead = -block.lead if (block.lead is not None) else None
    rad = None
    if block.m > 0:
        rad = block.radicand * ctx.rational((-1) ** block.p)
    tail = tuple(-a for a in block.tail)
    dual = ElementaryBlock.make(
        ctx, block.p, block.m, alpha=-block.alpha, weights=ws, degrees=ds,
        radicand=rad, lead=lead, tail=tail, twists=twists,
        injection=block.injection,
    )
    # the transposed nilpotent part is set past make's filtration check:
    # where a weight of 0 meets one below 0, the dual frame puts a factor
    # z on the entry, which a canonical block cannot record
    return replace(dual, nilp=nilp)


def dual_data(data):
    pts = []
    for sp in data.points:
        blocks = tuple(dual_block(b) for b in sp.germ.blocks)
        pts.append(
            SingularPoint(
                point=-sp.point,
                germ=HiggsGerm.from_blocks(data.ctx, blocks, sp.germ.coord),
            )
        )
    return type(data)(data.ctx, pts)


def global_parabolic_degree(data):
    """Sum of base degrees minus the weight contributions, exactly."""
    return sum((b.pardeg() for _, b in data.all_blocks()), Fraction(0))


# ----------------------------------------------------------------------
# stability
# ----------------------------------------------------------------------


@dataclass
class StabilityReport:
    verdict: str  # stable | polystable | semistable | unstable
    mu: Fraction
    candidate_mus: list

    def __str__(self):
        return self.verdict


def _summands(data):
    """Finest direct summands of the canonical model: whole blocks, split
    line-by-line when the block is tame with zero nilpotent part."""
    out = []
    for sp in data.points:
        for b in sp.blocks():
            if b.is_tame() and not b.nilp and b.k > 1:
                for i in range(b.k):
                    out.append(
                        (sp.point, ElementaryBlock.make(
                            data.ctx, 1, 0, alpha=b.alpha,
                            weights=(b.weights[i],), degrees=(b.degrees[i],),
                            twists=(b.twists[i],) if b.twists else (),
                        ))
                    )
            else:
                out.append((sp.point, b))
    return out


def _summand_multiset(data):
    out = {}
    for pt, b in _summands(data):
        key = repr((pt.class_key(), b.table_key()))
        out[key] = out.get(key, 0) + 1
    return out


def stability_check(data, candidates=None):
    """Relative stability verdict against sub-data.

    With no explicit candidates, the finest summands of the canonical model
    are enumerated (maximal slope over direct sums is attained on a single
    summand, so that suffices).
    """
    total_deg = global_parabolic_degree(data)
    total_rank = data.rank
    mu = Fraction(total_deg, total_rank) if total_rank else Fraction(0)
    if candidates is None:
        cands = _summands(data)
        if len(cands) <= 1:
            return StabilityReport(verdict="stable", mu=mu, candidate_mus=[])
        mus = [Fraction(b.pardeg(), b.rank) for _, b in cands]
    else:
        parent = _summand_multiset(data)
        mus = []
        for c in candidates:
            pool = dict(parent)
            for key in _summand_multiset(c):
                if pool.get(key, 0) <= 0:
                    raise InputError("candidate not strict (block not in parent)")
                pool[key] -= 1
            if c.rank >= total_rank or c.rank == 0:
                raise InputError("candidate not a proper nonzero sub-datum")
            mus.append(Fraction(global_parabolic_degree(c), c.rank))
        if not mus:
            return StabilityReport(verdict="stable", mu=mu, candidate_mus=[])
    mx = max(mus)
    if mx > mu:
        verdict = "unstable"
    elif mx < mu:
        verdict = "stable"
    else:
        verdict = "polystable" if all(m == mu for m in mus) else "semistable"
    return StabilityReport(verdict=verdict, mu=mu, candidate_mus=mus)


# ----------------------------------------------------------------------
# vanishing conditions
# ----------------------------------------------------------------------


@dataclass
class ConditionReport:
    name: str
    ok: bool
    failing: list = field(default_factory=list)  # [(w-or-None, class, side)]
    notes: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def _kernel_lines(block):
    """Indices of upstairs lines in the kernel of the nilpotent part.

    The scans need the kernel to be spanned by coordinate lines; that holds
    exactly when the nonzero columns are independent (Jordan-aligned data),
    and anything else is refused rather than under-reported."""
    if not block.nilp:
        return list(range(block.k))
    out = []
    nonzero_cols = []
    for t in range(block.k):
        col = [block.nilp[s][t] for s in range(block.k)]
        if all(c.is_zero() for c in col):
            out.append(t)
        else:
            nonzero_cols.append(col)
    if nonzero_cols:
        mat = [list(row) for row in zip(*nonzero_cols)]
        if linalg.rank(mat) != len(nonzero_cols):
            raise InputError(
                "nilpotent part must have independent nonzero columns "
                "(present it in Jordan-aligned coordinates)"
            )
    return out


def _section_lines(blocks):
    """(point, degree, twist) of every kernel line of degree >= 0 of the
    exceptional blocks among (point, block) pairs: only those lines can
    carry the sections the scans look for."""
    for pt, b in blocks:
        if b.is_exceptional():
            for t in _kernel_lines(b):
                if b.degrees[t] >= 0:
                    yield pt, b.degrees[t], b.twists[t] if b.twists else None


def _h0_scan_higgs(ctx, blocks):
    """Failing (w, L) classes of the flat-section scan on the dual-torus
    side, over (point, block) pairs; flat sections live at w = 0."""
    failing = []
    for _, d, tw in _section_lines(blocks):
        if d > 0:
            cls = None  # all classes
        else:
            cls = -tw if tw is not None else TorusPoint("T")
        failing.append((ctx.zero, cls, "H0"))
    return failing


def _h0_scan_bundle(blocks):
    """Failing twist classes of the section scan at constant spectral
    branches (product side), over (point, block) pairs; classes live on
    the dual torus."""
    failing = []
    for pt, d, tw in _section_lines(blocks):
        if d > 0:
            cls = None
        elif tw is not None and tw.lattice == "T_dual":
            cls = (-(pt + tw)).reduce()
        else:
            cls = (-pt).reduce()
        failing.append((None, cls, "H0"))
    return failing


def _exceptional_duals(blocks):
    """The (point, block) pairs of the dual datum that the scans can fail
    on: a block's dual is exceptional exactly when the block is
    (`dual_block` keeps (p, m) and negates alpha), so only the exceptional
    blocks are dualized, in the order of `dual_data`."""
    return [(-pt, dual_block(b)) for pt, b in blocks if b.is_exceptional()]


def _negate_classes(failing):
    out = []
    for w, cls, _ in failing:
        out.append((w, (-cls).reduce() if isinstance(cls, TorusPoint) else cls, "H2"))
    return out


def _vanishing_check(name, data, scan):
    """The report of a vanishing condition: `scan` over the blocks of the
    canonical datum, then over the duals of its exceptional blocks with
    classes negated, deduplicated."""
    blocks = data.canonical().all_blocks()
    failing = scan(blocks) + _negate_classes(scan(_exceptional_duals(blocks)))
    failing = _dedupe(failing)
    return ConditionReport(name=name, ok=not failing, failing=failing)


def a0_check(data):
    """Hypercohomology concentration for the twisted complexes.

    Exact finite verdict for canonical data: the first-cohomology scan on
    the datum plus the same scan on the dual (the second cohomology, by
    duality), with classes negated.  Both scans read only the exceptional
    blocks; the dual side dualizes those blocks and no others.
    """
    if not isinstance(data, AdmissibleHiggsData):
        raise InputError("a0_check expects Higgs data on the dual torus")
    return _vanishing_check("A0", data, lambda blocks: _h0_scan_higgs(data.ctx, blocks))


def a3_check(data):
    """Section/second-cohomology vanishing per degree-0 twist class: the
    section scan on the datum and on the duals of its exceptional blocks,
    with classes negated, as in `a0_check`."""
    if not isinstance(data, FilteredBundleData):
        raise InputError("a3_check expects filtered-bundle data")
    return _vanishing_check("A3", data, _h0_scan_bundle)


def _dedupe(failing):
    seen = set()
    out = []
    for w, cls, side in failing:
        key = (
            None if w is None else w.sort_key(),
            None if cls is None else cls.class_key(),
        )
        if key not in seen:
            seen.add(key)
            out.append((w, cls, side))
    return out


def a1a2_check(data):
    """Semistable-restriction structure plus residual admissibility.

    The canonical presentation encodes the graded semistability
    structurally; what remains is admissibility of each wrapped germ and
    the slope report."""
    if not isinstance(data, FilteredBundleData):
        raise InputError("a1a2_check expects filtered-bundle data")
    notes = []
    ok = True
    for sp in data.points:
        germ = sp.germ
        if not admissibility_check(germ):
            ok = False
            notes.append(f"germ at {sp.point!r} is not admissible")
            continue
        for b in sp.blocks() if germ.is_canonical() else []:
            if b.m and b.p == b.m:
                notes.append(
                    f"block ({b.p},{b.m}) at {sp.point!r} has slope 1, which "
                    "is excluded for instanton-derived data"
                )
    return ConditionReport(name="A1A2", ok=ok, notes=notes)


def good_check(data):
    """Goodness of every germ of the datum.  Canonical germs are good by
    construction, so only matrix germs are decomposed; a matrix germ that
    resists the decomposition fails with a note naming its point."""
    notes = []
    ok = True
    for sp in data.points:
        if sp.germ.is_canonical():
            continue
        res = goodness_decomposition(sp.germ)
        if not res.good:
            ok = False
            notes.append(f"at {sp.point!r}: {res.failure}")
    return ConditionReport(name="Good", ok=ok, notes=notes)
