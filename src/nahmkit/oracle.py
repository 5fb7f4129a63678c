"""Independent brute-force verification of the degree bookkeeping.

Two independent routes to every local rank:

* truncated_cokernel builds the honest truncated matrix of theta + w dzeta
  from C0-lattice coordinates to C1-lattice coordinates over the session
  field (w symbolic for generic fibers) and computes exact kernel/cokernel
  dimensions of that explicit matrix, certifying by stability under
  N -> N + 4.  Each rank is decided by a modular certificate first: full
  column rank of the residues mod p (field.ResidueMap, linalg.rank_mod_p)
  is full column rank over the field.  Where it does not decide, exact
  elimination over the field (linalg.rref) does.  Each part's map is
  realized once per call and shared by the module-kernel pass and both
  truncations; the module kernel does not depend on N, so it is computed
  before either truncation is built;

* degree_crosscheck recomputes the lattice index through Smith normal form
  of the map written in the lattice frames (sum of invariant exponents
  minus the valuation of the determinant of the raw map).  It realizes
  each part itself, so the two routes share nothing.

Any disagreement with the weight bookkeeping is a hard failure, never
smoothed over.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, PrecisionExhausted
from .higgs import HiggsGerm, realize
from .linalg import rank_mod_p, rref
from .lmatrix import (
    LaurentMatrix,
    determinant,
    kernel_basis,
    smith_normal_form,
)
from .localnahm import build_local_complex
from .series import DEFAULT_PRECISION, TruncatedLaurent


@dataclass
class TruncationModel:
    """Finite model of the lattice map C0 -> C1 at truncation order N."""

    N: int
    domain_dim: int
    codomain_dim: int
    matrix: list  # sparse rows: list of dict {col: Scalar}


def _map_matrix(ctx, germ, w):
    """theta + w dzeta as a matrix over the series field, in the realized
    frame basis, relative to the dzeta-trivialization."""
    g = realize(germ)
    A = g.theta.shift(-1)  # theta = A dz/z = (A/z) dz
    wI = LaurentMatrix.identity(ctx, g.lattice.rank).scale(
        TruncatedLaurent.from_scalar(w)
    )
    return g, A + wI


def part_maps(complex_, w):
    """theta + w dzeta of each part of the complex, realized once.

    Runs the two checks that do not depend on the truncation order: the
    realized weights match the part's, and the map preserves the lattices
    (no image exponent below the C1 floor)."""
    ctx = complex_.germ.ctx
    maps = []
    for part in complex_.parts:
        g, M = _map_matrix(ctx, HiggsGerm.from_blocks(ctx, [part.block]), w)
        r = g.lattice.rank
        # realized weights match part.down_weights (both sorted descending)
        if tuple(g.lattice.weights) != part.down_weights:
            raise InputError("complex lattice data out of sync with realization")
        for i in range(r):
            for j in range(r):
                e = M.entries[i][j]
                if e.coeffs and e.val + part.c0_exponents[j] < part.c1_exponents[i]:
                    raise InputError(
                        "complex map is not lattice-preserving (level error)"
                    )
        maps.append(M)
    return maps


def build_truncation_model(complex_, maps, N):
    """Assemble the truncated coordinate matrix of the complex, given the
    map of each part (part_maps)."""
    rows = []
    col_off = 0
    for part, M in zip(complex_.parts, maps):
        n0, n1 = part.c0_exponents, part.c1_exponents
        r = len(n0)
        # shared upper cutoff: domain (j, t): n0_j <= t < T, codomain
        # (i, s): n1_i <= s < T; the index lives in the size difference
        T = N + max((0, *n0, *n1))
        col_base = []
        for j in range(r):
            col_base.append(col_off)
            col_off += T - n0[j]
        row_base = []
        for i in range(r):
            row_base.append(len(rows))
            rows.extend({} for _ in range(T - n1[i]))
        # row (i, s) and column (j, t) meet in the coefficient of z^(s-t) of
        # entry (i, j) alone, so each coefficient is stored as it is
        for j in range(r):
            for t in range(n0[j], T):
                col = col_base[j] + (t - n0[j])
                for i in range(r):
                    e = M.entries[i][j]
                    for pos, cf in enumerate(e.coeffs):
                        s = e.val + pos + t
                        if s >= T:
                            break
                        if s >= n1[i] and not cf.is_zero():
                            rows[row_base[i] + (s - n1[i])][col] = cf
    return TruncationModel(
        N=N, domain_dim=col_off, codomain_dim=len(rows), matrix=rows
    )


def _sparse_rank(ctx, model):
    """Exact rank of the truncated matrix.

    A rank mod p equal to the number of columns certifies full column rank
    (linalg.rank_mod_p); anything else goes to linalg.rref over the session
    field."""
    if rank_mod_p(model.matrix, ctx.residues) == model.domain_dim:
        return model.domain_dim
    return len(rref(model.matrix)[1])


def truncated_cokernel(complex_, twist, N=DEFAULT_PRECISION):
    """Exact kernel/cokernel dimensions of the truncated complex.

    twist is (w, L): w a session scalar (symbolic for the generic fiber),
    L a torus twist class or None (it only affects which degeneracies are
    flagged, not the matrix).  Returns (dim ker, dim coker, certified);
    certification means stability under N -> N + 4, or for a module kernel
    that kernel_basis certified it.
    """
    w, _L = twist
    ctx = complex_.germ.ctx
    maps = part_maps(complex_, w)
    module_kernel = 0
    certified = True
    for M in maps:
        basis, exact = kernel_basis(M)
        module_kernel += len(basis)
        certified = certified and exact
    if module_kernel:
        # the module kernel does not depend on N
        return module_kernel, None, certified
    out = []
    for n in (N, N + 4):
        model = build_truncation_model(complex_, maps, n)
        rank = _sparse_rank(ctx, model)
        out.append((model.domain_dim - rank, model.codomain_dim - rank))
    ker, coker = out[0]
    return ker, coker, out[0] == out[1]


def oracle_rank(germ, w, N=DEFAULT_PRECISION):
    """Transform rank of one germ by the truncated-cokernel oracle."""
    complex_ = build_local_complex(germ)
    ker, coker, certified = truncated_cokernel(complex_, (w, None), N)
    if not certified:
        raise PrecisionExhausted("oracle rank did not stabilize under N -> N+4")
    if ker:
        raise PrecisionExhausted(
            "oracle found a module kernel; the fiber rank is not defined"
        )
    return coker


def degree_crosscheck(data, w, N=DEFAULT_PRECISION):
    """Recompute each point's lattice index two ways and compare.

    Bookkeeping route: generator-exponent drops of the C0/C1 lattices.
    Smith route: invariant exponents of the map written in the lattice
    frames, minus the valuation of the raw determinant.
    """
    ctx = data.ctx
    for sp in data.points:
        complex_ = build_local_complex(sp.germ)
        book = complex_.index
        smith_total = 0
        for part in complex_.parts:
            germ1 = HiggsGerm.from_blocks(ctx, [part.block])
            g, M = _map_matrix(ctx, germ1, w)
            r = g.lattice.rank
            # write the map in the lattice frames: diag(z^-n1) M diag(z^n0)
            rows = []
            for i in range(r):
                row = []
                for j in range(r):
                    e = M.entries[i][j]
                    e = e.shift(part.c0_exponents[j] - part.c1_exponents[i])
                    row.append(e.truncate(N) if not e.exact else e)
                rows.append(row)
            Mhat = LaurentMatrix(ctx, rows)
            mv = Mhat.min_valuation()
            if mv is None or mv < 0:
                raise InputError("map is not lattice-preserving (level error)")
            invs = smith_normal_form(Mhat.truncate(N))
            d_sum = sum(inv.val for inv in invs)
            det_val = determinant(M.truncate(N)).valuation()
            if det_val is None:
                raise PrecisionExhausted("determinant vanishes to precision")
            smith_total += d_sum - det_val
        if smith_total != book:
            return False
    return True
