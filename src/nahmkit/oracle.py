"""Independent brute-force verification of the degree bookkeeping.

Two independent routes to every local rank:

* truncated_cokernel builds the honest truncated matrix of theta + w dzeta
  from C0-lattice coordinates to C1-lattice coordinates over the session
  field (w symbolic for generic fibers) and computes exact kernel/cokernel
  dimensions of that explicit matrix (linalg.rref where the triangular
  certificate does not apply), certifying by stability under N -> N + 4.
  The kernel of the map over the series field does not depend on N, so it
  is computed once per call, before either truncation is built;

* degree_crosscheck recomputes the lattice index through Smith normal form
  of the map written in the lattice frames (sum of invariant exponents
  minus the valuation of the determinant of the raw map).

Any disagreement with the weight bookkeeping is a hard failure, never
smoothed over.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, PrecisionExhausted
from .higgs import HiggsGerm, realize
from .linalg import rref
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


def build_truncation_model(complex_, w, N):
    """Assemble the truncated coordinate matrix of the complex at twist w."""
    ctx = complex_.germ.ctx
    entries = []
    col_off = row_off = 0
    for part in complex_.parts:
        germ1 = HiggsGerm.from_blocks(ctx, [part.block])
        g, M = _map_matrix(ctx, germ1, w)
        r = g.lattice.rank
        # realized weights match part.down_weights (both sorted descending)
        if tuple(g.lattice.weights) != part.down_weights:
            raise InputError("complex lattice data out of sync with realization")
        # validate lattice preservation: no image exponent below the C1 floor
        for i in range(r):
            for j in range(r):
                e = M.entries[i][j]
                if e.coeffs and e.val + part.c0_exponents[j] < part.c1_exponents[i]:
                    raise InputError(
                        "complex map is not lattice-preserving (level error)"
                    )
        # shared upper cutoff: domain (j, t): n0_j <= t < T, codomain
        # (i, s): n1_i <= s < T; the index lives in the size difference
        T = N + max(
            [0]
            + [part.c0_exponents[j] for j in range(r)]
            + [part.c1_exponents[i] for i in range(r)]
        )
        col_base = {}
        for j in range(r):
            col_base[j] = col_off
            col_off += T - part.c0_exponents[j]
        row_base = {}
        for i in range(r):
            row_base[i] = row_off
            row_off += T - part.c1_exponents[i]
        for j in range(r):
            for t in range(part.c0_exponents[j], T):
                col = col_base[j] + (t - part.c0_exponents[j])
                for i in range(r):
                    e = M.entries[i][j]
                    for pos, cf in enumerate(e.coeffs):
                        if cf.is_zero():
                            continue
                        s = e.val + pos + t
                        if part.c1_exponents[i] <= s < T:
                            entries.append((row_base[i] + (s - part.c1_exponents[i]), col, cf))
    matrix = {}
    for rr, cc, cf in entries:
        matrix.setdefault(rr, {})
        matrix[rr][cc] = matrix[rr].get(cc, ctx.zero) + cf
    return TruncationModel(
        N=N, domain_dim=col_off, codomain_dim=row_off,
        matrix=[{c: v for c, v in matrix.get(rr, {}).items() if not v.is_zero()}
                for rr in range(row_off)],
    )


def _sparse_rank(model):
    """Exact rank of the truncated matrix.

    Fast path: a triangular certificate -- if every column has a distinct
    lowest nonzero row and those pivots are nonzero scalars, the matrix has
    full column rank.  Fallback: linalg.rref over the session field."""
    cols = {}
    for rr, row in enumerate(model.matrix):
        for cc, v in row.items():
            cols.setdefault(cc, []).append((rr, v))
    # triangular certificate
    seen = set()
    triangular = True
    for cc, items in cols.items():
        rr = min(r for r, _ in items)
        if rr in seen:
            triangular = False
            break
        seen.add(rr)
    if triangular and len(cols) == model.domain_dim:
        return model.domain_dim
    return len(rref(model.matrix)[1])


def truncated_cokernel(complex_, twist, N=DEFAULT_PRECISION):
    """Exact kernel/cokernel dimensions of the truncated complex.

    twist is (w, L): w a session scalar (symbolic for the generic fiber),
    L a torus twist class or None (it only affects which degeneracies are
    flagged, not the matrix).  Returns (dim ker, dim coker, certified);
    certification means stability under N -> N + 4.
    """
    w, _L = twist
    ctx = complex_.germ.ctx
    module_kernel = 0
    for part in complex_.parts:
        _g, M = _map_matrix(ctx, HiggsGerm.from_blocks(ctx, [part.block]), w)
        module_kernel += len(kernel_basis(M)[0])
    if module_kernel:
        # the module kernel does not depend on N: certified as it stands
        return module_kernel, None, True
    out = []
    for n in (N, N + 4):
        model = build_truncation_model(complex_, w, n)
        rank = _sparse_rank(model)
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
            invs, _L2, _R2 = smith_normal_form(Mhat.truncate(N))
            d_sum = sum(inv.val for inv in invs)
            det_val = determinant(M.truncate(N)).valuation()
            if det_val is None:
                raise PrecisionExhausted("determinant vanishes to precision")
            smith_total += d_sum - det_val
        if smith_total != book:
            return False
    return True
