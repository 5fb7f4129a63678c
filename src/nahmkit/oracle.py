"""Independent brute-force verification of the degree bookkeeping.

Three checks, each proving one thing about build_local_complex:

* part_maps: theta + w dzeta preserves the lattices of each part;
* truncated_cokernel: the truncated model of that map is injective, and
  stays so under N -> N + 4 (its cokernel is then the bookkeeping index by
  counting dimensions);
* degree_crosscheck: the bookkeeping's generator exponents, re-derived
  from the realized lattice by rules of its own, and on an exceptional part
  the index, from the colength of the lattice join by Smith form.

build_truncation_model makes the models of both certificates of a rank.
coefficient_table lists the nonzero series coefficients of the maps once;
their residues mod p (field.ResidueMap, each coefficient mapped once) fill
the models at N and N + 4, whose rank linalg.rank_mod_p takes on integers.
Only when that rank falls short of full column rank, or a coefficient has
no residue, is the model of the Scalars made and reduced by linalg.rref.
Each part is realized once in part_maps; degree_crosscheck reads the
other parts' weights off higgs.realized_lattice and realizes only an
exceptional part again, for its theta.

Any disagreement with the weight bookkeeping is a hard failure, never
smoothed over.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor

from .errors import VerdictFailure
from .higgs import HiggsGerm, realize, realized_lattice
from .linalg import rank_mod_p, rref
from .lmatrix import LaurentMatrix, kernel_basis, smith_normal_form
from .localnahm import LEVEL_HALF, build_local_complex, c0_level
from .series import DEFAULT_PRECISION, TruncatedLaurent


@dataclass
class TruncationModel:
    """Finite model of the lattice map C0 -> C1 at a truncation order."""

    domain_dim: int
    codomain_dim: int
    matrix: list  # sparse rows: list of dict {col: coefficient}


def part_maps(complex_, w):
    """theta + w dzeta of each part, realized once, over the series field
    in the realized frame, relative to the dzeta-trivialization.

    Proves lattice preservation, which does not depend on the truncation
    order: the realized weights match the part's, and no image exponent
    falls below the C1 floor.  A disagreement is a VerdictFailure."""
    ctx = complex_.germ.ctx
    wz = TruncatedLaurent.from_scalar(w)
    maps = []
    for part in complex_.parts:
        g = realize(HiggsGerm.from_blocks(ctx, [part.block]))
        r = g.lattice.rank
        # theta = A dz/z = (A/z) dz, and w dzeta puts w on the diagonal
        M = LaurentMatrix(ctx, [
            [e.shift(-1) + wz if i == j else e.shift(-1) for j, e in enumerate(row)]
            for i, row in enumerate(g.theta.entries)
        ])
        # realized weights match part.down_weights (both sorted descending)
        if tuple(g.lattice.weights) != part.down_weights:
            raise VerdictFailure("complex lattice data out of sync with realization")
        for i in range(r):
            for j in range(r):
                e = M.entries[i][j]
                if e.coeffs and e.val + part.c0_exponents[j] < part.c1_exponents[i]:
                    raise VerdictFailure(
                        "complex map is not lattice-preserving (level error)"
                    )
        maps.append(M)
    return maps


def coefficient_table(maps):
    """The nonzero series coefficients of each part's map (part_maps).

    One list per part of (i, j, terms), one for each entry (i, j) with a
    nonzero coefficient, terms the (exponent, Scalar) pairs of those
    coefficients in ascending order of the exponent."""
    table = []
    for M in maps:
        entries = []
        for i, row in enumerate(M.entries):
            for j, e in enumerate(row):
                terms = [(e.val + pos, cf) for pos, cf in enumerate(e.coeffs)
                         if not cf.is_zero()]
                if terms:
                    entries.append((i, j, terms))
        table.append(entries)
    return table


def _residue_table(residues, table):
    """The coefficient table with each coefficient replaced by its residue
    mod p (a field.ResidueMap), zero residues dropped; None when some
    coefficient has no residue."""
    out = []
    for entries in table:
        images = []
        for i, j, terms in entries:
            nonzero = []
            for k, cf in terms:
                v = residues(cf)
                if v is None:
                    return None
                if v:
                    nonzero.append((k, v))
            if nonzero:
                images.append((i, j, nonzero))
        out.append(images)
    return out


def build_truncation_model(complex_, table, N):
    """Assemble the truncated coordinate matrix of the complex from a
    coefficient table: the Scalars of coefficient_table, or their residues.
    The model's entries are the table's, so it is a matrix over the field
    the table is over."""
    rows = []
    col_off = 0
    for part, entries in zip(complex_.parts, table):
        n0, n1 = part.c0_exponents, part.c1_exponents
        # shared upper cutoff: domain (j, t): n0_j <= t < T, codomain
        # (i, s): n1_i <= s < T; the index lives in the size difference
        T = N + max((0, *n0, *n1))
        # column (j, t) is col_base[j] + t, row (i, s) is row_base[i] + s
        col_base = []
        for n in n0:
            col_base.append(col_off - n)
            col_off += T - n
        row_base = []
        for n in n1:
            row_base.append(len(rows) - n)
            rows.extend({} for _ in range(T - n))
        # row (i, s) and column (j, t) meet in the coefficient of z^(s-t) of
        # entry (i, j) alone, so each coefficient is stored as it is
        for i, j, terms in entries:
            rb, cb = row_base[i], col_base[j]
            for k, v in terms:
                # n0_j <= t < T and n1_i <= s = k + t < T
                for t in range(max(n0[j], n1[i] - k), T - max(k, 0)):
                    rows[rb + k + t][cb + t] = v
    return TruncationModel(domain_dim=col_off, codomain_dim=len(rows), matrix=rows)


def _model_rank(complex_, table, residues, p, N):
    """The model at N and its rank.  A full column rank of the residue
    model certifies full column rank (linalg.rank_mod_p); anything else,
    or a table without residues, goes to rref over the session field on
    the model of the Scalars."""
    if residues is not None:
        model = build_truncation_model(complex_, residues, N)
        rank = rank_mod_p(model.matrix, p)
        if rank == model.domain_dim:
            return model, rank
    model = build_truncation_model(complex_, table, N)
    return model, len(rref(model.matrix)[1])


def truncated_cokernel(complex_, twist, N=DEFAULT_PRECISION):
    """Exact kernel/cokernel dimensions of the truncated complex.

    twist is (w, L): w a session scalar (symbolic for the generic fiber),
    L a torus twist class or None.  L is not read: the maps and the models
    depend on w alone.  Returns (dim ker, dim coker, certified);
    certification means stability under N -> N + 4, or for a module kernel
    that kernel_basis certified it.

    What this proves is that the truncated model is injective and stays so
    under N -> N + 4.  The model has sum(T - n1) rows and sum(T - n0)
    columns, so coker - ker is the bookkeeping index sum(n0) - sum(n1)
    whatever the map: with ker == 0, coker equals the index by counting.
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
    table = coefficient_table(maps)
    residues = _residue_table(ctx.residues, table)
    out = []
    for n in (N, N + 4):
        model, rank = _model_rank(complex_, table, residues, ctx.residues.p, n)
        out.append((model.domain_dim - rank, model.codomain_dim - rank))
    ker, coker = out[0]
    return ker, coker, out[0] == out[1]


def degree_crosscheck(data, _w, _N=DEFAULT_PRECISION):
    """Re-derive the bookkeeping exponents of every part of every point.

    The C0 and C1 generator exponents of each part are recomputed from the
    weights of its realized lattice (higgs.realized_lattice, which builds no
    theta) by rules of this module's own: z^n e generates P_a on a weight-c
    line for n = ceil(c - a), and P_{<1} for n = floor(c - 1) + 1.  The C0
    exponents must equal the bookkeeping's, and so must the C1 exponents
    where C1 is monomial.  On an exceptional part C1 is the join
    P_{<1} (x) Omega + theta P_0, which need not be monomial; the part is
    realized to read Theta, the colength is the sum of the Smith exponents
    of the r x 2r generator matrix [z^strict | Theta z^(n0 - 1)], and
    sum(n0) minus that colength must be the part's index.  Returns False on
    any difference.

    The lattices depend neither on the twist nor on the precision: the
    generator matrices are exact, so `_w` and `_N` are not read.  They are
    kept because callers pass the twist and the precision by position, as
    they do to truncated_cokernel.
    """
    ctx = data.ctx
    zero = TruncatedLaurent.zero(ctx)
    for sp in data.points:
        for part in build_local_complex(sp.germ).parts:
            b = part.block
            weights = realized_lattice(ctx, b).weights
            n0 = tuple(ceil(c - c0_level(b)) for c in weights)
            if n0 != part.c0_exponents:
                return False
            if not b.is_exceptional():
                if tuple(ceil(c - LEVEL_HALF) for c in weights) != part.c1_exponents:
                    return False
                continue
            # theta = Theta dz/z sends z^n0[t] e_t to z^(n0[t]-1) Theta e_t dz
            g = realize(HiggsGerm.from_blocks(ctx, [b]))
            r = len(weights)
            gens = LaurentMatrix(ctx, [
                [TruncatedLaurent.monomial(ctx, ctx.one, floor(weights[i] - 1) + 1)
                 if j == i else zero for j in range(r)]
                + [g.theta.entries[i][t].shift(n0[t] - 1) for t in range(r)]
                for i in range(r)
            ])
            lift = -gens.min_valuation()
            invs = smith_normal_form(gens.shift(lift))
            if sum(n0) - (sum(inv.val for inv in invs) - r * lift) != part.index:
                return False
    return True
