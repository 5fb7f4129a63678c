"""The four benchmark workloads: seeded inputs, one operation each, and the
independent checks of every output.

Each workload is a fixed list of operations made from the seed.  The shape
of every operation (block shapes, matrix sizes, document structure) is fixed
by its position in the list; the seed draws only the decorations (leading
coefficients, residues, weights, degrees, rationals, lattice shifts and
positions).  Passes made from different seeds therefore cost about the same,
which keeps the figures of runs with different seeds comparable.

An operation is a pair of callables: `run()` calls into nahmkit and is the
only part that is timed; `check(result)` compares that result with values
the benchmark computed from the construction of the input, without the
program's help, and returns an error message or None.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from fractions import Fraction as F
from math import gcd

from nahmkit import cli, schema
from nahmkit.elliptic import AdmissibleHiggsData, SingularPoint
from nahmkit.errors import FieldExtensionRequired
from nahmkit.examples import catalog_names, generate_examples
from nahmkit.field import FieldContext
from nahmkit.higgs import ElementaryBlock, HiggsGerm, goodness_decomposition, realize
from nahmkit.localnahm import build_local_complex
from nahmkit.oracle import degree_crosscheck, truncated_cokernel
from nahmkit.torus import EndoPair, TorusPoint, g_equiv, lattice_vector

SYMBOLS = ("x1", "x2", "w", "s1", "s2", "s3", "nu1", "nu2")

#: the (p, m) shapes of the criterion-5 suite (m == 0 is a tame block)
SUITE_SHAPES = [(1, 0), (1, 1), (2, 1), (1, 2), (3, 1), (3, 2), (2, 3), (1, 3),
                (4, 1), (1, 4), (5, 1)]

#: every block shape with p + m <= 6
GERM_SHAPES = [(p, m) for p in range(1, 6) for m in range(0, 6)
               if p + m <= 6 and (gcd(p, m) == 1 if m else p == 1)]

#: two-block germs of distinct slopes; three-block germs take seconds each
GERM_PAIRS = [((1, 0), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (1, 2)),
              ((3, 1), (1, 1)), ((1, 0), (2, 1)), ((2, 3), (1, 1)),
              ((3, 2), (1, 0))]

ORACLE_PRECISION = 24

#: conjugated diagonal matrices P D P^-1 whose rational eigenvalues are not
#: on the diagonal.  They do not depend on the seed: linalg.scalar_poly_roots
#: only tries candidate roots and quadratic remainders, so every one of them
#: raises FieldExtensionRequired today although its characteristic
#: polynomial splits over Q.
CONJUGATED = [
    ([[1, 1, 0], [0, 1, 1], [1, 0, 2]], [1, 5, 11]),
    ([[1, 1, 0], [0, 1, 1], [1, 0, 2]], [2, 3, 7]),
]


class Op:
    """One benchmark operation."""

    __slots__ = ("label", "run", "check", "known_fault")

    def __init__(self, label, run, check, known_fault=None):
        self.label = label
        self.run = run
        self.check = check
        # exception type the operation raises today because of a known
        # program fault; such an operation is counted as failed
        self.known_fault = known_fault


def session():
    return FieldContext(M=12, symbols=SYMBOLS)


#: weights of the blocks; the reduced ones lie in (-1, 0], so making a
#: block with them shifts no degree
WEIGHTS = (F(0), F(-1, 2), F(-4, 3), F(-7, 4), F(-11, 6))
WEIGHTS_REDUCED = (F(0), F(-1, 2), F(-1, 3), F(-2, 3), F(-1, 4), F(-3, 4),
                   F(-1, 6), F(-5, 6))
RATIONALS = tuple(F(n, d) for n in (2, 3, -1, 5) for d in (1, 2, 3))


class Dealer(random.Random):
    """The seeded source of every decoration.

    `deal(key, pool)` draws from a shuffled deck of the pool kept per key,
    so each full round of draws under one key uses every pool value once.
    The seed decides which operation gets which value, while the multiset
    of values, on which the cost of a pass mostly depends, stays fixed."""

    def __init__(self, seed):
        super().__init__(seed)
        self._decks = {}

    def deal(self, key, pool):
        deck = self._decks.get(key)
        if not deck:
            deck = list(pool)
            self.shuffle(deck)
            self._decks[key] = deck
        return deck.pop()


def _block(ctx, rng, shape, role, nilpotent=False, degree=True):
    """A canonical block of the given shape with decorations dealt under
    (role, shape); without `degree` it has reduced weights and zero
    degrees, as matrix germs do.

    Returns (block, closed-form index): k(p+m) for an irregular block with k
    lines, k for a tame block with nonzero residue."""
    p, m = shape
    key = (role, shape)
    deg = rng.randint(-1, 2) if degree else 0
    w = rng.deal(("weight",) + key, WEIGHTS if degree else WEIGHTS_REDUCED)
    if m == 0:
        alpha = rng.deal(("alpha",) + key, ("x1", "x2", "q"))
        alpha = ctx.rational(rng.randint(1, 4)) if alpha == "q" else ctx.sym(alpha)
        if nilpotent:
            b = ElementaryBlock.make(
                ctx, 1, 0, alpha=alpha, weights=(w, w),
                degrees=(deg, deg - 1) if degree else None,
                nilp=((ctx.zero, ctx.one), (ctx.zero, ctx.zero)),
            )
            return b, 2
        b = ElementaryBlock.make(ctx, 1, 0, alpha=alpha, weights=(w,),
                                 degrees=(deg,) if degree else None)
        return b, 1
    lead = ctx.sym(rng.deal(("lead",) + key, ("x1", "x2")))
    b = ElementaryBlock.make(ctx, p, m, lead=lead, weights=(w,),
                             degrees=(deg,) if degree else None)
    return b, p + m


def _position(rng, k=None):
    name = "s%d" % (k if k is not None else rng.randint(1, 3))
    return TorusPoint("T_dual", 0, 0, sym={name: 1}, is_lift=True)


# ----------------------------------------------------------------------
# oracle: certify one singular point as `nahmkit oracle` does
# ----------------------------------------------------------------------


def oracle_layout():
    """Block shapes of each operation of a pass: every suite shape alone
    (five times, two of the tame ones with a nilpotent rank-2 block) and
    every unordered pair of distinct suite shapes."""
    layout = []
    for rep in range(5):
        for s in SUITE_SHAPES:
            layout.append(((s, rep in (1, 3) and s == (1, 0)),))
    for i, a in enumerate(SUITE_SHAPES):
        for b in SUITE_SHAPES[i + 1:]:
            layout.append(((a, False), (b, i % 3 == 0 and a == (1, 0))))
    # a cheap first operation serves as the warm-up
    layout.sort(key=lambda spec: spec != (((1, 1), False),))
    return layout


def _oracle_op(ctx, w, rng, spec):
    blocks, expected = [], 0
    for shape, nilpotent in spec:
        b, idx = _block(ctx, rng, shape, len(spec), nilpotent)
        blocks.append(b)
        expected += idx
    sp = SingularPoint(_position(rng), HiggsGerm.from_blocks(ctx, blocks, "finite"))
    data = AdmissibleHiggsData(ctx, [sp])

    def run():
        complex_ = build_local_complex(sp.germ)
        ker, coker, certified = truncated_cokernel(
            complex_, (w, None), ORACLE_PRECISION)
        cross = degree_crosscheck(data, w, ORACLE_PRECISION)
        return complex_.index, ker, coker, certified, cross

    def check(result):
        book, ker, coker, certified, cross = result
        if ker != 0 or not certified:
            return f"kernel {ker}, certified {certified}"
        if coker != expected or book != expected:
            return f"cokernel {coker}, bookkeeping {book}, closed form {expected}"
        if not cross:
            return "degree_crosscheck failed"
        return None

    label = "+".join("%d,%d%s" % (s + ("n" if n else "",)) for s, n in spec)
    return Op(label, run, check)


def build_oracle(seed):
    ctx = session()
    rng = Dealer(seed)
    w = ctx.sym("w")
    return [_oracle_op(ctx, w, rng, spec) for spec in oracle_layout()]


# ----------------------------------------------------------------------
# transform: one document through the in-process CLI
# ----------------------------------------------------------------------


def cli_call(argv, text):
    """Run the CLI in-process on a document given as text (read from '-');
    returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_run(["--format", "json"] + argv + ["-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _doc_blocks(doc):
    """(p, m, lines) of every block of a document, read from its JSON."""
    return [(b["p"], b["m"], len(b["weights"]))
            for g in doc["payload"]["germs"] for b in g["blocks"]]


def _closed_form_rank(blocks):
    return sum(k * (p + m) if m else k for p, m, k in blocks)


def _forward_shapes(blocks):
    """The local transform sends (p, m) to (p + m, m); tame blocks stay."""
    return sorted((p + m, m) for p, m, _ in blocks)


def _table_shapes(table):
    return sorted((row[1]["p"], row[1]["m"]) for row in table)


def _transform_op(label, text, expect_verdict_fail):
    doc = json.loads(text)
    kind = doc["kind"]
    blocks = _doc_blocks(doc)
    first, second = ("forward", "backward") if kind == "higgs" else ("backward", "forward")

    def run():
        codes = {}
        codes["check"], _ = cli_call(["check"], text)
        codes[first], out1 = cli_call(["transform", "--direction", first], text)
        res = {"codes": codes}
        if codes[first] == cli.EXIT_OK:
            parsed = json.loads(out1)
            res[first] = parsed["report"]
            codes[second], out2 = cli_call(
                ["transform", "--direction", second], json.dumps(parsed["document"]))
            if codes[second] == cli.EXIT_OK:
                res[second] = json.loads(out2)["report"]
        if kind == "higgs":
            codes["roundtrip"], out3 = cli_call(["roundtrip"], text)
            if codes["roundtrip"] == cli.EXIT_OK:
                res["roundtrip"] = json.loads(out3)
        codes["invariants"], out4 = cli_call(["invariants"], text)
        res["invariants"] = json.loads(out4)
        return res

    def check(res):
        codes = res["codes"]
        want = cli.EXIT_VERDICT if expect_verdict_fail else cli.EXIT_OK
        if codes["check"] != want:
            return f"check exited {codes['check']}, want {want}"
        if codes[first] != want:
            return f"transform {first} exited {codes[first]}, want {want}"
        if codes["invariants"] != cli.EXIT_OK:
            return f"invariants exited {codes['invariants']}"
        if res["invariants"]["input"]["rank"] != sum(p * k for p, _, k in blocks):
            return "invariants rank differs from the block list"
        if expect_verdict_fail:
            if kind == "higgs" and codes["roundtrip"] != cli.EXIT_VERDICT:
                return f"roundtrip exited {codes['roundtrip']}, want 1"
            return None
        if codes[second] != cli.EXIT_OK:
            return f"transform {second} exited {codes[second]}"
        fwd, back = res["forward"], res["backward"]
        if not fwd["degree_preserved"]:
            return "forward report: degree not preserved"
        if any(F(r[1]["m"], r[1]["p"]) >= 1 for r in fwd["output"]["table"]):
            return "a forward output block has slope >= 1"
        if kind == "bundle":
            if fwd["output"]["table"] != back["input"]["table"]:
                return "forward(backward(doc)) does not restore the block table"
            return None
        if fwd["output"]["rank"] != _closed_form_rank(blocks):
            return (f"forward rank {fwd['output']['rank']}, closed form "
                    f"{_closed_form_rank(blocks)}")
        if _table_shapes(fwd["output"]["table"]) != _forward_shapes(blocks):
            return "forward block shapes are not (p, m) -> (p + m, m)"
        if back["output"]["table"] != fwd["input"]["table"]:
            return "backward(forward(doc)) does not restore the block table"
        if codes["roundtrip"] != cli.EXIT_OK or res["roundtrip"]["roundtrip"] != "pass":
            return f"roundtrip exited {codes['roundtrip']}, want a pass"
        rt = res["roundtrip"]
        if rt["output"]["table"] != rt["input"]["table"]:
            return "roundtrip report tables differ"
        return None

    return Op(label, run, check)


def _suite_document(ctx, rng, index):
    """A criterion-5-style datum: the number of points (1-3), blocks per
    point (1-2) and their shapes follow from the index, the rest from rng.
    Returns (document text, block list (p, m, lines))."""
    npts = 1 + index % 3
    points, blocks = [], []
    for k in range(npts):
        germ_blocks = []
        for j in range(1 + (index + k) % 2):
            shape = SUITE_SHAPES[(3 * index + 2 * k + j) % len(SUITE_SHAPES)]
            nilpotent = shape == (1, 0) and (index + k) % 3 == 0
            b, _ = _block(ctx, rng, shape, "doc", nilpotent)
            germ_blocks.append(b)
            blocks.append((b.p, b.m, b.k))
        points.append(SingularPoint(_position(rng, k + 1),
                                    HiggsGerm.from_blocks(ctx, germ_blocks, "finite")))
    doc = {"ctx": ctx, "kind": "higgs", "data": AdmissibleHiggsData(ctx, points),
           "precision": None}
    return schema.dumps(doc), blocks


TRANSFORM_SUITE_DOCS = 73


def build_transform(seed):
    ctx = session()
    rng = Dealer(seed)
    ops = []
    for name in catalog_names():
        ex = generate_examples(name)
        # the catalog annotates the data that fail a condition
        ops.append(_transform_op(name, schema.dumps(ex), "(fails the" in ex["description"]))
    for i in range(TRANSFORM_SUITE_DOCS):
        text, blocks = _suite_document(ctx, rng, i)
        if sorted(_doc_blocks(json.loads(text))) != sorted(blocks):
            raise RuntimeError("schema.dumps wrote a different block list")
        ops.append(_transform_op(f"suite-{i}", text, False))
    return ops


# ----------------------------------------------------------------------
# spectral: g_equiv on (V, f) and on its dual-lattice shift
# ----------------------------------------------------------------------


def _diag_value(rng, kind):
    """A diagonal entry a*x1 + b*x2 + c of the criterion-8 pool, as the
    triple (a, b, c): kind 0 is x1, 1 is x2, 2 is x1 + 1 and 3 a seeded
    rational."""
    if kind == 0:
        return (1, 0, F(0))
    if kind == 1:
        return (0, 1, F(0))
    if kind == 2:
        return (1, 0, F(1))
    return (0, 0, rng.deal("rational", RATIONALS))


def _as_scalar(ctx, v):
    a, b, c = v
    return ctx.rational(a) * ctx.sym("x1") + ctx.rational(b) * ctx.sym("x2") + ctx.rational(c)


def _expected_spectrum(ctx, values):
    """{(symbolic part, constant): multiplicity} of eigenvalues a*x1 + b*x2 + c:
    none of them has a dual-lattice part, so each is its own class."""
    out = {}
    for a, b, c in values:
        sym = tuple(sorted((n, F(v)) for n, v in (("x1", a), ("x2", b)) if v))
        key = (sym, None if c == 0 else ctx.rational(c))
        out[key] = out.get(key, 0) + 1
    return out


def _found_spectrum(spectrum, blocks):
    out = {}
    for pt, blk in zip(spectrum, blocks):
        if pt.q1 != 0 or pt.q2 != 0:
            return None
        key = (pt.sym, pt.const)
        out[key] = out.get(key, 0) + blk.dim
    return out


def _spectral_op(ctx, label, matrix, values, nu, known_fault=None):
    vf = EndoPair(ctx, matrix)
    expected = _expected_spectrum(ctx, values)

    def run():
        return g_equiv(vf), g_equiv(vf.shift(nu))

    def check(result):
        (s1, b1), (s2, b2) = result
        got1, got2 = _found_spectrum(s1, b1), _found_spectrum(s2, b2)
        if got1 != expected:
            return f"spectrum {got1}, constructed {expected}"
        if got2 != expected:
            return f"shifted spectrum {got2}, constructed {expected}"
        return None

    return Op(label, run, check, known_fault)


def _frac_inverse(P):
    n = len(P)
    m = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(P)]
    for c in range(n):
        r = next(i for i in range(c, n) if m[i][c])
        m[c], m[r] = m[r], m[c]
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def conjugated_matrix(P, D):
    """P diag(D) P^-1 over Q, computed with Fractions."""
    n = len(P)
    Pi = _frac_inverse(P)
    return [[sum(F(P[i][t]) * D[t] * Pi[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


def spectral_layout():
    """(diagonal kinds, mask of nonzero entries above the diagonal) of the
    triangular operations of a pass: every kind alone twice, every ordered
    pair with and without its upper entry, and each triple of kinds summing
    to 0 mod 4 with four of the eight upper masks.  The mask is fixed
    because the cost of an operation depends on it far more than on the
    seeded values."""
    layout = [((k,), 0) for k in range(4)] * 2
    layout += [(pair, mask) for pair in itertools.product(range(4), repeat=2)
               for mask in (0, 1)]
    triples = [t for t in itertools.product(range(4), repeat=3) if sum(t) % 4 == 0]
    layout += [(t, (4 * i + r) % 8) for i, t in enumerate(triples) for r in range(4)]
    return layout


def build_spectral(seed):
    ctx = session()
    rng = Dealer(seed)
    ops = []
    for i, (kinds, mask) in enumerate(spectral_layout()):
        n = len(kinds)
        values = [_diag_value(rng, k) for k in kinds]
        diag = [_as_scalar(ctx, v) for v in values]
        upper = [(r, c) for r in range(n) for c in range(r + 1, n)]
        f = [[ctx.zero] * n for _ in range(n)]
        for r in range(n):
            f[r][r] = diag[r]
        for bit, (r, c) in enumerate(upper):
            if mask >> bit & 1:
                f[r][c] = ctx.rational(rng.deal(("upper", n), (1, 2)))
        nu = lattice_vector(ctx, rng.randint(-5, 5), rng.randint(-5, 5))
        ops.append(_spectral_op(ctx, f"tri{n}-{i}", f, values, nu))
    for j, (P, D) in enumerate(CONJUGATED):
        M = [[ctx.rational(x) for x in row] for row in conjugated_matrix(P, D)]
        values = [(0, 0, F(d)) for d in D]
        ops.append(_spectral_op(ctx, f"conj-{j}", M, values, lattice_vector(ctx, 1, -1),
                                known_fault=FieldExtensionRequired))
    return ops


# ----------------------------------------------------------------------
# germ: goodness decomposition of a realized canonical germ
# ----------------------------------------------------------------------


def _germ_op(ctx, rng, shapes):
    blocks = [_block(ctx, rng, s, (tuple(shapes), i), degree=False)[0]
              for i, s in enumerate(shapes)]
    want = sorted(b.table_key() for b in blocks)

    def run():
        return goodness_decomposition(realize(HiggsGerm.from_blocks(ctx, blocks)))

    def check(res):
        if not res.good:
            return f"not good: {res.failure}"
        got = sorted(b.table_key() for b in res.all_blocks())
        if got != want:
            return "recovered blocks differ from the blocks the germ was built from"
        return None

    return Op("+".join("%d,%d" % s for s in shapes), run, check)


def build_germ(seed):
    ctx = session()
    rng = Dealer(seed)
    ops = [_germ_op(ctx, rng, [s]) for _ in range(8) for s in GERM_SHAPES]
    ops += [_germ_op(ctx, rng, list(pair)) for _ in range(8) for pair in GERM_PAIRS]
    return ops


BUILDERS = {
    "oracle": build_oracle,
    "transform": build_transform,
    "spectral": build_spectral,
    "germ": build_germ,
}

WORKLOADS = tuple(BUILDERS)
