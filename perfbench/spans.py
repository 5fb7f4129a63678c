"""Tracing from outside the program: wrappers around nahmkit's public
functions that record spans and counts, and the per-layer metrics made from
them.

A wrapper replaces the module attribute and every other binding of the same
function object in nahmkit's modules (and in the modules passed to
`install`), so calls through a name bound with `from .x import y` are seen
too.  Each call made while the tracer is active records a span (name, start,
end, parent) in flat arrays; the arrays are written out when the run ends.
Wrappers marked count-only record a count and no span: they sit on the
innermost field routines, where a span would cost as much as the call.

Times are milliseconds.  `<layer>.<function>_ms` is the inclusive time of
the outermost calls of that function group (a nested call of the same
group is not counted twice); `<layer>.self_ms` is the time spans of that
layer spend outside their child spans.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import time
from array import array

# (metric group, module, qualified name, kind); kind is "span" or "count"
TARGETS = [
    ("field.scalar_arith", "field", "Scalar.__add__", "span"),
    ("field.scalar_arith", "field", "Scalar.__radd__", "span"),
    ("field.scalar_arith", "field", "Scalar.__sub__", "span"),
    ("field.scalar_arith", "field", "Scalar.__rsub__", "span"),
    ("field.scalar_arith", "field", "Scalar.__mul__", "span"),
    ("field.scalar_arith", "field", "Scalar.__rmul__", "span"),
    ("field.scalar_arith", "field", "Scalar.__truediv__", "span"),
    ("field.scalar_arith", "field", "Scalar.__rtruediv__", "span"),
    ("field.scalar_arith", "field", "Scalar.__neg__", "span"),
    ("field.scalar_arith", "field", "Scalar.__pow__", "span"),
    ("field.scalar_arith", "field", "Scalar.inverse", "span"),
    ("field.scalars_built", "field", "Scalar.__init__", "count"),
    ("field.cyc_mul", "field", "CyclotomicField.mul", "count"),
    ("field.p_gcd", "field", "p_gcd", "span"),
    ("series.mul", "series", "TruncatedLaurent.__mul__", "span"),
    ("series.invert", "series", "TruncatedLaurent.invert", "span"),
    ("series.add", "series", "TruncatedLaurent.__add__", "span"),
    ("series.add", "series", "TruncatedLaurent.__sub__", "span"),
    ("lmatrix.kernel_basis", "lmatrix", "kernel_basis", "span"),
    ("lmatrix.snf", "lmatrix", "smith_normal_form", "span"),
    ("lmatrix.determinant", "lmatrix", "determinant", "span"),
    ("lmatrix.charpoly", "lmatrix", "charpoly", "span"),
    ("lmatrix.newton_polygon", "lmatrix", "newton_polygon", "span"),
    ("linalg.charpoly", "linalg", "charpoly", "span"),
    ("linalg.rref", "linalg", "rref", "span"),
    ("linalg.roots", "linalg", "scalar_poly_roots", "span"),
    ("linalg.root_trial", "linalg", "poly_eval", "count"),
    ("higgs.realize", "higgs", "realize", "span"),
    ("higgs.slope_decomposition", "higgs", "slope_decomposition", "span"),
    ("higgs.hensel_split", "higgs", "hensel_split", "span"),
    ("higgs.goodness", "higgs", "goodness_decomposition", "span"),
    ("localnahm.complex", "localnahm", "build_local_complex", "span"),
    ("localnahm.transform", "localnahm", "local_nahm_0_inf", "span"),
    ("localnahm.transform", "localnahm", "local_nahm_inf_0", "span"),
    ("oracle.model", "oracle", "build_truncation_model", "span"),
    ("oracle.cokernel", "oracle", "truncated_cokernel", "span"),
    ("oracle.crosscheck", "oracle", "degree_crosscheck", "span"),
    ("elliptic.condition", "elliptic", "a0_check", "span"),
    ("elliptic.condition", "elliptic", "a1a2_check", "span"),
    ("elliptic.condition", "elliptic", "a3_check", "span"),
    ("elliptic.condition", "elliptic", "good_check", "span"),
    ("transform.forward", "transform", "nahm_forward", "span"),
    ("transform.backward", "transform", "nahm_backward", "span"),
    ("transform.roundtrip", "transform", "roundtrip_report", "span"),
    ("schema.loads", "schema", "loads", "span"),
    ("schema.dumps", "schema", "dumps", "span"),
    ("schema.dumps", "schema", "document_to_json", "span"),
    ("cli.run", "cli", "cli_run", "span"),
    ("torus.g_equiv", "torus", "g_equiv", "span"),
    ("torus.shift", "torus", "EndoPair.shift", "span"),
] + [("filtered.calls", "filtered", f, "count") for f in (
    "normalize_weight", "grading", "degree_contribution", "jump_count",
    "dual_filtered", "tensor_filtered", "pullback_covering",
    "pushforward_covering", "descent", "lattice_morphism_ok",
    "frames_equivalent")]

OP_GROUP = "bench.op"


class Tracer:
    """Span recorder.  Spans are kept in flat arrays indexed by span id."""

    def __init__(self):
        self.groups = []  # group name per name id
        self.gid = []  # group id per name id
        self.names = []  # "module.qualname" per name id
        self.layer = []  # layer (module) per name id
        self.name_ids = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")  # 1 if no ancestor has the same group
        self.counts = {}
        self.stack = []
        self.depth = []  # open spans per group id
        self.group_ids = {}
        self.active = False
        self._undo = []

    # -- names --

    def _name_id(self, group, layer, name):
        if name not in self.name_ids:
            if group not in self.group_ids:
                self.group_ids[group] = len(self.depth)
                self.depth.append(0)
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
            self.gid.append(self.group_ids[group])
            self.layer.append(layer)
        return self.name_ids[name]

    # -- recording --

    def span(self, nid):
        """Open a span; returns its id (pass it to close)."""
        g = self.gid[nid]
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_outer.append(self.depth[g] == 0)
        self.depth[g] += 1
        self.stack.append(idx)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()
        self.depth[self.gid[self.span_name[idx]]] -= 1

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _span_wrapper(self, fn, nid, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --

    def install(self, extra_modules=()):
        """Wrap every target; returns self.  `uninstall` restores."""
        pkg = sys.modules["nahmkit"]
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "nahmkit" or n.startswith("nahmkit.")) and m is not None]
        mods += list(extra_modules)
        self._name_id(OP_GROUP, "bench", OP_GROUP)
        for group, modname, qual, kind in TARGETS:
            module = getattr(pkg, modname)
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            fn = owner.__dict__[attr]
            name = f"{modname}.{qual}"
            if kind == "span":
                nid = self._name_id(group, modname, name)
                wrapper = self._span_wrapper(fn, nid, HOOKS.get(name))
            else:
                wrapper = self._count_wrapper(fn, group)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            if not owner_name:
                # rebind every `from .x import y` copy of a module function
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is fn and m is not owner:
                            self._undo.append((m, key, fn))
                            setattr(m, key, wrapper)
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def run_op(self, fn):
        """Run one benchmark operation as the root span of its calls."""
        idx = self.span(self.name_ids[OP_GROUP])
        self.active = True
        try:
            return fn()
        finally:
            self.active = False
            self.close(idx)

    # -- results --

    def write(self, path_stem):
        """Write the spans as fixed-size records plus a JSON header."""
        os.makedirs(os.path.dirname(path_stem) or ".", exist_ok=True)
        rec = struct.Struct("<Hqdd")
        with open(path_stem + ".spans", "wb") as fh:
            for i in range(len(self.span_name)):
                fh.write(rec.pack(self.span_name[i], self.span_parent[i],
                                  self.span_start[i], self.span_end[i]))
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"record": "<Hqdd: name id, parent span (-1 at the root), "
                                 "start s, end s",
                       "names": self.names, "counts": self.counts,
                       "spans": len(self.span_name)}, fh, indent=1)

    def layer_metrics(self):
        """The per-layer metrics of everything recorded so far."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, incl, self_by_layer = {}, {}, {}
        for i in range(n):
            nid = self.span_name[i]
            group = self.groups[nid]
            calls[group] = calls.get(group, 0) + 1
            if self.span_outer[i]:
                incl[group] = incl.get(group, 0.0) + dur[i]
            layer = self.layer[nid]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + dur[i] - child[i]

        def c(group):
            return calls.get(group, 0) + self.counts.get(group, 0)

        def ms(*groups):
            return 1e3 * sum(incl.get(g, 0.0) for g in groups)

        # kernel_basis calls made on behalf of the oracle, per complex part
        kb_oracle = 0
        kb_id = self.name_ids["lmatrix.kernel_basis"]
        oracle_ids = {self.name_ids[k] for k in self.name_ids if k.startswith("oracle.")}
        for i in range(n):
            if self.span_name[i] == kb_id:
                p = self.span_parent[i]
                while p >= 0 and self.span_name[p] not in oracle_ids:
                    p = self.span_parent[p]
                kb_oracle += p >= 0
        parts = self.counts.get("oracle.parts", 0)
        trials = c("linalg.root_trial")
        return {
            "field.scalar_arith_calls": (c("field.scalar_arith"), "count"),
            "field.scalar_arith_ms": (ms("field.scalar_arith"), "ms"),
            "field.scalars_built": (c("field.scalars_built"), "count"),
            "field.cyc_mul_calls": (c("field.cyc_mul"), "count"),
            "field.p_gcd_calls": (c("field.p_gcd"), "count"),
            "field.p_gcd_ms": (ms("field.p_gcd"), "ms"),
            "series.mul_calls": (c("series.mul"), "count"),
            "series.invert_calls": (c("series.invert"), "count"),
            "series.ms": (ms("series.mul", "series.invert", "series.add"), "ms"),
            "lmatrix.kernel_basis_calls": (c("lmatrix.kernel_basis"), "count"),
            "lmatrix.kernel_basis_ms": (ms("lmatrix.kernel_basis"), "ms"),
            "lmatrix.snf_ms": (ms("lmatrix.snf"), "ms"),
            "lmatrix.determinant_ms": (ms("lmatrix.determinant"), "ms"),
            "lmatrix.charpoly_ms": (ms("lmatrix.charpoly"), "ms"),
            "lmatrix.newton_polygon_calls": (c("lmatrix.newton_polygon"), "count"),
            "linalg.charpoly_ms": (ms("linalg.charpoly"), "ms"),
            "linalg.rref_ms": (ms("linalg.rref"), "ms"),
            "linalg.root_trials": (trials, "count"),
            "linalg.roots_per_trial": (
                self.counts.get("linalg.roots_found", 0) / trials if trials else 0.0,
                "ratio"),
            "oracle.models_built": (c("oracle.model"), "count"),
            "oracle.model_entries": (self.counts.get("oracle.model_entries", 0), "count"),
            "oracle.model_build_ms": (ms("oracle.model"), "ms"),
            "oracle.cokernel_ms": (ms("oracle.cokernel"), "ms"),
            "oracle.crosscheck_ms": (ms("oracle.crosscheck"), "ms"),
            "oracle.kernel_basis_per_part": (kb_oracle / parts if parts else 0.0, "ratio"),
            "higgs.realize_calls": (c("higgs.realize"), "count"),
            "higgs.realize_ms": (ms("higgs.realize"), "ms"),
            "higgs.slope_decomposition_ms": (ms("higgs.slope_decomposition"), "ms"),
            "higgs.hensel_split_calls": (c("higgs.hensel_split"), "count"),
            "higgs.goodness_ms": (ms("higgs.goodness"), "ms"),
            "localnahm.complex_builds": (c("localnahm.complex"), "count"),
            "localnahm.ms": (ms("localnahm.complex", "localnahm.transform"), "ms"),
            "elliptic.condition_ms": (ms("elliptic.condition"), "ms"),
            "transform.forward_ms": (ms("transform.forward"), "ms"),
            "transform.backward_ms": (ms("transform.backward"), "ms"),
            "transform.roundtrip_ms": (ms("transform.roundtrip"), "ms"),
            "filtered.calls": (c("filtered.calls"), "count"),
            "schema.loads_ms": (ms("schema.loads"), "ms"),
            "schema.dumps_ms": (ms("schema.dumps"), "ms"),
            "cli.self_ms": (1e3 * self_by_layer.get("cli", 0.0), "ms"),
            "torus.g_equiv_ms": (ms("torus.g_equiv"), "ms"),
            "torus.self_ms": (1e3 * self_by_layer.get("torus", 0.0), "ms"),
        }


def _model_hook(tracer, args, model):
    tracer.count("oracle.model_entries", sum(len(row) for row in model.matrix))


def _cokernel_hook(tracer, args, result):
    tracer.count("oracle.parts", len(args[0].parts))


def _roots_hook(tracer, args, roots):
    tracer.count("linalg.roots_found", sum(mult for _, mult in roots))


HOOKS = {
    "oracle.build_truncation_model": _model_hook,
    "oracle.truncated_cokernel": _cokernel_hook,
    "linalg.scalar_poly_roots": _roots_hook,
}
