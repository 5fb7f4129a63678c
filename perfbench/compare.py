"""Compare two result sets written by sweep.py.

    python3 perfbench/compare.py BASE.json CHANGE.json

For each workload and end-to-end metric it prints the median and quartiles
of each side and a verdict against the metric's bound in BENCHMARK.json:

  better      the change's median is better than the base's by more than
              the base's own spread (the distance between its quartiles),
              and the change wins at least nine in ten of the runs paired
              by workload and seed;
  worse       the change's median is worse than the base's by more than
              the bound;
  unresolved  the spread of either side is wider than the bound, unless
              every run of the change reads better than every run of the
              base;
  same        none of the above.

Per-layer metrics (traced sets) are printed as medians with their ratio,
without a verdict.  It also prints the share of failed operations of each
side.  The two sets must have been made with the same run length and the
same --trace.  A workload or metric missing from either side is reported
as missing.  The exit code is 1 when any metric is worse or missing, else
0.
"""

from __future__ import annotations

import argparse
import json
import sys

from sweep import by_workload, load_benchmark, summary


def verdict(base, change, bound, higher_better, pairs):
    """base and change are lists of values; pairs holds (base, change)
    values of runs with the same seed."""
    b_med, b_q1, b_q3, b_spread = summary(base)
    c_med, _, _, c_spread = summary(change)
    sign = 1.0 if higher_better else -1.0
    gain = sign * (c_med - b_med) / b_med  # > 0 when the change is better
    all_better = (min(change) > max(base)) if higher_better else (max(change) < min(base))
    if gain < -bound:
        return "worse"
    if max(b_spread, c_spread) > bound and not all_better:
        return "unresolved"
    wins = sum((c > b) if higher_better else (c < b) for b, c in pairs)
    if gain > 0 and abs(c_med - b_med) > (b_q3 - b_q1) and pairs and \
            wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    bench = load_benchmark()
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    raw = []
    for path in (args.base, args.change):
        with open(path, encoding="utf-8") as fh:
            raw.append(json.load(fh))
    kinds = [(r["seconds"], r["trace"]) for r in raw]
    if kinds[0] != kinds[1]:
        ap.error(f"the sets were made with different (seconds, trace): "
                 f"{kinds[0]} and {kinds[1]}")
    base, change = (by_workload(r) for r in raw)
    worse = incomplete = False
    for wl in list(base) + [w for w in change if w not in base]:
        if wl not in base or wl not in change:
            print(f"{wl}: missing from {args.change if wl in base else args.base}")
            incomplete = True
            continue
        print(wl)
        for side, runs in (("base", base[wl]), ("change", change[wl])):
            att = sum(r["attempted"] for _, r in runs)
            fail = sum(r["failed"] for _, r in runs)
            print(f"  {side:6s} {len(runs)} runs, failed {fail}/{att}")
        names = list(dict.fromkeys(n for _, r in base[wl] + change[wl] for n in r["metrics"]))
        for name in names:
            b, c = ([r["metrics"][name]["value"] for _, r in runs if name in r["metrics"]]
                    for runs in (base[wl], change[wl]))
            missing = [side for side, runs, got in (("base", base[wl], b),
                                                    ("change", change[wl], c))
                       if len(got) < len(runs)]
            if missing:
                print(f"  {name:32s} missing from runs of {' and '.join(missing)}")
                incomplete = True
                continue
            c_by_seed = {seed: r["metrics"][name]["value"] for seed, r in change[wl]}
            pairs = [(r["metrics"][name]["value"], c_by_seed[seed])
                     for seed, r in base[wl] if seed in c_by_seed]
            bm, bq1, bq3, _ = summary(b)
            cm, cq1, cq3, _ = summary(c)
            m = spec.get(name, {})
            line = (f"  {name:32s} base {bm:11.5g} [{bq1:.5g} .. {bq3:.5g}]"
                    f"  change {cm:11.5g} [{cq1:.5g} .. {cq3:.5g}]")
            if "bound" in m:
                v = verdict(b, c, m["bound"], m["better"] == "higher", pairs)
                worse |= v == "worse"
                line += f"  {v} (bound {m['bound']})"
            elif bm:
                line += f"  ratio {cm / bm:.3f}"
            print(line)
    return 1 if worse or incomplete else 0


if __name__ == "__main__":
    sys.exit(main())
