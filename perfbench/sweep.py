"""Run the benchmark over several seeds and save the results as one set.

    python3 perfbench/sweep.py --seeds 1-10 [--trace 0|1] [--append] \
        --out .perfbench/results/NAME.json

Runs run.py once per (workload, seed), one after the other, on every
workload of BENCHMARK.json and for its `run_seconds`, and writes every
result line to the result set.  With --append it adds them to an existing
set, so that two checkouts can be measured seed by seed in turn.  It then
prints, for each workload and end-to-end metric, the median, the quartiles
and the spread (the distance between the quartiles as a share of the
median) next to the metric's bound in BENCHMARK.json, and the share of
failed operations.  A spread below a third of the bound reads `ok`, one
above the bound `WIDE`, and one in between `near`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values):
    """(median, first quartile, third quartile, spread) of a list."""
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def by_workload(result_set):
    """{workload: [(seed, result), ...]}"""
    out = {}
    for run in result_set["runs"]:
        out.setdefault(run["workload"], []).append((run["seed"], run["result"]))
    return out


def report(result_set, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for wl, runs in by_workload(result_set).items():
        results = [r for _, r in runs]
        att = sum(r["attempted"] for r in results)
        fail = sum(r["failed"] for r in results)
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        print(f"{wl}: {len(results)} runs, correct {all(r['correct'] for r in results)}, "
              f"failed {fail}/{att} (per run: {', '.join(shares)})")
        names = results[0]["metrics"].keys()
        for name in names:
            vals = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, spread = summary(vals)
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "near")
            print(f"  {name:32s} median {med:12.5g}  quartiles {q1:10.5g} .. {q3:10.5g}"
                  f"  spread {spread:6.3f}" + (f"  bound {bound} {mark}" if bound else ""))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--append", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    result_set = {"seconds": seconds, "trace": args.trace, "runs": []}
    if args.append and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            old = json.load(fh)
        if (old["seconds"], old["trace"]) != (seconds, args.trace):
            ap.error(f"{args.out} was made with another run length or --trace")
        result_set["runs"] = old["runs"]
    for wl in (w["name"] for w in bench["workloads"]):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result_set["runs"].append({"workload": wl, "seed": seed, "result": result})
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in list(result["metrics"].items())[:6]),
                flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result_set, fh, indent=1)
    report(result_set, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
