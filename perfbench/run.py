"""nahmkit benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {oracle,transform,spectral,germ,all}
                             --seed N --seconds S --trace {0,1}

Each workload runs in its own single-threaded worker process (worker.py);
`all` runs the four in a fixed order.  With --trace 0 the run reports the
end-to-end metrics: set-up time is the median over SETUP_SAMPLES fresh
worker processes, half of them started before and half after the timed
worker, and the timed worker runs whole passes over the seeded operation
list for about S seconds.  With --trace 1 one worker runs one
untraced and one traced pass and reports the per-layer metrics; its spans
go to .perfbench/trace/ in the checkout.

Every output is checked against values computed apart from the program.
The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 when every worker ran to its end, whatever the checks
said; it is 1, with no result line, when a worker could not run.
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
WORKER = os.path.join(HERE, "worker.py")
TRACE_DIR = os.path.join(ROOT, ".perfbench", "trace")

WORKLOADS = ("oracle", "transform", "spectral", "germ")
SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 170


class WorkerFailed(Exception):
    pass


def run_worker(workload, seed, mode, seconds=0, trace_out=None):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    # a fixed hash seed makes set and dict orders, and so the traced
    # counts, repeat from process to process
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} {mode} worker timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} {mode} worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{workload} {mode} worker printed no result")
    return json.loads(lines[-1])


def end_to_end(workload, seed, seconds):
    # the set-up samples are taken on both sides of the timed phase, so
    # that a short slow spell of the machine meets only some of them
    before = (SETUP_SAMPLES - 1) // 2
    setups = [run_worker(workload, seed, "setup") for _ in range(before)]
    timed = run_worker(workload, seed, "timed", seconds)
    setups += [run_worker(workload, seed, "setup")
               for _ in range(SETUP_SAMPLES - 1 - before)]
    times = timed["times"]
    completed = len(times)
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    metrics = {
        "setup_s": (statistics.median([s["setup_s"] for s in setups + [timed]]), "s"),
        "ops_per_s": (completed / timed["busy_s"], "1/s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "op_p90_ms": (1e3 * deciles[8], "ms"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }
    info = (f"{timed['passes']} passes, {completed} operations timed, "
            f"{timed['wall_s']:.1f} s")
    return setups + [timed], timed, metrics, info


def traced(workload, seed):
    out = run_worker(workload, seed, "traced",
                     trace_out=os.path.join(TRACE_DIR, f"{workload}-seed{seed}"))
    metrics = {k: tuple(v) for k, v in out["layers"].items()}
    return [out], out, metrics, f"spans in {TRACE_DIR}"


def run_one(workload, seed, seconds, trace):
    if trace:
        workers, main_out, metrics, info = traced(workload, seed)
    else:
        workers, main_out, metrics, info = end_to_end(workload, seed, seconds)
    wrong = sum(w["wrong"] for w in workers)
    errors = [e for w in workers for e in w["errors"]]
    unexpected = [e for w in workers for e in w["unexpected"]]
    print(f"[{workload}] seed {seed}: {info}; attempted {main_out['attempted']}, "
          f"failed {main_out['failed']}, wrong {wrong}")
    for name, (value, unit) in metrics.items():
        print(f"[{workload}]   {name} = {value:.6g} {unit}")
    for e in errors:
        print(f"[{workload}]   CHECK FAILED {e}", file=sys.stderr)
    for e in unexpected:
        print(f"[{workload}]   UNEXPECTED FAILURE {e}", file=sys.stderr)
    return {"correct": wrong == 0, "attempted": main_out["attempted"],
            "failed": main_out["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_one(w, args.seed, args.seconds, args.trace) for w in names}
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        res = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
