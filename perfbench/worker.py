"""One workload in one single-threaded process; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                [--seconds S] [--trace-out STEM]

Modes:
  setup   import, build the inputs from the seed and run one untimed
          warm-up operation, then report the set-up time;
  timed   set up, then run whole passes over the operation list until the
          pass boundary closest to S seconds (at least one pass and 100
          completed operations), timing every operation;
  traced  set up, run one untraced pass and one traced pass, report the
          per-layer metrics and write the spans to STEM.spans/STEM.json.

The last line of standard output is one JSON object.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_SAMPLES = 100
MAX_REPORTED_ERRORS = 5


def import_program():
    """Import nahmkit from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import nahmkit
    except ImportError as exc:
        raise SystemExit(f"worker: cannot import nahmkit from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(nahmkit.__file__))) != SRC:
        raise SystemExit(f"worker: nahmkit was imported from {nahmkit.__file__}, "
                         f"not from {SRC}")


class Runner:
    """Runs operations and keeps what the result JSON reports."""

    def __init__(self, ops):
        self.ops = ops
        self.times = []  # seconds, completed operations
        self.busy = 0.0  # seconds, all attempted operations
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # completed operations whose check failed
        self.errors = []
        self.unexpected = []

    def one(self, op, call=None):
        self.attempted += 1
        t = time.perf_counter()
        try:
            result = op.run() if call is None else call(op.run)
        except Exception as exc:  # every failure is counted, not fatal
            self.busy += time.perf_counter() - t
            self.failed += 1
            if not (op.known_fault and isinstance(exc, op.known_fault)):
                if len(self.unexpected) < MAX_REPORTED_ERRORS:
                    self.unexpected.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return
        dt = time.perf_counter() - t
        self.busy += dt
        self.times.append(dt)
        msg = op.check(result)
        if msg is not None:
            self.wrong += 1
            if len(self.errors) < MAX_REPORTED_ERRORS:
                self.errors.append(f"{op.label}: {msg}")

    def one_pass(self, call=None):
        for op in self.ops:
            self.one(op, call)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    import_program()
    import workloads

    ops = workloads.BUILDERS[args.workload](args.seed)
    warm = Runner(ops)
    warm.one(ops[0])
    setup_s = time.perf_counter() - T_START
    out = {"setup_s": setup_s, "wrong": warm.wrong, "errors": warm.errors,
           "unexpected": warm.unexpected}

    if args.mode == "timed":
        run = Runner(ops)
        start = time.perf_counter()
        passes = 0
        while True:
            run.one_pass()
            passes += 1
            elapsed = time.perf_counter() - start
            # stop at the pass boundary closest to the requested length
            if elapsed + elapsed / passes / 2 >= args.seconds and \
                    len(run.times) >= MIN_SAMPLES:
                break
        out.update(
            passes=passes, wall_s=elapsed, busy_s=run.busy, times=run.times,
            attempted=run.attempted, failed=run.failed,
            wrong=out["wrong"] + run.wrong, errors=out["errors"] + run.errors,
            unexpected=out["unexpected"] + run.unexpected,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    elif args.mode == "traced":
        import spans

        plain = Runner(ops)
        plain.one_pass()
        tracer = spans.Tracer().install(extra_modules=[workloads])
        traced = Runner(ops)
        try:
            traced.one_pass(call=tracer.run_op)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        layers["trace.overhead_pct"] = (100.0 * (traced.busy / plain.busy - 1.0), "%")
        if args.trace_out:
            tracer.write(args.trace_out)
        out.update(
            attempted=traced.attempted, failed=traced.failed,
            wrong=out["wrong"] + plain.wrong + traced.wrong,
            errors=out["errors"] + plain.errors + traced.errors,
            unexpected=out["unexpected"] + plain.unexpected + traced.unexpected,
            layers=layers,
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
