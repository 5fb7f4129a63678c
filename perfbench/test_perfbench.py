"""Tests of the benchmark itself, on a few operations of each workload.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402

SEED = 7


def tiny(workload):
    """A few cheap operations of a workload, with its failing ones."""
    ops = workloads.BUILDERS[workload](SEED)
    if workload == "oracle":
        return [op for op in ops if op.label in ("1,1", "1,0n", "1,2+1,3")][:3]
    if workload == "transform":
        return [op for op in ops if op.label in (
            "tame-rank1", "tame-rank1-degenerate", "line-bundle", "suite-0", "suite-1")]
    if workload == "spectral":
        return ops[:3] + [op for op in ops if op.known_fault]
    return ops[:3] + [op for op in ops if op.label == "1,0+1,1"][:1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_runs_and_checks_pass(workload):
    run = Runner(tiny(workload))
    run.one_pass()
    assert run.errors == [] and run.unexpected == []
    assert run.wrong == 0
    # only the operations of a known fault may fail, and a fix of the
    # fault turns them into completed, checked operations
    assert run.failed <= sum(1 for op in run.ops if op.known_fault)
    assert run.attempted == len(run.ops) >= 3


def test_same_seed_same_inputs():
    a = [op.label for op in workloads.build_spectral(3)]
    b = [op.label for op in workloads.build_spectral(3)]
    assert a == b
    ta = [op.run() for op in tiny("germ")]
    tb = [op.run() for op in tiny("germ")]
    assert [[x.table_key() for x in r.all_blocks()] for r in ta] == \
           [[x.table_key() for x in r.all_blocks()] for r in tb]


def test_wrong_oracle_expectation_fails(monkeypatch):
    block = workloads._block
    monkeypatch.setattr(workloads, "_block",
                        lambda *a, **k: (lambda b, i: (b, i + 1))(*block(*a, **k)))
    op = tiny("oracle")[0]
    assert "closed form" in op.check(op.run())


def test_wrong_transform_expectation_fails():
    ex = workloads.generate_examples("pushforward-2-1")
    op = workloads._transform_op("x", workloads.schema.dumps(ex), True)
    assert "want 1" in op.check(op.run())


def test_wrong_spectral_expectation_fails():
    ctx = workloads.session()
    one, two = ctx.rational(1), ctx.rational(2)
    m = [[one, one], [ctx.zero, two]]
    nu = workloads.lattice_vector(ctx, 1, 2)
    right = workloads._spectral_op(ctx, "x", m, [(0, 0, 1), (0, 0, 2)], nu)
    wrong = workloads._spectral_op(ctx, "x", m, [(0, 0, 1), (0, 0, 3)], nu)
    assert right.check(right.run()) is None
    assert "constructed" in wrong.check(wrong.run())


def test_wrong_germ_result_fails():
    op = tiny("germ")[-1]
    res = op.run()
    assert op.check(res) is None
    res.groups.pop()
    assert "differ" in op.check(res)


def traced_counts():
    tracer = spans.Tracer().install(extra_modules=[workloads])
    try:
        run = Runner([op for w in workloads.WORKLOADS for op in tiny(w)])
        run.one_pass(call=tracer.run_op)
    finally:
        tracer.uninstall()
    assert run.wrong == 0
    return {k: v for k, (v, unit) in tracer.layer_metrics().items() if unit != "ms"}


def test_traced_counts_repeat_and_tracing_uninstalls():
    first, second = traced_counts(), traced_counts()
    assert first == second
    assert first["oracle.kernel_basis_per_part"] > 0
    assert first["field.p_gcd_calls"] > 0 and first["localnahm.complex_builds"] > 0
    from nahmkit import lmatrix, oracle
    assert oracle.kernel_basis is lmatrix.kernel_basis
    assert not hasattr(lmatrix.kernel_basis, "__wrapped__")


def test_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "transform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 100
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert set(res["metrics"]) == names
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "germ", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
