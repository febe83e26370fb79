"""Self-test of the benchmark, on tiny inputs.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's own test run, which collects
``test_*.py`` from the root; pytest collects a file named on its command
line whatever its name.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir():
    scratch = os.path.join(run.ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(scratch)
    except OSError:
        pass  # another run is still using it


@pytest.fixture(scope="module", params=run.WORKLOADS)
def traced(request):
    """One tiny traced run per workload: it yields both metric sets."""
    args = argparse.Namespace(seed=3, seconds=0.0, trace=1, size="tiny")
    return run.run_workload(request.param, args, time.perf_counter() + 150)


def test_every_metric_is_emitted_with_its_unit(traced):
    assert traced["correct"]
    for trace, names in ((0, run.END_TO_END), (1, tracing.PER_LAYER)):
        out = run.result_json(traced, trace)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["attempted"] >= 1
        assert set(out["metrics"]) == set(names)
        for name, metric in out["metrics"].items():
            assert metric["unit"] == names[name][0]
            assert math.isfinite(metric["value"]), name
        json.dumps(out, allow_nan=False)


def test_benchmark_json_matches_the_emitted_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == names


def _corrupt_one_distance(path, value):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    row = next(r for r in rows[1:] if r[0] != r[1])
    row[2] = value(float(row[2]))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("corrupt", [lambda d: repr(d * (1 + 1e-3) + 1e-3),
                                     lambda d: "nan"])
def test_fail_frac_counts_a_corrupted_served_distance(workdir, corrupt):
    inp, stage_list = workloads.stages("iono-linear", run.ROOT, workdir, workloads.TINY, 1)
    env, deadline = run.child_env(), time.perf_counter() + 120
    with open(os.path.join(workdir, "log"), "wb") as log:
        rep = {stage: run.spawn([sys.executable, run.STAGE, *argv], env, log, deadline)
               for stage, argv in stage_list}
        assert all(r.code == 0 for r in rep.values())
        clean = run.run_check(inp, workdir, env, log, deadline)
        _corrupt_one_distance(inp["distances"], corrupt)
        bad = run.run_check(inp, workdir, env, log, deadline)
    assert clean["failed"] == 0
    assert bad["pairs"] == clean["pairs"] and bad["failed"] == 1
    m = {"inputs": inp, "setups": [rep["train"]], "samples": {s: [r] for s, r in rep.items()},
         "check": bad, "traces": {}}
    res = run.evaluate("iono-linear", m)
    assert res["failed"] == 1
    assert any(line.split()[:2] == ["fail_frac", f"{1 / res['attempted']:.6g}"]
               for line in res["lines"])


def test_refuses_to_run_without_the_sources(workdir):
    os.makedirs(os.path.join(workdir, "bench"))
    for name in os.listdir(os.path.dirname(run.STAGE)):
        if name.endswith(".py") or name.endswith(".md"):
            shutil.copy(os.path.join(os.path.dirname(run.STAGE), name),
                        os.path.join(workdir, "bench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), workdir)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "iono-linear",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=workdir, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
