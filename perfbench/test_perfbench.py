"""Tests of the benchmark itself (not of the library).

Run from the repository root with ``python3 -m pytest perfbench -q``.
The end-to-end tests drive every workload in quick mode through the
same command the benchmark is run with.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import cases as C
from perfbench.harness import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _clean_env() -> dict:
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def _run(args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env if env is not None else _clean_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def _results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_mode_prints_every_declared_metric(trace):
    proc = _run(["--workload", "all", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--quick"])
    assert proc.returncode == 0, proc.stderr
    results = _results(proc.stdout)
    assert len(results) == len(WORKLOADS)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for res in results:
        assert res["correct"] is True
        assert res["attempted"] >= 1 and res["failed"] == 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == units
        if not trace:
            assert all(v["value"] > 0 for v in res["metrics"].values())
    if trace:
        zoo = results[WORKLOADS.index("zoo-solve")]["metrics"]
        assert 0 < zoo["plan.vs_direct.heat-3d"]["value"]
        trace_file = ROOT / ".perfbench" / "trace-serve-open-seed3.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        rids = {e["args"]["rid"] for e in events if "rid" in e["args"]}
        assert rids and {e["ph"] for e in events} == {"X"}


def test_workload_names_match_spec():
    from perfbench.run import WORKLOADS as run_workloads

    assert tuple(WORKLOADS) == run_workloads


def test_seed_changes_grids_not_shapes_or_steps():
    assert C.zoo_cases() == C.zoo_cases()
    assert C.ensemble_cases() == C.ensemble_cases()
    for case in C.zoo_cases(quick=True):
        a = C.grid(1, case.shape, case.index)
        b = C.grid(2, case.shape, case.index)
        assert a.shape == b.shape == case.shape
        assert not np.array_equal(a, b)
        assert np.array_equal(a, C.grid(1, case.shape, case.index))
    spec = C.serve_spec()
    one = C.arrivals(1, spec.rate, 2.0, 0)
    two = C.arrivals(2, spec.rate, 2.0, 0)
    assert len(one) == len(two) and not np.array_equal(one, two)
    assert C.serve_mix(spec, 50) == C.serve_mix(spec, 50)


def test_zoo_cases_leave_a_remainder_tail():
    for case in C.zoo_cases() + C.ensemble_cases()[1]:
        assert case.steps % case.fused_steps != 0


def test_refuses_repro_variables():
    env = _clean_env()
    env["REPRO_WORKERS"] = "1"
    proc = _run(["--workload", "zoo-solve", "--seed", "0", "--seconds", "1",
                 "--quick"], env=env)
    assert proc.returncode != 0
    assert "REPRO_WORKERS" in proc.stderr
    assert not _results(proc.stdout)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "zoo-solve", "--seed", "0", "--seconds", "1"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not _results(proc.stdout)


def test_tracer_nests_spans_and_emits_chrome_events():
    tracer = Tracer(enabled=True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        req = tracer.record("request", 1.0, 2.0, rid=7)
    events = tracer.events(pid=3)
    names = [e["name"] for e in events]
    assert names == ["outer", "inner", "request"]
    assert events[1]["args"]["parent"] == 0
    assert events[2]["args"] == {"id": req, "parent": 0, "rid": 7}
    assert all(e["pid"] == 3 and e["dur"] >= 0 for e in events)
    off = Tracer(enabled=False)
    with off.span("x"):
        pass
    assert off.record("y", 0.0, 1.0) == -1 and not off.events(pid=1)
