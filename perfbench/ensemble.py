"""ensemble-batch: B independent small grids per kernel through ``run_many``.

A closed loop with one caller.  The plan layers run through the stacked
batch path: small grids, one shared spectrum, one plan per kernel, so
batch assembly and thread sharding over the grid axis dominate and
single-grid geometry barely matters.  The two ensembles alternate call
by call, so a noisy stretch of the host hits both alike.
"""

from __future__ import annotations

import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro import FlashFFTStencil, kernel_by_name
from repro.core.reference import run_stencil
from repro.errors import ReproError

from . import cases as C
from .harness import (
    ClosedLoop,
    Outcome,
    median,
    median_time,
    peak_rss_mb,
    plan_config,
    pool_counts,
    timed,
)

#: Every ensemble gets at least this many timed calls per process.
MIN_CALLS = 3
#: The per-grid ``plan.run`` loop behind ``batch.vs_loop`` is timed this
#: many times (it costs about as much as one ``run_many``).
LOOP_REPEATS = 3


def measure(seed: int, seconds: float, tracer, quick: bool, scratch: Path,
            child: int) -> dict:
    """One child process's share of a run: raw samples, per ensemble."""
    batch, cases = C.ensemble_cases(quick)
    kernels = {c.name: kernel_by_name(c.kernel) for c in cases}
    stacks = {
        c.name: np.stack([C.grid(seed, c.shape, c.index, b) for b in range(batch)])
        for c in cases
    }
    part = {"attempted": 0, "failed": 0, "errors": [], "cases": {},
            "plans": {}, "layers": {}}

    # --- cold set-up: build + first run_many -------------------------
    plans = {}
    t0 = time.perf_counter()
    for c in cases:
        with tracer.span(f"setup {c.name}"):
            plans[c.name] = FlashFFTStencil(
                c.shape, kernels[c.name], fused_steps=c.fused_steps,
                boundary=c.boundary,
            )
            plans[c.name].run_many(stacks[c.name], c.steps)
        part["plans"][c.name] = plan_config(plans[c.name])
        part["cases"][c.name] = {"walls": [], "cpus": [], "traced": []}
    part["setup_s"] = time.perf_counter() - t0

    # --- timed closed loop: alternate the ensembles until the deadline --
    last = {}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_CALLS or time.perf_counter() < deadline:
        traced = tracer.enabled and rounds % 2 == 0
        for c in cases:
            part["attempted"] += 1
            span = tracer.span(f"run_many {c.name}") if traced else nullcontext()
            try:
                with span:
                    out, w, cpu = timed(plans[c.name].run_many,
                                        stacks[c.name], c.steps)
            except ReproError as e:
                part["failed"] += 1
                print(f"ensemble-batch {c.name}: call failed: {e!r}",
                      file=sys.stderr)
                continue
            rec = part["cases"][c.name]
            rec["walls"].append(w)
            rec["cpus"].append(cpu)
            rec["traced"].append(traced)
            last[c.name] = out
        rounds += 1

    # --- correctness: bit-identical to per-grid plan.run, which agrees
    # with the direct stencil ------------------------------------------
    for c in cases:
        plan, stack = plans[c.name], stacks[c.name]
        loop_s = []
        for _ in range(LOOP_REPEATS if tracer.enabled and child == 0 else 1):
            with tracer.span(f"plan.run x{batch} {c.name}"):
                t0 = time.perf_counter()
                expect = np.stack([plan.run(g, c.steps) for g in stack])
                loop_s.append(time.perf_counter() - t0)
        if c.name not in last:
            part["errors"].append(f"ensemble-batch {c.name}: every call failed")
            continue
        if not np.array_equal(last[c.name], expect):
            part["errors"].append(
                f"ensemble-batch {c.name}: run_many is not bit-identical "
                "to per-grid plan.run")
        ref = run_stencil(stack[0], kernels[c.name], c.steps, c.boundary)
        err = float(np.max(np.abs(expect[0] - ref))) / max(
            1.0, float(np.max(np.abs(ref))))
        if not err <= 1e-10:
            part["errors"].append(
                f"ensemble-batch {c.name}: plan.run differs from "
                f"reference.run_stencil by {err:.3e} (limit 1e-10)")
        if tracer.enabled and child == 0:
            seg = plan.segments
            with tracer.span(f"HaloExchangePlan.refresh {c.name}"):
                fused = seg.fuse(np.concatenate([seg.split(g) for g in stack]),
                                 backend=plan.backend)
                ex = seg.exchange_plan()
                part["layers"][c.name] = {
                    "loop_s": median(loop_s),
                    "refresh_s": median_time(
                        ex.refresh, prepare=lambda: (fused.copy(),)),
                }
    part["rss_mb"] = peak_rss_mb()
    return part


def summarize(parts: list, quick: bool, traced: bool) -> Outcome:
    """Pool the children's samples into the workload's metrics."""
    res = Outcome()
    pool_counts(parts, res)
    batch, cases = C.ensemble_cases(quick)
    calls = ClosedLoop(parts)
    if not calls.complete:
        return res  # the errors already say which ensemble never ran
    res.e2e = calls.e2e(parts, res, sum(batch * c.work for c in cases))
    res.info = {
        "batch": batch,
        "calls_per_ensemble": {n: len(w) for n, w in calls.walls.items()},
        "plans": parts[0]["plans"],
        "cases": [{"case": c.name, "shape": list(c.shape), "T": c.fused_steps,
                   "steps": c.steps} for c in cases],
    }
    if not traced:
        return res
    med_wall = calls.median_wall()
    layer = parts[0]["layers"]
    res.layers = {
        "batch.run_many_ms": 1e3 * float(np.mean(list(med_wall.values()))),
        "batch.vs_loop": sum(layer[n]["loop_s"] for n in layer)
        / sum(med_wall.values()),
        "batch.refresh_ms": 1e3 * float(np.mean(
            [layer[n]["refresh_s"] for n in layer])),
        "batch.per_grid_step_us": 1e6 * float(np.mean(
            [med_wall[c.name] / (batch * c.steps) for c in cases])),
        "observability.trace_overhead": calls.trace_overhead(),
    }
    return res
