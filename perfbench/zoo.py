"""zoo-solve: one caller runs the seven Table-3 kernels x two boundaries.

A closed loop over fresh *default* plans (only shape, kernel, T and
boundary are set), so tile/window geometry, FFT length, the time-stepping
driver and thread sharding do nearly all the work and no serving code
runs.  Cases run in dimension groups, round-robin within a group: a
noisy stretch of the host then hits every case of the group a little
instead of one case a lot, and only one group's plans are held at a
time (holding all fourteen reaches 1.4 GiB).
"""

from __future__ import annotations

import hashlib
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from scipy.fft import next_fast_len

from repro import FlashFFTStencil, kernel_by_name
from repro.core.reference import run_stencil
from repro.core.spectral import apply_fft_stencil
from repro.errors import ReproError

from . import cases as C
from .harness import (
    ClosedLoop,
    Outcome,
    clear_library_caches,
    median,
    median_time,
    peak_rss_mb,
    plan_config,
    pool_counts,
    timed,
)

#: Share of the measured seconds each dimension group gets, roughly in
#: proportion to the cost of one pass over it, so every case collects a
#: similar number of timed calls.
GROUP_SHARE = {1: 0.3, 2: 0.25, 3: 0.45}
#: Every case gets at least this many timed calls per process.
MIN_PASSES = 3
#: Baselines are slow; their per-layer times are medians of this many.
BASELINE_REPEATS = 3


def _check(case, out, ref, what: str, errors: list) -> None:
    """float64 agreement with the direct stencil, scaled to the data."""
    scale = max(1.0, float(np.max(np.abs(ref))))
    err = float(np.max(np.abs(out - ref))) / scale
    if not err <= 1e-10:
        errors.append(f"zoo-solve {case.name}: {what} differs from "
                      f"reference.run_stencil by {err:.3e} (limit 1e-10)")


def _fft_ns_per_point(backend, windows: np.ndarray) -> float:
    axes = tuple(range(1, windows.ndim))
    shape = windows.shape[1:]
    t = median_time(lambda: backend.irfftn(backend.rfftn(windows, axes), shape, axes))
    return t / windows.size * 1e9


def _layers(case, plan, g, ref, tracer, errors) -> dict:
    """Per-layer times of one case, each from calls to a public function."""
    kern, steps, bc = plan.kernel, case.steps, case.boundary
    seg, be = plan.segments, plan.backend
    out = {}
    # run_stencil already ran once for the correctness check: warm.
    with tracer.span("reference.run_stencil"):
        out["reference_s"] = median_time(
            lambda: run_stencil(g, kern, steps, bc), BASELINE_REPEATS,
            warmup=False)
    with tracer.span("spectral.apply_fft_stencil"):
        _check(case, apply_fft_stencil(g, kern, steps, bc), ref,
               "spectral.apply_fft_stencil", errors)
        out["spectral_s"] = median_time(
            lambda: apply_fft_stencil(g, kern, steps, bc), BASELINE_REPEATS,
            warmup=False)
    with tracer.span("SegmentPlan.split"):
        windows = seg.split(g)
        t_split = median_time(lambda: seg.split(g))
    with tracer.span("FFTBackend.rfftn+irfftn"):
        out["fft_ns_pt"] = _fft_ns_per_point(be, windows)
        fast = tuple(next_fast_len(n, real=True) for n in seg.local_shape)
        out["fast_ns_pt"] = _fft_ns_per_point(
            be, np.ones((windows.shape[0],) + fast))
    with tracer.span("SegmentPlan.fuse"):
        fused = seg.fuse(windows, backend=be)
    with tracer.span("SegmentPlan.stitch"):
        t_stitch = median_time(lambda: seg.stitch(fused))
    with tracer.span("HaloExchangePlan.refresh"):
        ex = seg.exchange_plan()
        out["refresh_s"] = median_time(ex.refresh, prepare=lambda: (fused.copy(),))
    # Bytes are computed from array sizes: every value moved is read once
    # and written once; index arrays and cache misses are not counted.
    out["split_gbs"] = 2 * windows.nbytes / t_split / 1e9
    out["stitch_gbs"] = 2 * g.nbytes / t_stitch / 1e9
    return out


def measure(seed: int, seconds: float, tracer, quick: bool, scratch: Path,
            child: int) -> dict:
    """One child process's share of a run: raw samples, per case."""
    cases = C.zoo_cases(quick)
    kernels = {k: kernel_by_name(k) for k in C.ZOO_KERNELS}
    part = {"attempted": 0, "failed": 0, "errors": [], "setup_s": 0.0,
            "cases": {}, "plans": {}, "layers": {}, "digests": {}}
    for ndim in (1, 2, 3):
        group = [c for c in cases if C.kernel_ndim(c.kernel) == ndim]
        grids = {c.index: C.grid(seed, c.shape, c.index) for c in group}
        plans = {}
        # --- cold set-up: build + first application -------------------
        for c in group:
            with tracer.span(f"setup {c.name}"):
                t0 = time.perf_counter()
                plan = FlashFFTStencil(
                    c.shape, kernels[c.kernel], fused_steps=c.fused_steps,
                    boundary=c.boundary,
                )
                t1 = time.perf_counter()
                plan.run(grids[c.index], c.steps)
                t2 = time.perf_counter()
            part["setup_s"] += t2 - t0
            plans[c.index] = plan
            part["plans"][c.name] = plan_config(plan)
            part["cases"][c.name] = {"build_s": t1 - t0, "walls": [],
                                     "cpus": [], "traced": []}

        # --- timed closed loop: round-robin passes until the group's share
        last = {}
        deadline = time.perf_counter() + GROUP_SHARE[ndim] * seconds
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() < deadline:
            # The traced run alternates traced and untraced passes, so the
            # tracing overhead is measured on the same calls.
            traced = tracer.enabled and passes % 2 == 0
            for c in group:
                part["attempted"] += 1
                span = tracer.span(f"plan.run {c.name}") if traced else nullcontext()
                try:
                    with span:
                        out, w, cpu = timed(plans[c.index].run,
                                            grids[c.index], c.steps)
                except ReproError as e:
                    part["failed"] += 1
                    print(f"zoo-solve {c.name}: call failed: {e!r}",
                          file=sys.stderr)
                    continue
                rec = part["cases"][c.name]
                rec["walls"].append(w)
                rec["cpus"].append(cpu)
                rec["traced"].append(traced)
                last[c.index] = out
            passes += 1

        # --- correctness: the first child checks its outputs against the
        # direct stencil (and, traced, times the layers); every child
        # reports a digest, and the parent requires them all equal -----
        for c in group:
            if c.index not in last:
                part["errors"].append(f"zoo-solve {c.name}: every call failed")
                continue
            part["digests"][c.name] = hashlib.sha256(
                last[c.index].tobytes()).hexdigest()
            if child != 0:
                continue
            g = grids[c.index]
            with tracer.span(f"reference.run_stencil {c.name}"):
                ref = run_stencil(g, kernels[c.kernel], c.steps, c.boundary)
            _check(c, last[c.index], ref, "plan.run", part["errors"])
            if tracer.enabled:
                with tracer.span(f"layers {c.name}"):
                    part["layers"][c.name] = _layers(
                        c, plans[c.index], g, ref, tracer, part["errors"])
        del plans, last, grids
        clear_library_caches()
    part["rss_mb"] = peak_rss_mb()
    return part


def summarize(parts: list, quick: bool, traced: bool) -> Outcome:
    """Pool the children's samples into the workload's metrics."""
    res = Outcome()
    pool_counts(parts, res)
    cases = C.zoo_cases(quick)
    calls = ClosedLoop(parts)
    if not calls.complete:
        return res  # the errors already say which case never ran
    for i, p in enumerate(parts[1:], 1):
        for name, digest in p["digests"].items():
            if digest != parts[0]["digests"].get(name):
                res.errors.append(f"zoo-solve {name}: process {i} computed "
                                  "other values than process 0")
    med_wall = calls.median_wall()
    res.e2e = calls.e2e(parts, res, sum(c.work for c in cases))
    res.info = {
        "calls_per_case": {n: len(w) for n, w in calls.walls.items()},
        "median_ms_per_case": {n: 1e3 * v for n, v in med_wall.items()},
        "plans": parts[0]["plans"],
        "cases": [{"case": c.name, "shape": list(c.shape), "T": c.fused_steps,
                   "steps": c.steps} for c in cases],
    }
    if not traced:
        return res
    build = {c.name: median([p["cases"][c.name]["build_s"] for p in parts])
             for c in cases}
    res.layers = _per_kernel(cases, med_wall, build, parts[0]["layers"],
                             parts[0]["plans"])
    res.layers["observability.trace_overhead"] = calls.trace_overhead()
    return res


def _per_kernel(cases, med_wall, build, layer, plans) -> dict:
    """Per-kernel layer metrics: each value is the mean of the kernel's
    two boundary cases; ratios are taken of those means."""
    out = {}
    for k in C.ZOO_KERNELS:
        names = [c.name for c in cases if c.kernel == k]

        def mean(f):
            return float(np.mean([f(n) for n in names]))

        run_ms = 1e3 * mean(lambda n: med_wall[n])
        ref_ms = 1e3 * mean(lambda n: layer[n]["reference_s"])
        fft = mean(lambda n: layer[n]["fft_ns_pt"])
        out.update({
            f"plan.run_ms.{k}": run_ms,
            f"plan.vs_direct.{k}": ref_ms / run_ms,
            f"plan.build_ms.{k}": 1e3 * mean(lambda n: build[n]),
            f"reference.run_ms.{k}": ref_ms,
            f"spectral.run_ms.{k}": 1e3 * mean(lambda n: layer[n]["spectral_s"]),
            f"backends.fft_ns_pt.{k}": fft,
            f"backends.len_penalty.{k}": fft / mean(
                lambda n: layer[n]["fast_ns_pt"]),
            f"tailoring.inflation.{k}": mean(lambda n: plans[n]["inflation"]),
            f"tailoring.split_gbs.{k}": mean(lambda n: layer[n]["split_gbs"]),
            f"tailoring.stitch_gbs.{k}": mean(lambda n: layer[n]["stitch_gbs"]),
            f"tailoring.refresh_ms.{k}": 1e3 * mean(
                lambda n: layer[n]["refresh_s"]),
            f"sharding.workers.{k}": mean(
                lambda n: plans[n]["effective_workers"]),
        })
    return out
