"""Online-autotuner benchmark gate: tuned vs hand-tuned vs static.

``OnlineTuner`` (``repro.tuner``) searches the joint configuration space —
fusion depth, FFT backend, shard workers, process ranks — by
pruning candidates with the gpusim roofline/fragment model and timing the
survivors against the static incumbent with interleaved paired trials on
live traffic.  This gate asserts, on the shared Heat-1D/2D/3D resident
geometries:

* **quality** — the configuration the tuner picks is within
  ``--tolerance`` (default 5%) of the best *hand-tuned* configuration,
  where "hand-tuned" means every model-surviving candidate measured
  directly by this benchmark (the exhaustive sweep the tuner's budget
  forbids it from running itself);
* **never slower than static** — executing through the (already warm)
  tuner is at least ``--min-vs-static`` (default 0.95x, i.e. within noise
  of parity) as fast as the static-heuristic configuration, interleaved
  and regression-asserted;
* **overhead** — a *fresh* tuner's first run, search trials included,
  costs at most ``--max-overhead`` (default 10%) more than the static run
  it replaces, amortised over a 64-application workload;
* **bit-identity** — every configuration this benchmark measures produces
  output bit-identical (``np.array_equal``) to *that configuration's own
  serial apply loop* (same fusion depth, same backend, workers=1, one
  stitched ``apply`` per application, no processes).  Different
  depths/backends legitimately differ from each other at the 1e-15 level
  — the contract is that no *execution path* (sharding, residency,
  process engine) perturbs numerics.

Timing is interleaved (sides sampled alternately, order flipping every
round) and every gated ratio is the **median of per-round ratios**, so
machine-phase drift divides out.  Timing gates re-measure up to
``--attempts`` times keeping the best paired-median (bit-identity is
never retried); ``--no-speedup-check`` waives the timing gates on runners
too noisy to gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_autotune.py           # full gate
    PYTHONPATH=src python benchmarks/bench_autotune.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.kernels import spectrum_cache_clear
from repro.core.plan import FlashFFTStencil, plan_cache_clear
from repro.observability import NULL_TELEMETRY
from repro.tuner import OnlineTuner, TunerPolicy, candidate_space, prune_candidates

from _workloads import HEAT_RESIDENT_CASES, apply_loop

#: The amortisation horizon of the overhead gate (the acceptance
#: criterion's "64-application run").
OVERHEAD_APPS = 64


def _quiesce() -> None:
    """Settle the heap before a timed section."""
    import gc

    gc.collect()
    try:  # glibc only; harmless to skip elsewhere
        import ctypes

        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except Exception:
        pass


def _interleaved_ms(fn_a, fn_b, reps: int, warmup: int) -> tuple[float, float, float]:
    """``(median a ms, median b ms, median per-round a/b ratio)``."""
    for _ in range(warmup):
        fn_a()
        fn_b()
    a_ms: list[float] = []
    b_ms: list[float] = []
    for i in range(reps):
        order = ((fn_a, a_ms), (fn_b, b_ms)) if i % 2 == 0 else ((fn_b, b_ms), (fn_a, a_ms))
        for fn, acc in order:
            t0 = time.perf_counter()
            fn()
            acc.append((time.perf_counter() - t0) * 1e3)
    ratio = statistics.median(a / b for a, b in zip(a_ms, b_ms))
    return statistics.median(a_ms), statistics.median(b_ms), ratio


def _sweep_ms(runners: list, reps: int) -> dict[str, float]:
    """Round-robin median wall ms per labelled runner.

    All candidates are sampled once per round (order reversing every
    round), so each candidate sees roughly the same mix of machine phases
    — the hand-tuned "best" is then comparable against the tuner's pick
    without a fast stretch landing on one candidate only.
    """
    for _, fn in runners:  # warm-up: plan construction, spectra, pools
        fn()
    times: dict[str, list[float]] = {lbl: [] for lbl, _ in runners}
    for i in range(reps):
        order = runners if i % 2 == 0 else list(reversed(runners))
        for lbl, fn in order:
            t0 = time.perf_counter()
            fn()
            times[lbl].append((time.perf_counter() - t0) * 1e3)
    return {lbl: statistics.median(v) for lbl, v in times.items()}


def bench_case(
    name: str,
    shape: tuple[int, ...],
    kernel_factory,
    tile: tuple[int, ...],
    fused: int,
    sweep_apps: int,
    reps: int,
    attempts: int,
    tolerance: float | None,
    min_vs_static: float | None,
    max_overhead: float | None,
    failures: list[str],
) -> dict:
    """Hand-tuned sweep + tuner quality/overhead gates for one geometry."""
    x = np.random.default_rng(0xA07).standard_normal(shape)
    plan = FlashFFTStencil(shape, kernel_factory(), fused_steps=fused, tile=tile)
    policy = TunerPolicy(min_points=1)  # the quick grids must stay eligible
    tuner = OnlineTuner(policy=policy)  # memory-only: no disk grant assumed
    overhead_steps = OVERHEAD_APPS * fused

    # ---- hand-tuned sweep over the model survivors ---------------------
    # Exactly the candidate list the tuner's search sees (same space, same
    # pruning, same keep), so the tuner's pick is guaranteed to be one of
    # the measured configurations.
    cands = candidate_space(plan, overhead_steps)
    survivors = prune_candidates(plan, cands, overhead_steps, policy.keep)
    opened: list[FlashFFTStencil] = []

    def runner(cand, apps):
        target = tuner.plan_for(plan, cand)
        if cand.processes > 1:
            opened.append(target)
        steps = cand.fused_steps * apps
        return lambda: target.run(
            x, steps, processes=cand.processes, telemetry=NULL_TELEMETRY,
            tune=False,
        )

    try:
        _quiesce()
        sweep = _sweep_ms(
            [(c.label(), runner(c, sweep_apps)) for c in survivors], reps
        )
        # Per-step normalisation: candidates run sweep_apps applications at
        # their *own* depth, so wall ms is divided by simulated steps.
        per_step = {
            c.label(): sweep[c.label()] / (c.fused_steps * sweep_apps)
            for c in survivors
        }
        best_label = min(per_step, key=per_step.get)

        # ---- tuner quality: its pick vs the hand-tuned best ------------
        tuned = tuner.tune(plan, x, overhead_steps)
        tuned_label = tuned.label()
        quality = per_step[tuned_label] / per_step[best_label]
        if tolerance is not None and quality > 1.0 + tolerance:
            # The sweep medians and the tuner's own trials are separate
            # samples; re-sweep before declaring a miss.
            for _ in range(attempts - 1):
                _quiesce()
                sweep = _sweep_ms(
                    [(c.label(), runner(c, sweep_apps)) for c in survivors], reps
                )
                per_step = {
                    c.label(): sweep[c.label()] / (c.fused_steps * sweep_apps)
                    for c in survivors
                }
                best_label = min(per_step, key=per_step.get)
                quality = min(quality, per_step[tuned_label] / per_step[best_label])
                if quality <= 1.0 + tolerance:
                    break
            if quality > 1.0 + tolerance:
                failures.append(
                    f"{name}: tuned config {tuned_label} is {quality:.3f}x the "
                    f"hand-tuned best {best_label} (tolerance {1 + tolerance:.2f}x)"
                )

        # ---- never slower than static (warm tuner, interleaved) --------
        static_fn = runner(survivors[0], sweep_apps)
        tuner_fn = lambda: tuner.run(  # noqa: E731 - timed closure
            plan, x, fused * sweep_apps, telemetry=NULL_TELEMETRY
        )
        vs_static = 0.0
        static_ms = tuned_ms = 0.0
        static_attempts = 0
        for static_attempts in range(1, attempts + 1):
            _quiesce()
            a, b, r = _interleaved_ms(static_fn, tuner_fn, reps, 1)
            if r > vs_static:
                static_ms, tuned_ms, vs_static = a, b, r
            if min_vs_static is None or vs_static >= min_vs_static:
                break
        if min_vs_static is not None and vs_static < min_vs_static:
            failures.append(
                f"{name}: warm tuner runs at {vs_static:.3f}x static "
                f"(floor {min_vs_static:.2f}x)"
            )

        # ---- tuning overhead, amortised over 64 applications -----------
        # A fresh tuner per attempt: the cost being gated is the one-time
        # search (trial applications + warm-ups) a cold process pays.
        overhead = float("inf")
        overhead_attempts = 0
        for overhead_attempts in range(1, attempts + 1):
            _quiesce()
            fresh = OnlineTuner(policy=policy)
            order = (
                (lambda: plan.run(x, overhead_steps, tune=False),
                 lambda: fresh.run(plan, x, overhead_steps))
                if overhead_attempts % 2
                else (lambda: fresh.run(plan, x, overhead_steps),
                      lambda: plan.run(x, overhead_steps, tune=False))
            )
            t: dict[int, float] = {}
            for which, fn in enumerate(order):
                t0 = time.perf_counter()
                fn()
                t[which] = time.perf_counter() - t0
            static_s = t[0] if overhead_attempts % 2 else t[1]
            tuned_s = t[1] if overhead_attempts % 2 else t[0]
            overhead = min(overhead, tuned_s / static_s - 1.0)
            if max_overhead is None or overhead <= max_overhead:
                break
        if max_overhead is not None and overhead > max_overhead:
            failures.append(
                f"{name}: first tuned run costs {100 * overhead:.1f}% over "
                f"static amortised across {OVERHEAD_APPS} applications "
                f"(limit {100 * max_overhead:.0f}%)"
            )

        # ---- bit-identity: each measured config vs its own apply loop --
        ident_steps = 2 * max(c.fused_steps for c in survivors)
        ident_steps += max(1, fused // 2)  # remainder tail
        identity_checked = 0
        for cand in survivors:
            serial = replace(cand, workers=1, processes=1)
            want = apply_loop(tuner.plan_for(plan, serial), x, ident_steps)
            target = tuner.plan_for(plan, cand)
            if cand.processes > 1:
                opened.append(target)
            got = target.run(
                x, ident_steps, processes=cand.processes,
                telemetry=NULL_TELEMETRY, tune=False,
            )
            identity_checked += 1
            if not np.array_equal(got, want):
                failures.append(
                    f"{name} {cand.label()}: output is not bit-identical to "
                    "this configuration's own serial apply loop"
                )
    finally:
        for target in opened:
            target.close_processes()

    return {
        "name": name,
        "grid_shape": list(shape),
        "fused_steps": fused,
        "sweep_applications": sweep_apps,
        "overhead_applications": OVERHEAD_APPS,
        "candidates": [
            {"label": c.label(), "per_step_ms": round(per_step[c.label()], 6)}
            for c in survivors
        ],
        "static_label": survivors[0].label(),
        "best_hand_tuned": best_label,
        "tuned_label": tuned_label,
        "tuned_vs_best": round(quality, 4),
        "static_ms": round(static_ms, 4),
        "tuned_ms": round(tuned_ms, 4),
        "vs_static_speedup": round(vs_static, 4),
        "vs_static_attempts": static_attempts,
        "overhead_fraction": round(overhead, 4),
        "overhead_attempts": overhead_attempts,
        "trial_steps": tuner.trials_run,
        "identity_checked": identity_checked,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="CI smoke: fewer reps")
    ap.add_argument("--reps", type=int, default=None, help="timing repetitions")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="how far above the hand-tuned best the tuned config may sit",
    )
    ap.add_argument(
        "--min-vs-static",
        type=float,
        default=0.95,
        help="floor on (static ms / warm tuned ms); 1.0 means strictly "
        "never slower, the default leaves room for timer noise at parity",
    )
    ap.add_argument(
        "--max-overhead",
        type=float,
        default=0.10,
        help="ceiling on the fresh-tuner search cost as a fraction of the "
        f"static {OVERHEAD_APPS}-application run it rides on",
    )
    ap.add_argument(
        "--no-speedup-check",
        action="store_true",
        help="assert bit-identity only (shared runners can be too noisy "
        "for timing gates)",
    )
    ap.add_argument(
        "--attempts",
        type=int,
        default=3,
        help="re-measure a timing gate below its floor up to this many "
        "times, keeping the best paired-median (bit-identity is never "
        "retried)",
    )
    ap.add_argument(
        "--cases",
        type=str,
        default=None,
        help="comma-separated case names to run (default: all)",
    )
    ap.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_autotune.json",
    )
    args = ap.parse_args(argv)
    reps = args.reps if args.reps is not None else (3 if args.quick else 7)
    if reps < 1:
        ap.error(f"--reps must be >= 1, got {reps}")
    if args.attempts < 1:
        ap.error(f"--attempts must be >= 1, got {args.attempts}")
    if args.tolerance < 0:
        ap.error(f"--tolerance must be >= 0, got {args.tolerance}")
    tolerance = None if args.no_speedup_check else args.tolerance
    min_vs_static = None if args.no_speedup_check else args.min_vs_static
    max_overhead = None if args.no_speedup_check else args.max_overhead

    plan_cache_clear()
    spectrum_cache_clear()
    failures: list[str] = []
    cases = HEAT_RESIDENT_CASES
    if args.quick:
        # Same geometries, smaller 1-D/3-D grids; the 64-application
        # overhead horizon is kept — it is the contract being gated.
        shrink = {"heat-1d": (1 << 18,), "heat-3d": (64, 64, 64)}
        cases = tuple(
            (name, shrink.get(name, shape), kf, tile, fused, apps)
            for name, shape, kf, tile, fused, apps in cases
        )
    if args.cases:
        keep = {c.strip() for c in args.cases.split(",")}
        cases = tuple(c for c in cases if c[0] in keep)
        if not cases:
            ap.error(
                f"--cases matched nothing; have {[c[0] for c in HEAT_RESIDENT_CASES]}"
            )
    sweep_apps = 4 if args.quick else 8
    results = [
        bench_case(
            name, shape, kf, tile, fused, sweep_apps, reps,
            args.attempts, tolerance, min_vs_static, max_overhead, failures,
        )
        for name, shape, kf, tile, fused, _apps in cases
    ]

    report = {
        "benchmark": "autotune",
        "reps": reps,
        "sweep_applications": sweep_apps,
        "overhead_applications": OVERHEAD_APPS,
        "tolerance": args.tolerance,
        "min_vs_static": args.min_vs_static,
        "max_overhead": args.max_overhead,
        "timing_gates_active": not args.no_speedup_check,
        "attempts": args.attempts,
        "cases": results,
        "failures": failures,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    hdr = (
        f"{'case':<10}{'tuned config':<24}{'vs best':>9}"
        f"{'vs static':>11}{'overhead':>10}{'trials':>8}"
    )
    print(hdr)
    print("-" * len(hdr))
    for r in results:
        print(
            f"{r['name']:<10}{r['tuned_label']:<24}"
            f"{r['tuned_vs_best']:>9.3f}{r['vs_static_speedup']:>11.3f}"
            f"{100 * r['overhead_fraction']:>9.1f}%{r['trial_steps']:>8}"
        )
    if args.no_speedup_check:
        print("timing gates disabled (--no-speedup-check)")
    print(f"wrote {args.output}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("autotune gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
