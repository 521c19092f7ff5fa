"""serve-open: an open loop of stencil requests into one ``StencilServer``.

Requests arrive as a Poisson process at a fixed rate (a sixth of what a
2-CPU host can serve, see ``cases.ServeSpec``) from a generator process
of their own (``loadgen.py``), whatever the server does, so a stall shows
as queueing for every later request.  The server holds one small 2-D plan, built once and warm-started from a ``PlanDiskCache``
in a temporary directory: the opposite of zoo-solve's fresh plans, so
queueing, batching, admission and precision routing set the latency
while stencil compute is small.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from repro import kernel_by_name
from repro.errors import ServingError
from repro.robustness.sentinel import normalized_drift
from repro.serving import PlanDiskCache, ServingConfig, StencilServer

from . import cases as C
from .harness import (
    Outcome,
    clear_library_caches,
    median,
    peak_rss_mb,
    percentile,
    plan_config,
    pool_counts,
)
from .loadgen import RECORD

#: The generator may run this late (p99, median over the processes)
#: before the run is void: the server's batching deadline.  Later than
#: that, latency would measure the load generator, not the batcher.  A
#: lone sleeping process on an idle 2-CPU VM already wakes up to 9 ms
#: late, so a tighter limit would void runs for the host's timer jitter.
LATE_LIMIT_MS = ServingConfig().deadline_ms
#: The load generator, run as a process of its own.
LOADGEN = Path(__file__).resolve().parent / "loadgen.py"
#: Warm starts per process; ``setup_s`` counts their median.
WARM_REPEATS = 15
#: Untimed warm-up rounds over the request groups, per process.
WARMUP_ROUNDS = 3
#: How often the traced run samples ``StencilServer.info()``.
SAMPLE_EVERY_S = 0.02


class GeneratorBehind(RuntimeError):
    """The open loop could not keep to its schedule; the run is void."""


def _setup(spec, cache_dir: Path, grid0, tracer):
    """A cold plan start that fills the disk cache, then warm starts.

    Returns the last warm plan and ``(cold_s, warm_s, setup_s)``, where
    ``setup_s`` is a warm start plus the first exact and the first
    tolerance-routed application (which builds the float32 variant and
    calibrates the router).  A warm start takes milliseconds, so it is
    repeated and the medians are returned.
    """
    kernel = kernel_by_name(spec.kernel)
    cache = PlanDiskCache(cache_dir)
    with tracer.span("PlanDiskCache.warm_plan (miss)"):
        t0 = time.perf_counter()
        cache.warm_plan(spec.shape, kernel, fused_steps=spec.fused_steps)
        cold = time.perf_counter() - t0
    warm, setup = [], []
    for _ in range(WARM_REPEATS):
        # As a fresh process would start: in-process caches empty, the
        # disk entry present.
        clear_library_caches()
        with tracer.span("setup"):
            t0 = time.perf_counter()
            with tracer.span("PlanDiskCache.warm_plan (hit)"):
                plan = cache.warm_plan(spec.shape, kernel,
                                       fused_steps=spec.fused_steps)
            t1 = time.perf_counter()
            plan.run(grid0, max(spec.steps))
            plan.run(grid0, max(spec.steps), tolerance=spec.tolerance)
            t2 = time.perf_counter()
        warm.append(t1 - t0)
        setup.append(t2 - t0)
    if cache.hits != WARM_REPEATS:
        raise RuntimeError("PlanDiskCache warm start missed its own entry")
    return plan, (cold, median(warm), median(setup))


async def _open_loop(plan, spec, grids, due, mix, expected, tracer, errors):
    """Offer every request at its due time; record what came back."""
    loop = asyncio.get_running_loop()
    # The generator is a process of its own (loadgen.py); the server's
    # executor gets no more threads than there are CPUs.
    loop.set_default_executor(
        ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0)))
    )
    n = len(due)
    submit = np.full(n, np.nan)
    late = np.full(n, np.nan)
    done = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    served_f32 = np.zeros(n, dtype=bool)
    spans = {}
    samples = []
    refused = 0
    pool = len(grids)

    def check(label, k, steps, tol, out) -> bool:
        """Compare one response with serial ``plan.run``; true when it
        was served in float32 within its tolerance."""
        want = expected[(k, steps)]
        if np.array_equal(out, want):
            return False
        drift = normalized_drift(out, want)
        if tol is not None and drift <= tol:
            return True
        errors.append(
            f"serve-open {label}: response differs from serial "
            f"plan.run by {drift:.3e} (tolerance {tol})")
        return False

    def finished(i, fut):
        done[i] = time.perf_counter()
        if i in spans:
            tracer.spans[spans[i]][2] = done[i]
        if fut.cancelled() or fut.exception() is not None:
            return
        _, steps, tol = mix[i]
        ok[i] = True
        served_f32[i] = check(f"request {i}", i % pool, steps, tol,
                              fut.result())

    async def warm_up():
        """Untimed batches of every (steps, tolerance) group: they start
        the executor's threads, seed the batcher's service-time EWMA and
        calibrate the precision router before the first due time."""
        for _ in range(WARMUP_ROUNDS):
            for steps in spec.steps:
                for tol in (None, spec.tolerance):
                    keys = range(server.config.max_batch)
                    futs = [server.submit_nowait(
                                grids[k], steps,
                                spec.tenants[k % len(spec.tenants)], tol)
                            for k in keys]
                    for k, out in zip(keys, await asyncio.gather(*futs)):
                        check("warm-up request", k, steps, tol, out)

    async def sampler():
        while True:
            await asyncio.sleep(SAMPLE_EVERY_S)
            ewma = server.info()["service_ewma_ms"]
            if ewma is not None:
                samples.append(ewma)

    def offer(i):
        """Submit request ``i``, whose due time the generator signalled."""
        nonlocal refused
        tenant, steps, tol = mix[i]
        t_sub = submit[i] = time.perf_counter()
        try:
            fut = server.submit_nowait(grids[i % pool], steps, tenant, tol)
        except ServingError:
            refused += 1
            return
        finally:
            # The traced run traces every other request; the rest are
            # the untraced control for the overhead.
            if tracer.enabled and i % 2 == 0:
                spans[i] = tracer.record("request", due_abs[i], t_sub, rid=i)
                tracer.record("StencilServer.submit_nowait", t_sub,
                              time.perf_counter(), parent=spans[i], rid=i)
        fut.add_done_callback(partial(finished, i))

    def on_records():
        """Offer each request whose record the generator has written."""
        chunk = os.read(gen.stdout.fileno(), 1 << 16)
        if not chunk:  # the generator exited
            loop.remove_reader(gen.stdout.fileno())
            if not all_offered.done():
                all_offered.set_result(None)
            return
        pending.extend(chunk)
        whole = len(pending) - len(pending) % RECORD.size
        for i, late_s in RECORD.iter_unpack(bytes(pending[:whole])):
            late[i] = late_s
            offer(i)
        del pending[:whole]

    pending = bytearray()
    gen = subprocess.Popen([sys.executable, str(LOADGEN)],
                           stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    server = sampling = None
    try:
        if gen.stdout.read(1) != b"R":
            raise RuntimeError("the load generator did not start")
        server = StencilServer(
            plan, ServingConfig(request_timeout_ms=spec.timeout_ms)
        )
        await server.start()
        t0 = time.perf_counter()
        await warm_up()
        warmup_s = time.perf_counter() - t0
        sampling = asyncio.create_task(sampler()) if tracer.enabled else None
        all_offered = loop.create_future()
        loop.add_reader(gen.stdout.fileno(), on_records)
        cpu0 = time.process_time()
        t_start = time.perf_counter() + 0.01
        due_abs = t_start + due
        # The generator's clock is time.monotonic; shift the start to it.
        start = t_start - time.perf_counter() + time.monotonic()
        gen.stdin.write(json.dumps({"start": start,
                                    "due": due.tolist()}).encode() + b"\n")
        gen.stdin.close()
        await all_offered
        if gen.wait() != 0 or np.isnan(late).any():
            raise RuntimeError(
                f"the load generator exited with {gen.returncode} before "
                "offering every request")
    finally:
        loop.remove_reader(gen.stdout.fileno())
        if gen.poll() is None:
            gen.kill()
        gen.wait()
        gen.stdin.close()
        gen.stdout.close()
        if server is not None:
            await server.stop(drain=True)
            if sampling is not None:
                sampling.cancel()
                try:
                    await sampling
                except asyncio.CancelledError:
                    pass
    await asyncio.sleep(0)  # let the last done-callbacks run
    return {
        "latency_ms": (1e3 * (done - due_abs)).tolist(),
        "late_ms": (1e3 * late).tolist(),
        "accept_ms": (1e3 * (submit - due_abs)).tolist(),
        "submit_to_done_ms": (1e3 * (done - submit)).tolist(),
        "ok": ok.tolist(),
        "served_f32": served_f32.tolist(),
        "refused": refused,
        "cpu_s": time.process_time() - cpu0,
        "warmup_s": warmup_s,
        "window_s": float(np.nanmax(done, initial=t_start) - t_start),
        "samples": samples,
        "batches": server.batches,
        "served": server.served,
        "expired": server.expired,
    }


def measure(seed: int, seconds: float, tracer, quick: bool, scratch: Path,
            child: int) -> dict:
    """One child process's share of a run: every request it offered."""
    spec = C.serve_spec(quick)
    grids = [C.grid(seed, spec.shape, 0, k) for k in range(spec.grid_pool)]
    scratch.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="plancache-", dir=scratch))
    try:
        plan, setup = _setup(spec, cache_dir, grids[0], tracer)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    expected = {
        (k, s): plan.run(g, s) for k, g in enumerate(grids) for s in spec.steps
    }
    # Each child offers its own slice of arrivals; the request mix is
    # the same fixed sequence in every child.
    due = C.arrivals(seed, spec.rate, seconds, child)
    mix = C.serve_mix(spec, len(due))
    errors = []
    with tracer.span("serve-open window"):
        part = asyncio.run(
            _open_loop(plan, spec, grids, due, mix, expected, tracer, errors)
        )
    ok = np.array(part["ok"], dtype=bool)
    points = int(np.prod(spec.shape))
    part.update({
        "attempted": len(due),
        "failed": int(len(due) - ok.sum()),
        "errors": errors,
        "work": sum(points * mix[i][1] for i in np.flatnonzero(ok)),
        "tenant": [spec.tenants.index(m[0]) for m in mix],
        "tolerance": [m[2] is not None for m in mix],
        "cold_s": setup[0], "warm_s": setup[1],
        # Everything before the first due time: the median warm start
        # with its first applications, and the server's warm-up rounds.
        "setup_s": setup[2] + part["warmup_s"],
        "escalated": bool(plan.router().escalated),
        "plan": plan_config(plan),
        "rss_mb": peak_rss_mb(),
    })
    return part


def summarize(parts: list, quick: bool, traced: bool) -> Outcome:
    """Pool the children's requests into the workload's metrics."""
    spec = C.serve_spec(quick)
    res = Outcome()
    pool_counts(parts, res)

    def cat(key, dtype=np.float64):
        return np.concatenate([np.asarray(p[key], dtype=dtype) for p in parts])

    ok = cat("ok", bool)
    # Tails are taken per process, and their median reported: a host
    # stall in one process's window moves one of them, not the result.
    late_p99 = median([percentile(p["late_ms"], 99) for p in parts])
    if late_p99 > LATE_LIMIT_MS:
        raise GeneratorBehind(
            f"serve-open: the generator ran {late_p99:.1f} ms late at p99 "
            f"(limit {LATE_LIMIT_MS} ms); the run is void")
    # A failed request counts as missing the limit: it enters the
    # percentiles at the request timeout.
    lat = np.where(ok, cat("latency_ms"), spec.timeout_ms)

    def per_process(values):
        return np.split(values, np.cumsum([len(p["ok"]) for p in parts])[:-1])

    completed = int(ok.sum())
    work = sum(p["work"] for p in parts)
    # CPU costs are medians over the processes, like the tails: a slow
    # host phase during one process's window moves one of four values.
    cpu_per_req = median([p["cpu_s"] / max(1, sum(p["ok"])) for p in parts])
    res.e2e = {
        "gstencil_s": work / sum(p["window_s"] for p in parts) / 1e9,
        "gstencil_per_cpu_s": median([p["work"] / p["cpu_s"] for p in parts])
        / 1e9,
        "p50_ms": percentile(lat, 50),
        "p99_ms": median([percentile(x, 99) for x in per_process(lat)]),
        "cpu_ms_per_req": 1e3 * cpu_per_req,
        "setup_s": median([p["setup_s"] for p in parts]),
        "peak_rss_mb": median([p["rss_mb"] for p in parts]),
        "ok_frac": completed / len(ok),
    }
    res.info = {
        "requests": len(ok),
        "samples_beyond_p99": int(np.sum(lat > res.e2e["p99_ms"])),
        "rate_per_s": spec.rate,
        "late_p99_ms": late_p99,
        # Due time to submit_nowait on the server's loop.
        "accept_p99_ms": median([percentile(p["accept_ms"], 99)
                                 for p in parts]),
        "refused": sum(p["refused"] for p in parts),
        "expired": sum(p["expired"] for p in parts),
        "plan": parts[0]["plan"],
        "serve": {"shape": list(spec.shape), "T": spec.fused_steps,
                  "steps": list(spec.steps), "tenants": len(spec.tenants),
                  "tolerance": spec.tolerance,
                  "tolerance_share": spec.tolerance_share},
    }
    if not traced:
        return res

    tenant = cat("tenant", int)
    tol = cat("tolerance", bool)
    even = np.concatenate([np.arange(len(p["ok"])) % 2 == 0 for p in parts])
    tenant_p99 = [percentile(lat[tenant == t], 99)
                  for t in range(len(spec.tenants))]
    service = median(np.concatenate([p["samples"] for p in parts]))
    batch_mean = sum(p["served"] for p in parts) / max(
        1, sum(p["batches"] for p in parts))
    res.layers = {
        "batcher.batch_size_mean": batch_mean,
        # Per-grid service time, as the batcher's own EWMA reports it.
        "batcher.service_ms": service,
        # Submit-to-result time not spent executing the request's batch.
        "batcher.queue_ms": median(cat("submit_to_done_ms")[ok])
        - batch_mean * service,
        "admission.rejected": float(res.info["refused"]),
        "scheduler.tenant_p99_spread": max(tenant_p99) / min(tenant_p99),
        "accuracy.f32_share": float(cat("served_f32", bool)[tol].sum())
        / max(1, int(tol.sum())),
        "accuracy.escalations": float(sum(p["escalated"] for p in parts)),
        "plancache.cold_ms": 1e3 * median([p["cold_s"] for p in parts]),
        "plancache.warm_ms": 1e3 * median([p["warm_s"] for p in parts]),
        "serve.late_p99_ms": late_p99,
        "observability.trace_overhead": median(lat[ok & even])
        / median(lat[ok & ~even]),
    }
    return res
