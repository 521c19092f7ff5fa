"""Timing, tracing and reporting helpers shared by the three workloads.

A run of one workload is split across ``PROCESSES`` fresh child
processes, one after the other, each measuring an equal slice of the
run's seconds.  Each child returns its raw samples; the parent pools
them.  Threaded numpy settles into a speed that differs by a few percent
from one process to the next and stays there, so samples from one
process, however many, cannot average that offset away; pooling several
processes does, and each child's cold set-up is a true fresh-process
start.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Child processes per run (fewer in quick mode, to keep tests short).
PROCESSES = 4
QUICK_PROCESSES = 2
#: Repeats behind each per-layer time; the metric is their median.
LAYER_REPEATS = 5


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args, **kwargs):
    """``(result, wall_s, cpu_s)`` of one call; the result is consumed."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    t1 = time.perf_counter()
    c1 = time.process_time()
    return out, t1 - t0, c1 - c0


def median_time(fn, repeats: int = LAYER_REPEATS, prepare=None,
                warmup: bool = True) -> float:
    """Median wall seconds of ``repeats`` calls of ``fn(*prepare())``,
    after one untimed warm-up call unless ``warmup`` is false.

    ``prepare`` (untimed) builds fresh arguments for calls that write
    their input in place.
    """
    if warmup:
        fn(*(prepare() if prepare is not None else ()))
    times = []
    for _ in range(repeats):
        args = prepare() if prepare is not None else ()
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return median(times)


@dataclass
class Outcome:
    """What one workload run measured, pooled over its child processes.

    ``e2e`` and ``layers`` map metric names (as in ``BENCHMARK.json``) to
    values; ``errors`` lists every correctness mismatch, and any entry
    fails the run.
    """

    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def pool_counts(parts: list, res: Outcome) -> None:
    """Sum the children's attempt/failure counts and collect their errors."""
    for p in parts:
        res.attempted += p["attempted"]
        res.failed += p["failed"]
        res.errors.extend(p["errors"])


class ClosedLoop:
    """The timed calls of a closed-loop workload, pooled over children.

    Each child reports, per case, the wall and CPU seconds of every
    timed call and whether the call was traced.
    """

    def __init__(self, parts: list) -> None:
        def pooled(name, key):
            return np.concatenate([p["cases"][name][key] for p in parts])

        names = list(parts[0]["cases"])
        self.walls = {n: pooled(n, "walls") for n in names}
        self.cpus = {n: pooled(n, "cpus") for n in names}
        self.traced = {n: pooled(n, "traced").astype(bool) for n in names}
        self.per_process = {
            n: [np.asarray(p["cases"][n]["walls"]) for p in parts] for n in names
        }
        self.complete = all(len(w) for w in self.walls.values())

    def median_wall(self) -> dict:
        return {n: median(w) for n, w in self.walls.items()}

    def e2e(self, parts: list, res: Outcome, work: int) -> dict:
        """End-to-end metrics; ``work`` is the points x steps of one call
        of every case."""
        wall = sum(median(w) for w in self.walls.values())
        cpu = [median(c) for c in self.cpus.values()]
        return {
            "gstencil_s": work / wall / 1e9,
            "gstencil_per_cpu_s": work / sum(cpu) / 1e9,
            # A call is due when the previous one returns, so its latency
            # is its duration.  Percentiles are taken per case and
            # averaged: one percentile over mixed kernels would fall
            # between kernel clusters.  A case's tail is the median over
            # the processes of each one's percentile, so one slow call
            # moves one of them, not the result.
            "p50_ms": 1e3 * wall / len(self.walls),
            "p99_ms": 1e3 * float(np.mean([
                median([percentile(w, 99) for w in ws if len(w)])
                for ws in self.per_process.values()])),
            "cpu_ms_per_req": 1e3 * float(np.mean(cpu)),
            "setup_s": median([p["setup_s"] for p in parts]),
            "peak_rss_mb": median([p["rss_mb"] for p in parts]),
            "ok_frac": (res.attempted - res.failed) / res.attempted,
        }

    def trace_overhead(self) -> float:
        """Traced over untraced time of the same calls."""
        on = sum(median(w[self.traced[n]]) for n, w in self.walls.items())
        off = sum(median(w[~self.traced[n]]) for n, w in self.walls.items())
        return on / off


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "_name", "_idx")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._idx = -1

    def __enter__(self):
        self._idx = self._tracer.begin(self._name)
        return self

    def __exit__(self, *exc):
        self._tracer.end(self._idx)
        return None


class Tracer:
    """In-memory spans around the benchmark's calls into the library.

    Each span holds a name, start, end, the index of its parent span and
    an optional request id shared by the spans of one served request.
    Nothing is written while the workload runs: :meth:`events` turns the
    spans into Chrome trace events at the end, and :func:`write_trace`
    writes the events of every child as one file (loadable in Perfetto).
    A disabled tracer hands out one shared no-op context manager.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, rid]
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def span(self, name: str):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        t = time.perf_counter()
        self.spans.append([name, t, t, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()

    def record(self, name: str, start: float, stop: float,
               parent: int | None = None, rid=None) -> int:
        """A span whose times were taken elsewhere (serve-open requests
        overlap, so they cannot nest on the stack).  The parent defaults
        to the innermost open span; returns the span's index."""
        if not self.enabled:
            return -1
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, stop, parent, rid])
        return len(self.spans) - 1

    def events(self, pid: int) -> list:
        out = []
        for i, (name, start, stop, parent, rid) in enumerate(self.spans):
            args = {"id": i, "parent": parent}
            if rid is not None:
                args["rid"] = rid
            out.append({
                "name": name,
                "ph": "X",
                "pid": pid,
                # Requests overlap in time; spread them over tracks.
                "tid": 1 if rid is None else 2 + int(rid) % 64,
                "ts": (start - self._t0) * 1e6,
                "dur": max(0.0, stop - start) * 1e6,
                "args": args,
            })
        return out


def write_trace(path: Path, events: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def host_fingerprint() -> dict:
    import scipy

    from repro.parallel.backends import get_backend

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = list(range(os.cpu_count() or 1))
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fft_backend": get_backend().name,
    }


def plan_config(plan) -> dict:
    """The resolved configuration of one default plan."""
    seg = plan.segments
    return {
        "grid": list(plan.grid_shape),
        "window": list(plan.local_shape),
        "windows": seg.total_segments,
        "effective_workers": plan.effective_workers,
        # Sum of window points over grid points: an exact count.
        "inflation": seg.total_segments * int(np.prod(seg.local_shape))
        / int(np.prod(seg.grid_shape)),
    }


def clear_library_caches() -> None:
    """Drop the library's in-process plan and spectrum caches."""
    from repro.core.kernels import spectrum_cache_clear
    from repro.core.plan import plan_cache_clear

    plan_cache_clear()
    spectrum_cache_clear()
