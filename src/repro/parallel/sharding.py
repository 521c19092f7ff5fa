"""Sharded split→fuse→stitch execution across a thread pool.

§3.1's central observation — overlap-save windows are *independent* — is
exactly the property that makes shard-parallel host execution trivial: any
partition of the window batch can split, fuse, and stitch on its own, with
no reduction and no synchronisation beyond the join.  This module shards
along the **first segment axis**, which buys two invariants at once:

* a contiguous range of first-axis tiles is a contiguous range of *flat*
  segment indices (C-order), so each shard's windows are a contiguous
  slice of the batch (and of a shared :class:`~repro.parallel.arena.
  WorkspaceArena` buffer);
* the output tiles of those segments cover a contiguous slab of grid
  rows, so each shard stitches into a **disjoint, contiguous** slice of
  the shared output — no locking, no false sharing at slab granularity.

Threads (not processes) are the right vehicle: the three stage kernels —
``np.take`` gathers, pocketfft transforms — release the GIL, so shards
scale across cores without pickling a single array.  Per-row FFTs are
independent inside pocketfft, so the sharded result is **bit-identical**
to the serial path.

Worker count is autotuned by :func:`choose_workers` from the plan's
segment count and the visible CPU count (``REPRO_WORKERS`` overrides);
small plans degrade to the serial path rather than paying dispatch
overhead for sub-core shards.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..envutil import env_positive_int
from ..errors import PlanError
from ..observability import NULL_TELEMETRY, Telemetry
from .backends import FFTBackend, get_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.tailoring import SegmentPlan
    from .arena import WorkspaceArena

__all__ = ["ShardedExecutor", "choose_workers", "cpu_count", "resident_loop"]

#: Environment override for the autotuned worker count (CI smoke legs pin
#: this to exercise the sharded path on every test).
WORKERS_ENV = "REPRO_WORKERS"

#: Autotuning floor: a shard below this many segments costs more in
#: dispatch than it recovers in parallelism.
MIN_SEGMENTS_PER_WORKER = 8

#: Window bytes per FFT call in :func:`resident_loop`.  Block-sized
#: transform transients stay cache-resident and are reused from the
#: allocator's free lists; a whole-batch transient is handed back to the
#: OS after every application and page-faulted in again on the next (on
#: a 512² heat grid that cost 40% of the loop's time).
FUSE_BLOCK_BYTES = 1 << 19


def cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def choose_workers(
    total_segments: int,
    requested: int | None = None,
    *,
    min_segments_per_worker: int = MIN_SEGMENTS_PER_WORKER,
) -> int:
    """Pick a worker count for a plan with ``total_segments`` windows.

    ``requested`` (or ``$REPRO_WORKERS``) wins when given; otherwise the
    count is the available CPUs, degraded so every worker keeps at least
    ``min_segments_per_worker`` windows — plans too small to amortise
    thread dispatch run serial (returns 1).
    """
    if requested is None:
        requested = env_positive_int(WORKERS_ENV)
    if requested is not None:
        if requested < 1:
            raise PlanError(f"workers must be >= 1, got {requested}")
        return int(requested)
    by_size = int(total_segments) // max(1, int(min_segments_per_worker))
    return max(1, min(cpu_count(), by_size))


# ------------------------------------------------------------ thread pools
#
# Pools are shared process-wide by worker count: shard tasks never submit
# nested work, so plans can share a pool without deadlock, and the test
# suite does not accumulate one pool (and its idle threads) per plan.

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def _pool(workers: int) -> ThreadPoolExecutor:
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = _pools[workers] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-shard{workers}"
            )
        return pool


class ShardedExecutor:
    """Partition one plan's window batch into per-worker shards.

    Construction precomputes, per shard: the flat segment range
    ``[s0, s1)``, the output row slab ``[r0, r1)``, and the stitch gather
    indices rebased to the shard's own fused batch (the global
    ``_stitch_flat`` minus ``s0 * prod(local_shape)``) — the same
    hoist-the-indexing-out-of-the-loop discipline as the plan's cached
    artifacts.
    """

    def __init__(
        self,
        segments: "SegmentPlan",
        workers: int,
        backend: "FFTBackend | str | None" = None,
    ) -> None:
        if workers < 1:
            raise PlanError(f"workers must be >= 1, got {workers}")
        self.segments = segments
        self.backend = get_backend(backend)
        n0 = segments.num_segments[0]
        self.workers = max(1, min(int(workers), n0))
        rest = segments.total_segments // n0
        window_size = int(np.prod(segments.local_shape))
        bounds: list[tuple[int, int, int, int]] = []
        stitch: list[np.ndarray] = []
        for chunk in np.array_split(np.arange(n0), self.workers):
            t0, t1 = int(chunk[0]), int(chunk[-1]) + 1
            s0, s1 = t0 * rest, t1 * rest
            r0 = int(segments.starts[0][t0])
            r1 = (
                int(segments.starts[0][t1])
                if t1 < n0
                else segments.grid_shape[0]
            )
            bounds.append((s0, s1, r0, r1))
            idx = segments._stitch_flat[r0:r1] - s0 * window_size
            idx.flags.writeable = False
            stitch.append(idx)
        self._bounds = tuple(bounds)
        self._stitch = tuple(stitch)

    @property
    def num_shards(self) -> int:
        return len(self._bounds)

    def _run_shard(
        self,
        i: int,
        src_flat: np.ndarray,
        out: np.ndarray,
        arena: "WorkspaceArena | None",
        enabled: bool,
    ) -> Telemetry:
        """One shard: gather → FFT·×·iFFT → scatter, on a worker thread.

        Telemetry is recorded into a private per-worker sink (merged at
        join by the caller) so shards never contend on the shared sink's
        lock mid-flight.
        """
        seg = self.segments
        s0, s1, r0, r1 = self._bounds[i]
        tel = Telemetry() if enabled else NULL_TELEMETRY
        win_out = arena.window_rows(s0, s1) if arena is not None else None
        with tel.span("split"):
            windows = np.take(src_flat, seg._gather_flat[s0:s1], out=win_out)
        with tel.span("fuse"):
            fused = _fuse_rows(seg, self.backend, windows)
        with tel.span("stitch"):
            np.take(fused.reshape(-1), self._stitch[i], out=out[r0:r1])
        return tel

    def apply(
        self,
        grid: np.ndarray,
        out: np.ndarray | None = None,
        arena: "WorkspaceArena | None" = None,
        telemetry: Telemetry | None = None,
    ) -> np.ndarray:
        """Sharded split→fuse→stitch of one grid; bit-identical to serial.

        ``out`` (optional) receives the stitched grid; each shard writes
        only its own row slab.  ``arena`` (optional) supplies the shared
        window buffer and zero-boundary source.  The zero-boundary band
        fix is **not** applied here — callers (``FlashFFTStencil.
        _apply_impl``) run it after the join, exactly as on the serial
        path.
        """
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        seg = self.segments
        grid = np.asarray(grid, dtype=seg.dtype)
        if grid.shape != seg.grid_shape:
            raise PlanError(f"grid shape {grid.shape} != plan {seg.grid_shape}")
        if arena is not None and not arena.fits(seg):
            raise PlanError("arena geometry does not match this plan")
        scratch = arena.padded if arena is not None else None
        src = seg.window_source(grid, out=scratch)
        src_flat = src.reshape(-1)
        if out is None:
            out = np.empty(seg.grid_shape, dtype=seg.dtype)
        elif np.shares_memory(src, out):
            # Shards interleave gather reads and slab writes, so the
            # serial path's consume-then-write ordering guarantee is gone:
            # any aliasing would race.
            raise PlanError("sharded apply: out must not alias the grid")
        enabled = tel.enabled
        _join(
            lambda i: self._run_shard(i, src_flat, out, arena, enabled),
            range(self.num_shards),
            tel,
        )
        if enabled:
            tel.count("sharded_applies", 1)
            tel.count("shard_tasks", self.num_shards)
            tel.count("fft_batches", self.num_shards)
            tel.record_cache(
                "sharding", workers=self.workers, shards=self.num_shards
            )
        return out

    def run_resident(
        self,
        grid: np.ndarray,
        applications: int,
        out: np.ndarray | None = None,
        arena: "WorkspaceArena | None" = None,
        telemetry: Telemetry | None = None,
    ) -> np.ndarray:
        """``applications`` fused applications with the window batch resident.

        One sharded split at entry and one sharded stitch at exit; in
        between, :func:`resident_loop` fuses each shard's rows in place
        with one pool barrier per application.  Bit-identical to
        ``applications`` serial apply calls, exactly like :meth:`apply`.
        """
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        seg = self.segments
        grid = np.asarray(grid, dtype=seg.dtype)
        if grid.shape != seg.grid_shape:
            raise PlanError(f"grid shape {grid.shape} != plan {seg.grid_shape}")
        if arena is not None and not arena.fits(seg):
            raise PlanError("arena geometry does not match this plan")
        scratch = arena.padded if arena is not None else None
        src_flat = seg.window_source(grid, out=scratch).reshape(-1)
        if out is not None and np.shares_memory(src_flat, out):
            raise PlanError("sharded run_resident: out must not alias the grid")
        windows = (
            arena.windows
            if arena is not None
            else np.empty((seg.total_segments,) + seg.local_shape, seg.dtype)
        )

        def _split_shard(i: int) -> Telemetry:
            s0, s1, _, _ = self._bounds[i]
            wtel = Telemetry() if tel.enabled else NULL_TELEMETRY
            with wtel.span("split"):
                np.take(src_flat, seg._gather_flat[s0:s1], out=windows[s0:s1])
            return wtel

        def _stitch_shard(i: int) -> Telemetry:
            s0, s1, r0, r1 = self._bounds[i]
            wtel = Telemetry() if tel.enabled else NULL_TELEMETRY
            with wtel.span("stitch"):
                np.take(windows[s0:s1].reshape(-1), self._stitch[i], out=out[r0:r1])
            return wtel

        shards = range(self.num_shards)
        _join(_split_shard, shards, tel)
        resident_loop(
            seg, windows, applications, self.backend, tel,
            shards=[(s0, s1) for s0, s1, _, _ in self._bounds],
        )
        if out is None:
            out = np.empty(seg.grid_shape, dtype=seg.dtype)
        _join(_stitch_shard, shards, tel)
        if tel.enabled:
            tel.count("sharded_applies", applications)
            tel.count("shard_tasks", applications * self.num_shards)
            tel.count("points_stitched", int(np.prod(seg.grid_shape)))
            tel.record_cache(
                "sharding", workers=self.workers, shards=self.num_shards
            )
        return out


def _fuse_rows(
    seg: "SegmentPlan", backend: FFTBackend, rows: np.ndarray
) -> np.ndarray:
    """FFT × fused half spectrum × iFFT of any run of window rows."""
    axes = tuple(range(1, rows.ndim))
    spec = backend.rfftn(rows, axes)
    spec *= seg._half_spectrum
    return backend.irfftn(spec, seg.local_shape, axes)


def _join(
    task: Callable[[Any], Telemetry], items: Sequence, tel: Telemetry
) -> None:
    """Run ``task`` over ``items`` — on the shared pool when there are
    several — and merge the per-task telemetry sinks at the join."""
    if len(items) == 1:
        tels = [task(items[0])]
    else:
        tels = list(_pool(len(items)).map(task, items))
    if tel.enabled:
        for wtel in tels:
            tel.merge(wtel)


def resident_loop(
    seg: "SegmentPlan",
    windows: np.ndarray,
    applications: int,
    backend: FFTBackend,
    telemetry: Telemetry = NULL_TELEMETRY,
    shards: Sequence[tuple[int, int]] | None = None,
    fuse: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Advance a split window batch ``applications`` fused applications.

    The one resident time-stepping loop: serial runs (one shard), thread
    shards (:meth:`ShardedExecutor.run_resident`) and the stacked
    ``run_many`` batch all drive it between their own split and stitch.
    ``windows`` is a ``(B * total_segments, *local_shape)`` batch of B
    split grids and is advanced **in place**.  Per application:

    * zero boundary: the evolved boundary band is taken from thin input
      slabs (:meth:`~repro.core.tailoring.SegmentPlan.zero_band`) before
      the fuse overwrites them;
    * every shard's rows ``[s0, s1)`` fuse in place, in blocks of about
      :data:`FUSE_BLOCK_BYTES` — a window's FFT reads only that window, so
      its result may overwrite it.  Several shards run on the thread pool
      and the join is the one barrier per application.  ``fuse``
      (optional) replaces the real-FFT fuse of the whole batch
      (double-layer packing pairs rows across grids, so it is not
      blocked);
    * the band is written into its valid positions, then, between
      applications, every halo is refreshed from its owner's valid
      region (:class:`~repro.core.tailoring.HaloExchangePlan`).

    Overlap-save makes this bit-identical to stitch + band fix + re-split
    after every application (rows transform independently, so blocking
    changes no bits), while holding one window batch and block-sized
    transients instead of three batches, and moving only ``stale_points``
    values per transition.
    """
    if applications < 1:
        raise PlanError(f"applications must be >= 1, got {applications}")
    tel = telemetry
    s = seg.total_segments
    grids = range(0, windows.shape[0], s)
    shards = shards or [(0, windows.shape[0])]
    if fuse is None:
        fuse = lambda rows: _fuse_rows(seg, backend, rows)  # noqa: E731
        block = max(1, FUSE_BLOCK_BYTES // windows[0].nbytes)
    else:
        block = windows.shape[0]
    ex = seg.exchange_plan()
    zero_fix = seg.boundary == "zero" and seg.steps > 1

    def _fuse_shard(bounds: tuple[int, int]) -> Telemetry:
        s0, s1 = bounds
        wtel = Telemetry() if tel.enabled else NULL_TELEMETRY
        with wtel.span("fuse"):
            for r in range(s0, s1, block):
                rows = windows[r : min(r + block, s1)]
                np.copyto(rows, fuse(rows))
        return wtel

    for k in range(applications):
        if zero_fix:
            with tel.span("boundary_fix"):
                bands = [seg.zero_band(windows[g : g + s]) for g in grids]
        _join(_fuse_shard, shards, tel)
        if tel.enabled:
            tel.count("applications", 1)
            tel.count("windows", windows.shape[0])
            tel.count("fft_batches", len(shards))
        if zero_fix:
            with tel.span("boundary_fix"):
                for g, band in zip(grids, bands):
                    seg.write_zero_band(band, windows[g : g + s])
        if k + 1 < applications:
            with tel.span("exchange"):
                ex.refresh(windows, telemetry=tel)
            if tel.enabled:
                tel.count("hbm_round_trips_saved", 1)
    return windows
