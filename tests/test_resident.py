"""Segment-resident run engine: halo exchange vs stitch + re-split.

``run`` and ``run_many`` keep the window batch resident across full
applications.  Covered end to end:

* bit-identity with an explicit loop of ``plan.apply`` calls (one
  stitched application each, then the tail plan's ``apply``) across
  dimensionality, boundary handling, ragged tiling, worker counts, and
  remainder tails — the overlap-save exactness argument (every halo point
  has exactly one owner) made executable;
* :class:`~repro.core.tailoring.HaloExchangePlan` strategy selection and
  the slab/gather numerical agreement on geometries where both apply;
* the emulated-TCU path, which runs one stitched application at a time;
* telemetry evidence: the per-application ``split``/``stitch`` spans
  collapse into ``exchange``, with ``halo_points_exchanged`` and
  ``hbm_round_trips_saved`` counting the saved round trips;
* robustness interplay: sentinel probes, checkpoint/restore, and fault
  retries land on stitch-consistent grids even when the engine runs the
  applications between them as resident chunks;
* memory: the resident loop fuses in place, so neither ``run`` nor
  ``run_many`` peaks above the apply loop it replaces, and the plan's
  workspace arena does not grow.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import kernels as kz
from repro.core.plan import FlashFFTStencil
from repro.errors import PlanError
from repro.observability import Telemetry
from repro.robustness import (
    FaultInjector,
    FaultSpec,
    MemoryCheckpointStore,
    RobustnessConfig,
    SentinelConfig,
)

#: (id, grid shape, kernel factory, tile, fused steps, boundary)
#: — spans 1/2/3-D, periodic/zero, uniform/ragged tiling (ragged forces
#: the gather exchange strategy).
GEOMETRIES = [
    ("1d-periodic", (256,), kz.heat_1d, (32,), 4, "periodic"),
    ("1d-zero", (256,), kz.heat_1d, (32,), 4, "zero"),
    ("1d-ragged", (97,), kz.heat_1d, (32,), 4, "periodic"),
    ("2d-periodic", (48, 48), kz.heat_2d, (16, 16), 2, "periodic"),
    ("2d-zero-ragged", (45, 40), kz.heat_2d, (16, 16), 2, "zero"),
    ("3d-periodic", (24, 24, 24), kz.heat_3d, (8, 8, 8), 2, "periodic"),
]


def _plan(geom, workers=None):
    _, shape, kf, tile, fused, boundary = geom
    return FlashFFTStencil(
        shape, kf(), fused_steps=fused, tile=tile, boundary=boundary,
        workers=workers,
    )


def _apply_loop(plan, x, total):
    """The non-resident baseline: one stitched ``apply`` per full
    application, then the cached tail plan's ``apply`` for the remainder."""
    full, rem = divmod(total, plan.fused_steps)
    for _ in range(full):
        x = plan.apply(x)
    if rem:
        x = plan._tail_plan(rem).apply(x)
    return x


class TestBitIdentity:
    @pytest.mark.parametrize("geom", GEOMETRIES, ids=[g[0] for g in GEOMETRIES])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_run_matches_nonresident(self, geom, workers, rng):
        plan = _plan(geom, workers=workers)
        x = rng.standard_normal(geom[1])
        fused = geom[4]
        for total in (3 * fused, 3 * fused + max(1, fused // 2)):
            assert np.array_equal(plan.run(x, total), _apply_loop(plan, x, total))

    @pytest.mark.parametrize("geom", GEOMETRIES, ids=[g[0] for g in GEOMETRIES])
    def test_run_many_matches_per_grid(self, geom, rng):
        plan = _plan(geom)
        fused = geom[4]
        total = 3 * fused + max(1, fused // 2)
        gs = np.stack([rng.standard_normal(geom[1]) for _ in range(3)])
        want = np.stack([_apply_loop(plan, g, total) for g in gs])
        assert np.array_equal(plan.run_many(gs, total), want)

    def test_single_application_falls_back(self, rng):
        # full == 1: no transition to save; one split, fuse and stitch
        # compute exactly what apply does.
        plan = FlashFFTStencil((64,), kz.heat_1d(), fused_steps=4, tile=(16,))
        x = rng.standard_normal(64)
        assert np.array_equal(plan.run(x, 4), plan.apply(x))


class TestExchangePlan:
    def test_auto_prefers_slab_on_uniform_tiles(self):
        plan = FlashFFTStencil((64, 64), kz.heat_2d(), fused_steps=2, tile=(16, 16))
        assert plan.segments.exchange_plan().strategy == "slab"

    def test_auto_falls_back_to_gather_on_ragged(self):
        plan = FlashFFTStencil((97,), kz.heat_1d(), fused_steps=4, tile=(32,))
        assert plan.segments.exchange_plan().strategy == "gather"

    def test_slab_refuses_ragged(self):
        plan = FlashFFTStencil((97,), kz.heat_1d(), fused_steps=4, tile=(32,))
        with pytest.raises(PlanError):
            plan.segments.exchange_plan(strategy="slab")

    def test_stale_points_is_window_excess(self):
        plan = FlashFFTStencil((64, 64), kz.heat_2d(), fused_steps=2, tile=(16, 16))
        seg = plan.segments
        ex = seg.exchange_plan()
        total = seg.total_segments * int(np.prod(seg.local_shape))
        assert ex.stale_points == total - 64 * 64

    @pytest.mark.parametrize(
        "boundary", ["periodic", "zero"], ids=["periodic", "zero"]
    )
    def test_refresh_equals_stitch_resplit(self, boundary, rng):
        # The core contract, asserted directly on the fused batch: after
        # refresh, the batch equals split(stitch(batch)) bit for bit.
        plan = FlashFFTStencil(
            (48, 48), kz.heat_2d(), fused_steps=2, tile=(16, 16),
            boundary=boundary,
        )
        seg = plan.segments
        fused = seg.fuse(seg.split(rng.standard_normal((48, 48))))
        want = seg.split(seg.stitch(fused.copy()))
        for strategy in ("slab", "gather"):
            got = seg.exchange_plan(strategy=strategy).refresh(fused.copy())
            assert np.array_equal(got, want), strategy

    def test_gather_scratch_path_matches(self, rng):
        plan = FlashFFTStencil((97,), kz.heat_1d(), fused_steps=4, tile=(32,))
        seg = plan.segments
        ex = seg.exchange_plan()
        fused = seg.fuse(seg.split(rng.standard_normal(97)))
        want = ex.refresh(fused.copy())
        scratch = np.empty(ex.stale_points, dtype=np.float64)
        got = ex.refresh(fused.copy(), scratch=scratch)
        assert np.array_equal(got, want)


class TestEmulation:
    def test_emulated_run_stitches_every_application(self, rng):
        # The emulated TCU pipeline has no halo-refresh hook: it runs one
        # stitched application at a time and never exchanges.
        plan = FlashFFTStencil((64,), kz.heat_1d(), fused_steps=4, tile=(16,))
        x = rng.standard_normal(64)
        tel = Telemetry()
        got = plan.run(x, 8, emulate_tcu=True, telemetry=tel)
        assert np.allclose(got, plan.run(x, 8), atol=1e-10)
        snap = tel.snapshot()
        assert "exchange" not in snap["spans"]
        assert snap["spans"]["stitch"]["calls"] == 2


class TestTelemetry:
    def test_spans_collapse_and_counters_count(self, rng):
        # workers=1 pins the serial engine even under $REPRO_WORKERS:
        # sharded residency batches FFTs per shard, changing fft_batches.
        plan = FlashFFTStencil(
            (64, 64), kz.heat_2d(), fused_steps=2, tile=(16, 16), workers=1
        )
        x = rng.standard_normal((64, 64))
        tel = Telemetry()
        plan.run(x, 6, telemetry=tel)  # 3 full applications
        snap = tel.snapshot()
        c = snap["counters"]
        seg = plan.segments
        ex = seg.exchange_plan()
        assert c["applications"] == 3
        assert c["fft_batches"] == 3
        # One split at entry, one stitch at exit — two transitions saved.
        assert c["hbm_round_trips_saved"] == 2
        assert c["halo_points_exchanged"] == 2 * ex.stale_points
        assert c["points_stitched"] == 64 * 64
        assert {"split", "fuse", "exchange", "stitch"} <= set(snap["spans"])

    def test_sharded_resident_counters_match_serial(self, rng):
        plan = FlashFFTStencil(
            (64, 64), kz.heat_2d(), fused_steps=2, tile=(16, 16), workers=2
        )
        x = rng.standard_normal((64, 64))
        tel = Telemetry()
        plan.run(x, 6, telemetry=tel)
        c = tel.snapshot()["counters"]
        assert c["applications"] == 3
        assert c["hbm_round_trips_saved"] == 2
        assert c["halo_points_exchanged"] == 2 * plan.segments.exchange_plan().stale_points


class TestRobustnessInterplay:
    def _geometry(self):
        return FlashFFTStencil((96,), kz.heat_1d(), fused_steps=2, tile=(32,))

    def test_sentinel_and_checkpoint_mid_resident_run(self, rng):
        # full = 8 applications; sentinel probes at 4 and 8, checkpoints
        # every 3.  Probes and snapshots need stitch-consistent grids, so
        # the engine must break the resident stretch exactly there — and
        # still return the bit-identical answer.
        plan = self._geometry()
        x = rng.standard_normal(96)
        rb = RobustnessConfig(
            sentinel=SentinelConfig(every=4),
            checkpoint_every=3,
            checkpoint_store=MemoryCheckpointStore(),
        )
        tel = Telemetry()
        got = plan.run(x, 16, robustness=rb, telemetry=tel)
        assert np.array_equal(got, _apply_loop(plan, x, 16))
        c = tel.snapshot()["counters"]
        assert c["sentinel_probes"] >= 1
        assert c["checkpoint_saves"] >= 1
        assert c["hbm_round_trips_saved"] >= 1  # some stretch stayed resident

    def test_transient_fault_recovery_stays_bit_identical(self, rng):
        plan = self._geometry()
        x = rng.standard_normal(96)
        injector = FaultInjector(
            [FaultSpec(stage="fuse", kind="nan", apply_index=4, count=2)]
        )
        rb = RobustnessConfig(
            checkpoint_every=2,
            checkpoint_store=MemoryCheckpointStore(),
            injector=injector,
        )
        tel = Telemetry()
        got = plan.run(x, 16, robustness=rb, telemetry=tel)
        assert np.array_equal(got, _apply_loop(plan, x, 16))
        c = tel.snapshot()["counters"]
        assert c["faults_injected"] >= 1
        # The fault was recovered by retry or restore — with evidence.
        assert c.get("stage_retries", 0) + c.get("checkpoint_restores", 0) >= 1


class TestMemory:
    """The resident loop fuses the window batch in place and saves only the
    thin zero-boundary band, so it needs no more memory than the apply
    loop it replaced (which never held a second window batch)."""

    SHAPE = (40, 36, 34)
    STEPS = 7  # 3 full applications + a tail

    def _plan(self):
        # Ragged tiles force the gather exchange; two workers shard it.
        plan = FlashFFTStencil(
            self.SHAPE, kz.heat_3d(), fused_steps=2, tile=(12, 12, 12),
            boundary="zero", workers=2,
        )
        assert plan.segments.exchange_plan().strategy == "gather"
        assert plan._shard_executor is not None
        return plan

    @staticmethod
    def _peak(fn, reps: int = 3) -> int:
        """Largest traced allocation peak of ``fn`` over ``reps`` calls
        (the worst case: shard threads may or may not overlap)."""
        peaks = []
        for _ in range(reps):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                fn()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        return max(peaks)

    def test_run_peaks_no_higher_than_apply_loop(self, rng):
        plan = self._plan()
        x = rng.standard_normal(self.SHAPE)
        want = _apply_loop(plan, x, self.STEPS)  # warms caches and arena
        arena_bytes = sum(a.nbytes() for a in plan._arena_pool)
        assert np.array_equal(plan.run(x, self.STEPS), want)
        # Residency needs no second window batch or halo buffer.
        assert sum(a.nbytes() for a in plan._arena_pool) == arena_bytes
        loop_peak = self._peak(lambda: _apply_loop(plan, x, self.STEPS))
        run_peak = self._peak(lambda: plan.run(x, self.STEPS))
        assert run_peak <= loop_peak, (run_peak, loop_peak)

    def test_run_many_peaks_no_higher_than_apply_many_loop(self, rng):
        plan = self._plan()
        gs = np.stack([rng.standard_normal(self.SHAPE) for _ in range(3)])
        full, rem = divmod(self.STEPS, plan.fused_steps)
        tail = plan._tail_plan(rem)

        def apply_many_loop():
            cur = gs
            for _ in range(full):
                cur = plan.apply_many(cur)
            return tail.apply_many(cur)

        want = np.stack([_apply_loop(plan, g, self.STEPS) for g in gs])
        assert np.array_equal(apply_many_loop(), want)
        assert np.array_equal(plan.run_many(gs, self.STEPS, workers=1), want)
        loop_peak = self._peak(apply_many_loop)
        many_peak = self._peak(lambda: plan.run_many(gs, self.STEPS, workers=1))
        assert many_peak <= loop_peak, (many_peak, loop_peak)
