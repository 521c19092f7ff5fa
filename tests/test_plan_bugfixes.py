"""Regression tests for the hot-path bugfixes in ``repro.core.plan``.

1. **Tail-result propagation** — ``run(..., emulate_tcu=True)`` with a
   remainder used to store the tail's :class:`StreamlineResult` on the
   *cache-shared* tail plan, mutating an object shared across callers and
   leaving the calling plan's result stale.  Now the result lands on the
   calling plan (``last_streamline_result``) and cache-owned plans are
   never mutated.
2. **Aliasing guard** — ``apply(grid, out=grid)`` under the zero boundary
   used to silently corrupt the boundary band (the band fix re-reads
   ``grid`` after ``out`` is written).  Now it raises :class:`PlanError`.
3. **Cache thread-safety** — the module-level plan cache is lock-guarded;
   a concurrent ``run()`` smoke test pins that.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import kernels as kz
from repro.core.plan import (
    _PLAN_CACHE_MAX,
    FlashFFTStencil,
    _plan_cache,
    plan_cache_clear,
    plan_cache_info,
)
from repro.core.reference import run_stencil
from repro.errors import PlanError


@pytest.fixture(autouse=True)
def clean_cache():
    plan_cache_clear()
    yield
    plan_cache_clear()


class TestTailResultPropagation:
    def test_tail_result_lands_on_calling_plan(self, rng):
        x = rng.standard_normal(640)
        plan = FlashFFTStencil(640, kz.heat_1d(), fused_steps=2, tile=128)
        plan.run(x, 5, emulate_tcu=True)  # 2 full + tail of 1
        result = plan.last_streamline_result
        assert result is not None
        # The last emulated apply is the tail (fused_steps=1): its executor
        # ran the tail plan's window shape, not necessarily this plan's —
        # what matters is the caller sees a result at all (it used to stay
        # stale on the caller and land on the shared tail plan instead).
        assert result.mma_stats.mma_ops > 0

    def test_tail_result_is_the_tail_apply(self, rng):
        x = rng.standard_normal(640)
        plan = FlashFFTStencil(640, kz.heat_1d(), fused_steps=2, tile=128)
        plan.apply(x, emulate_tcu=True)
        full_result = plan.last_streamline_result
        plan.run(x, 5, emulate_tcu=True)
        tail_result = plan.last_streamline_result
        assert tail_result is not full_result  # updated by the run

    def test_cached_tail_plan_is_never_mutated(self, rng):
        x = rng.standard_normal(640)
        plan = FlashFFTStencil(640, kz.heat_1d(), fused_steps=2, tile=128)
        plan.run(x, 5, emulate_tcu=True)
        (tail,) = _plan_cache.values()
        assert tail._cache_owned
        assert tail._last_result is None  # shared object stayed pristine
        assert tail.last_streamline_result is None

    def test_two_callers_do_not_share_results(self, rng):
        x = rng.standard_normal(640)
        a = FlashFFTStencil(640, kz.heat_1d(), fused_steps=2, tile=128)
        b = FlashFFTStencil(640, kz.heat_1d(), fused_steps=2, tile=128)
        a.run(x, 5, emulate_tcu=True)
        ra = a.last_streamline_result
        b.run(x, 5, emulate_tcu=True)
        # b's run reused the same cached tail plan but must not have
        # overwritten (or be sharing) a's stored result object.
        assert a.last_streamline_result is ra
        assert b.last_streamline_result is not ra

    def test_run_without_remainder_keeps_last_full_apply(self, rng):
        x = rng.standard_normal(640)
        plan = FlashFFTStencil(640, kz.heat_1d(), fused_steps=2, tile=128)
        plan.run(x, 4, emulate_tcu=True)
        assert plan.last_streamline_result is not None
        assert plan_cache_info()["size"] == 0  # no tail plan involved

    def test_numerics_unchanged_by_fix(self, rng):
        x = rng.standard_normal(640)
        plan = FlashFFTStencil(640, kz.heat_1d(), fused_steps=2, tile=128)
        got = plan.run(x, 5, emulate_tcu=True)
        np.testing.assert_allclose(got, run_stencil(x, kz.heat_1d(), 5), atol=1e-9)


class TestAliasingGuard:
    def test_out_aliasing_grid_raises_under_zero_boundary(self, rng):
        x = rng.standard_normal(256)
        plan = FlashFFTStencil(
            256, kz.heat_1d(), fused_steps=4, tile=32, boundary="zero"
        )
        with pytest.raises(PlanError, match="alias"):
            plan.apply(x, out=x)

    def test_overlapping_view_raises_under_zero_boundary(self, rng):
        buf = rng.standard_normal(300)
        grid = buf[:256]
        out = buf[44:]  # overlaps grid's tail
        plan = FlashFFTStencil(
            256, kz.heat_1d(), fused_steps=4, tile=32, boundary="zero"
        )
        with pytest.raises(PlanError, match="alias"):
            plan.apply(grid, out=out)

    def test_distinct_out_still_works_under_zero_boundary(self, rng):
        x = rng.standard_normal(256)
        out = np.empty_like(x)
        plan = FlashFFTStencil(
            256, kz.heat_1d(), fused_steps=4, tile=32, boundary="zero"
        )
        got = plan.apply(x, out=out)
        assert got is out
        np.testing.assert_allclose(
            got, run_stencil(x, kz.heat_1d(), 4, boundary="zero"), atol=1e-10
        )

    def test_periodic_boundary_allows_aliasing(self, rng):
        """Periodic plans never re-read grid after the stitch writes out."""
        x = rng.standard_normal(256)
        plan = FlashFFTStencil(256, kz.heat_1d(), fused_steps=4, tile=32)
        want = plan.apply(x.copy())
        got = plan.apply(x, out=x)
        np.testing.assert_array_equal(got, want)

    def test_guard_applies_in_run_loop_shapes(self, rng):
        """run() itself ping-pongs distinct buffers — must stay legal."""
        x = rng.standard_normal(256)
        plan = FlashFFTStencil(
            256, kz.heat_1d(), fused_steps=4, tile=32, boundary="zero"
        )
        got = plan.run(x, 9)
        np.testing.assert_allclose(
            got, run_stencil(x, kz.heat_1d(), 9, boundary="zero"), atol=1e-9
        )


class TestConcurrentPlanCache:
    def test_concurrent_runs_leave_cache_consistent(self, rng):
        """Hammer run() from several threads with overlapping tail keys."""
        x = rng.standard_normal(96)
        kernel = kz.heat_1d()
        want = {
            total: run_stencil(x, kernel, total) for total in (4, 5, 7, 10)
        }
        errors = []

        def work(seed: int):
            try:
                for i in range(6):
                    tile = 12 + 4 * ((seed + i) % 4)
                    total = (4, 5, 7, 10)[(seed + i) % 4]
                    plan = FlashFFTStencil(96, kernel, fused_steps=3, tile=tile)
                    got = plan.run(x, total)
                    np.testing.assert_allclose(got, want[total], atol=1e-8)
            except Exception as e:  # pragma: no cover - failure path
                errors.append(e)

        threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        info = plan_cache_info()
        assert info["size"] <= _PLAN_CACHE_MAX
        assert info["hits"] + info["misses"] > 0
        # Every cached entry is still a cache-owned, unmutated plan.
        assert all(p._cache_owned and p._last_result is None
                   for p in _plan_cache.values())


class TestPartialOverlapGuard:
    """Regression: the guard used to cover only the zero boundary, so a
    partially-overlapping ``out`` was silently accepted under periodic —
    the stitch then read windows from memory it had already clobbered."""

    def test_partial_overlap_raises_under_periodic(self, rng):
        buf = rng.standard_normal(300)
        grid, out = buf[:256], buf[44:]
        plan = FlashFFTStencil(256, kz.heat_1d(), fused_steps=4, tile=32)
        with pytest.raises(PlanError, match="alias"):
            plan.apply(grid, out=out)

    def test_reversed_view_raises_under_periodic(self, rng):
        x = rng.standard_normal(256)
        plan = FlashFFTStencil(256, kz.heat_1d(), fused_steps=4, tile=32)
        with pytest.raises(PlanError, match="alias"):
            plan.apply(x, out=x[::-1])

    def test_partial_overlap_raises_under_zero(self, rng):
        buf = rng.standard_normal(300)
        grid, out = buf[:256], buf[44:]
        plan = FlashFFTStencil(
            256, kz.heat_1d(), fused_steps=4, tile=32, boundary="zero"
        )
        with pytest.raises(PlanError, match="alias"):
            plan.apply(grid, out=out)

    def test_disjoint_halves_of_one_buffer_are_fine(self, rng):
        buf = rng.standard_normal(512)
        grid, out = buf[:256], buf[256:]
        plan = FlashFFTStencil(256, kz.heat_1d(), fused_steps=4, tile=32)
        want = plan.apply(grid.copy())
        np.testing.assert_array_equal(plan.apply(grid, out=out), want)


class TestConcurrentTelemetry:
    def test_shared_telemetry_counters_are_exact(self, rng):
        """Threads sharing the plan cache, spectrum LRU, and one enabled
        Telemetry sink must produce exact aggregate counters."""
        from repro.observability import Telemetry

        x = rng.standard_normal(96)
        kernel = kz.heat_1d()
        want = run_stencil(x, kernel, 7)
        tel = Telemetry()
        n_threads, n_runs = 6, 4
        errors = []

        def work(seed: int):
            try:
                for i in range(n_runs):
                    tile = 12 + 4 * ((seed + i) % 4)
                    plan = FlashFFTStencil(96, kernel, fused_steps=3, tile=tile)
                    got = plan.run(x, 7, telemetry=tel)
                    np.testing.assert_allclose(got, want, atol=1e-8)
            except Exception as e:  # pragma: no cover - failure path
                errors.append(e)

        threads = [threading.Thread(target=work, args=(s,)) for s in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # 7 steps at fused_steps=3 => two full applications plus a tail.
        # The two full applications stay resident and stitch once (the
        # halo exchange replaces the intermediate round trip); the tail
        # stitches its own.
        runs = n_threads * n_runs
        c = tel.snapshot()["counters"]
        assert c["applications"] == runs * 3
        assert c["points_stitched"] == runs * 2 * 96
        assert c["plan_cache_hits"] + c["plan_cache_misses"] == runs
        # No cross-thread mutation of cache-owned plans.
        assert all(p._cache_owned and p._last_result is None
                   for p in _plan_cache.values())

    def test_concurrent_robust_runs_share_telemetry(self, rng):
        """Robust mode (guards + sentinel) is also safe across threads."""
        from repro.observability import Telemetry
        from repro.robustness import RobustnessConfig, SentinelConfig

        x = rng.standard_normal(96)
        kernel = kz.heat_1d()
        want = run_stencil(x, kernel, 7)
        tel = Telemetry()
        rb = RobustnessConfig(sentinel=SentinelConfig(every=1))
        errors = []

        def work():
            try:
                for _ in range(3):
                    plan = FlashFFTStencil(96, kernel, fused_steps=3, tile=16)
                    got = plan.run(x, 7, telemetry=tel, robustness=rb)
                    np.testing.assert_allclose(got, want, atol=1e-8)
            except Exception as e:  # pragma: no cover - failure path
                errors.append(e)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        c = tel.snapshot()["counters"]
        assert c["sentinel_probes"] == 4 * 3 * 3
        assert "sentinel_breaches" not in c
        assert "guard_violations" not in c
