"""The telemetry layer (repro.observability) — units and pipeline wiring.

Unit level: span nesting, counter monotonicity/totals, NullTelemetry no-op
behaviour, JSON round-trip.  Integration level: a telemetry-enabled
``FlashFFTStencil.run()`` produces per-stage spans whose leaf times cover
the wall time, counters that match the plan geometry exactly, and cache
stats for both the plan cache and the spectrum cache.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.core import kernels as kz
from repro.core.kernels import spectrum_cache_clear, spectrum_cache_info
from repro.core.plan import FlashFFTStencil, plan_cache_clear
from repro.core.streamline import TCUStencilExecutor
from repro.core.tailoring import SegmentPlan
from repro.errors import PlanError
from repro.observability import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    telemetry_to_json,
)


@pytest.fixture(autouse=True)
def clean_caches():
    plan_cache_clear()
    spectrum_cache_clear()
    yield
    plan_cache_clear()
    spectrum_cache_clear()


# ---------------------------------------------------------------- unit level


class TestSpans:
    def test_single_span_records_time_and_calls(self):
        tel = Telemetry()
        with tel.span("work"):
            time.sleep(0.002)
        snap = tel.snapshot()
        assert snap["spans"]["work"]["calls"] == 1
        assert snap["spans"]["work"]["total_s"] >= 0.002

    def test_nested_spans_key_by_path(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner"):
                pass
            with tel.span("inner"):
                pass
        snap = tel.snapshot()
        assert set(snap["spans"]) == {"outer", "outer/inner"}
        assert snap["spans"]["outer/inner"]["calls"] == 2
        assert snap["spans"]["outer"]["calls"] == 1

    def test_span_accumulates_across_entries(self):
        tel = Telemetry()
        for _ in range(5):
            with tel.span("s"):
                pass
        assert tel.snapshot()["spans"]["s"]["calls"] == 5

    def test_span_pops_on_exception(self):
        tel = Telemetry()
        with pytest.raises(ValueError):
            with tel.span("outer"):
                raise ValueError("boom")
        with tel.span("after"):
            pass
        # "after" must not be nested under the failed span.
        assert "after" in tel.snapshot()["spans"]

    def test_stage_seconds_returns_only_leaves(self):
        tel = Telemetry()
        with tel.span("a"):
            with tel.span("b"):
                pass
        with tel.span("c"):
            pass
        leaves = tel.stage_seconds()
        assert set(leaves) == {"a/b", "c"}


class TestCounters:
    def test_counters_accumulate(self):
        tel = Telemetry()
        tel.count("x", 3)
        tel.count("x", 4)
        tel.count("y")
        assert tel.snapshot()["counters"] == {"x": 7, "y": 1}

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Telemetry().count("x", -1)

    def test_record_cache_overwrites(self):
        tel = Telemetry()
        tel.record_cache("c", hits=1, misses=2)
        tel.record_cache("c", hits=5, misses=2)
        assert tel.snapshot()["caches"]["c"] == {"hits": 5, "misses": 2}

    def test_reset_clears_everything(self):
        tel = Telemetry()
        tel.count("x")
        with tel.span("s"):
            pass
        tel.record_cache("c", hits=0)
        tel.reset()
        assert tel.snapshot() == {
            "spans": {},
            "counters": {},
            "caches": {},
            "events": [],
            "events_dropped": 0,
            "observations": {},
        }


class TestObservations:
    def test_observe_and_summarise(self):
        tel = Telemetry()
        for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
            tel.observe("lat", v)
        summary = tel.observation("lat")
        assert summary["count"] == 5
        assert summary["sum"] == 15.0
        assert summary["mean"] == 3.0
        assert summary["min"] == 1.0
        assert summary["max"] == 5.0
        assert summary["dropped"] == 0

    def test_percentiles_nearest_rank(self):
        tel = Telemetry()
        for v in range(1, 101):
            tel.observe("lat", float(v))
        assert tel.percentile("lat", 50) in (50.0, 51.0)  # rank rounding
        assert tel.percentile("lat", 99) == 99.0
        assert tel.percentile("lat", 0) == 1.0
        assert tel.percentile("lat", 100) == 100.0
        assert tel.percentile("absent", 50) is None
        with pytest.raises(ValueError):
            tel.percentile("lat", 101)

    def test_sample_cap_keeps_exact_aggregates(self):
        tel = Telemetry()
        n = Telemetry.OBSERVE_LIMIT + 50
        for v in range(n):
            tel.observe("lat", float(v))
        summary = tel.observation("lat")
        assert summary["count"] == n
        assert summary["sum"] == float(sum(range(n)))
        assert summary["max"] == float(n - 1)
        assert summary["dropped"] == 50

    def test_merge_folds_observations(self):
        a, b = Telemetry(), Telemetry()
        a.observe("lat", 1.0)
        b.observe("lat", 3.0)
        b.observe("other", 7.0)
        a.merge(b)
        assert a.observation("lat")["count"] == 2
        assert a.observation("lat")["sum"] == 4.0
        assert a.observation("other")["count"] == 1

    def test_reset_clears_observations(self):
        tel = Telemetry()
        tel.observe("lat", 1.0)
        tel.reset()
        assert tel.observation("lat") is None

    def test_null_telemetry_noop(self):
        tel = NullTelemetry()
        tel.observe("lat", 1.0)
        assert tel.percentile("lat", 50) is None
        assert tel.observation("lat") is None

    def test_json_round_trip_with_observations(self):
        tel = Telemetry()
        tel.observe("lat", 2.5)
        decoded = json.loads(telemetry_to_json(tel))
        assert decoded["observations"]["lat"]["count"] == 1


class TestNullTelemetry:
    def test_records_nothing(self):
        tel = NullTelemetry()
        with tel.span("s"):
            tel.count("x", 10)
            tel.record_cache("c", hits=1)
        assert tel.snapshot() == {
            "spans": {},
            "counters": {},
            "caches": {},
            "events": [],
            "events_dropped": 0,
            "observations": {},
        }
        assert tel.stage_seconds() == {}

    def test_disabled_flag(self):
        assert NULL_TELEMETRY.enabled is False
        assert Telemetry().enabled is True

    def test_span_is_shared_singleton(self):
        tel = NullTelemetry()
        assert tel.span("a") is tel.span("b")

    def test_is_a_telemetry(self):
        assert isinstance(NULL_TELEMETRY, Telemetry)


class TestJSON:
    def test_round_trip(self):
        tel = Telemetry()
        with tel.span("apply"):
            with tel.span("fuse"):
                pass
        tel.count("windows", 16)
        tel.record_cache("plan_cache", hits=2, misses=1, size=1)
        decoded = json.loads(telemetry_to_json(tel))
        assert decoded == tel.snapshot()

    def test_accepts_prior_snapshot(self):
        tel = Telemetry()
        tel.count("n", 2)
        snap = tel.snapshot()
        assert json.loads(telemetry_to_json(snap)) == snap

    def test_null_serializes_empty(self):
        decoded = json.loads(telemetry_to_json(NULL_TELEMETRY))
        assert decoded == {
            "caches": {},
            "counters": {},
            "spans": {},
            "events": [],
            "events_dropped": 0,
            "observations": {},
        }


class TestThreadSafety:
    def test_concurrent_counts_do_not_lose_increments(self):
        tel = Telemetry()
        n, per = 8, 500

        def work():
            for _ in range(per):
                tel.count("events")
                with tel.span("stage"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = tel.snapshot()
        assert snap["counters"]["events"] == n * per
        assert snap["spans"]["stage"]["calls"] == n * per


# ------------------------------------------------------------ pipeline wiring


class TestRunTelemetry:
    def test_counters_match_plan_geometry(self, rng):
        x = rng.standard_normal((64, 64))
        plan = FlashFFTStencil((64, 64), kz.heat_2d(), fused_steps=4, tile=(16, 16))
        tel = Telemetry()
        plan.run(x, 9, telemetry=tel)  # 2 full + 1 tail application
        c = tel.snapshot()["counters"]
        segs = plan.segments.total_segments
        assert c["applications"] == 3
        assert c["windows"] == segs * 3  # tile override reaches the tail
        # The two full applications stay resident and stitch once (the
        # halo exchange replaces the intermediate round trip); the tail
        # stitches its own application.
        assert c["points_stitched"] == 64 * 64 * 2
        # One FFT batch per shard per application (the serial engine is
        # one shard), whatever worker count this host autotunes.
        def shards(p):
            ex = p._shard_executor
            return ex.num_shards if ex is not None else 1

        tail = plan._tail_plan(1)
        assert c["fft_batches"] == 2 * shards(plan) + shards(tail)
        assert c["plan_cache_misses"] == 1

    def test_stage_spans_cover_wall_time(self, rng):
        x = rng.standard_normal((48, 48, 48))
        # workers=1 / processes=1: the coverage property belongs to the
        # serial in-process engine.  Process-rank spans deliberately
        # exclude barrier waits, and concurrent shard-thread spans sum to
        # more than the wall time, so neither engine can meet both bounds.
        plan = FlashFFTStencil(
            (48, 48, 48), kz.heat_3d(), fused_steps=2, tile=(16, 16, 16),
            workers=1,
        )
        plan.run(x, 5, processes=1)  # warm plan + spectrum caches
        tel = Telemetry()
        t0 = time.perf_counter()
        plan.run(x, 5, telemetry=tel, processes=1)
        wall = time.perf_counter() - t0
        covered = sum(tel.stage_seconds().values())
        assert covered <= wall
        assert covered >= 0.9 * wall  # acceptance: within 10% of wall time

    def test_expected_span_names_present(self, rng):
        x = rng.standard_normal(256)
        plan = FlashFFTStencil(256, kz.heat_1d(), fused_steps=4, tile=32)
        tel = Telemetry()
        plan.run(x, 9, telemetry=tel)
        spans = set(tel.snapshot()["spans"])
        assert {"split", "fuse", "stitch", "tail", "tail/split"} <= spans

    def test_boundary_fix_span_under_zero_boundary(self, rng):
        x = rng.standard_normal(256)
        plan = FlashFFTStencil(
            256, kz.heat_1d(), fused_steps=4, tile=32, boundary="zero"
        )
        tel = Telemetry()
        plan.apply(x, telemetry=tel)
        assert "boundary_fix" in tel.snapshot()["spans"]

    def test_cache_stats_recorded(self, rng):
        x = rng.standard_normal(256)
        plan = FlashFFTStencil(256, kz.heat_1d(), fused_steps=4, tile=32)
        tel = Telemetry()
        plan.run(x, 9, telemetry=tel)
        caches = tel.snapshot()["caches"]
        assert caches["plan_cache"]["misses"] >= 1
        assert caches["spectrum_cache"]["size"] >= 1

    def test_emulated_run_records_mma_counters(self, rng):
        x = rng.standard_normal(640)
        plan = FlashFFTStencil(640, kz.heat_1d(), fused_steps=2, tile=128)
        tel = Telemetry()
        out = plan.run(x, 4, emulate_tcu=True, telemetry=tel)
        c = tel.snapshot()["counters"]
        assert c["mma_ops"] > 0
        assert c["tcu_applies"] == 2
        assert c["pipeline_cycles"] >= c["pipeline_mma_cycles"] > 0
        np.testing.assert_allclose(out, plan.run(x, 4), atol=1e-9)

    def test_default_run_is_untouched(self, rng):
        """No telemetry argument -> numerics identical, nothing recorded."""
        x = rng.standard_normal(256)
        plan = FlashFFTStencil(256, kz.heat_1d(), fused_steps=4, tile=32)
        tel = Telemetry()
        np.testing.assert_array_equal(
            plan.run(x, 9), plan.run(x, 9, telemetry=tel)
        )

    def test_segment_plan_run_takes_telemetry(self, rng):
        x = rng.standard_normal(96)
        sp = SegmentPlan((96,), kz.heat_1d(), 2, (24,))
        tel = Telemetry()
        out = sp.run(x, telemetry=tel)
        np.testing.assert_array_equal(out, sp.run(x))
        snap = tel.snapshot()
        assert snap["counters"]["windows"] == sp.total_segments
        assert {"split", "fuse", "stitch"} <= set(snap["spans"])

    def test_executor_run_takes_telemetry(self, rng):
        plan = FlashFFTStencil(640, kz.heat_1d(), fused_steps=2, tile=128)
        segs = rng.standard_normal((4,) + plan.local_shape)
        tel = Telemetry()
        result = plan.executor.run(segs, telemetry=tel)
        assert tel.snapshot()["counters"]["mma_ops"] == result.mma_stats.mma_ops


class TestSpectrumCache:
    def test_hits_and_misses_counted(self):
        k = kz.heat_1d()
        k.spectrum(64)
        info = spectrum_cache_info()
        assert info["misses"] == 1 and info["hits"] == 0
        k.spectrum(64)
        info = spectrum_cache_info()
        assert info["hits"] == 1 and info["size"] == 1

    def test_identity_and_readonly_preserved(self):
        k = kz.heat_2d()
        a = k.temporal_spectrum((16, 16), 3)
        b = k.temporal_spectrum((16, 16), 3)
        assert a is b
        assert not a.flags.writeable

    def test_clear_resets(self):
        kz.heat_1d().spectrum(32)
        spectrum_cache_clear()
        assert spectrum_cache_info() == {
            "hits": 0,
            "misses": 0,
            "seeds": 0,
            "size": 0,
            "maxsize": 256,
        }

    def test_lru_bound_respected(self):
        k = kz.heat_1d()
        for n in range(16, 16 + 300):
            k.spectrum(n)
        assert spectrum_cache_info()["size"] <= 256

    def test_concurrent_spectrum_lookups(self):
        spectrum_cache_clear()
        kernels = [kz.heat_1d(), kz.star_1d5p(), kz.star_1d7p()]
        errors = []

        def work(seed: int):
            try:
                for i in range(40):
                    k = kernels[(seed + i) % len(kernels)]
                    spec = k.temporal_spectrum(32 + (i % 7), 1 + (i % 3))
                    assert not spec.flags.writeable
            except Exception as e:  # pragma: no cover - failure path
                errors.append(e)

        threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        info = spectrum_cache_info()
        assert info["hits"] + info["misses"] == 8 * 40
