"""Tests for the online autotuner (repro.tuner).

Covers workload-signature stability (including cross-process hashing with
varied ``PYTHONHASHSEED``), the candidate space and model pruning, the
search/budget/persistence loop, the strict ``$REPRO_AUTOTUNE`` flag, the
``plan.run(tune=...)`` conflict rules, the serving batch dimension, and
the acceptance criterion that a persisted tuned configuration warm-starts
a fresh spawned process without re-trialing.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import kernels as kz
from repro.core.plan import FlashFFTStencil
from repro.errors import PlanError
from repro.serving import PlanDiskCache, ServingConfig, StencilServer
from repro.tuner import (
    AUTOTUNE_ENV,
    OnlineTuner,
    TunerCandidate,
    TunerPolicy,
    autotune_default,
    candidate_space,
    kernel_digest,
    predicted_seconds,
    prune_candidates,
    reset_default_tuner,
    static_candidate,
    workload_signature,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _fresh_default_tuner():
    reset_default_tuner()
    yield
    reset_default_tuner()


def small_plan(points: int = 1 << 12, fused: int = 8) -> FlashFFTStencil:
    return FlashFFTStencil((points,), kz.heat_1d(), fused_steps=fused)


# --------------------------------------------------------------------------
# Workload signatures
# --------------------------------------------------------------------------


class TestSignature:
    def test_from_dense_matches_tap_construction(self):
        taps = kz.StencilKernel([-1, 0, 1], [0.25, 0.5, 0.25], name="a")
        dense = kz.StencilKernel.from_dense(
            np.array([0.25, 0.5, 0.25]), name="b"
        )
        assert kernel_digest(taps) == kernel_digest(dense)

    def test_tap_order_does_not_matter(self):
        a = kz.StencilKernel([-1, 0, 1], [0.25, 0.5, 0.25])
        b = kz.StencilKernel([1, 0, -1], [0.25, 0.5, 0.25])
        assert kernel_digest(a) == kernel_digest(b)

    def test_name_is_excluded(self):
        a = kz.StencilKernel([0], [1.0], name="x")
        b = kz.StencilKernel([0], [1.0], name="y")
        assert kernel_digest(a) == kernel_digest(b)

    def test_weight_changes_digest(self):
        a = kz.StencilKernel([0], [1.0])
        b = kz.StencilKernel([0], [1.0 + 1e-15])
        assert kernel_digest(a) != kernel_digest(b)

    def test_precision_distinguishes_signatures(self):
        p64 = small_plan()
        p32 = FlashFFTStencil(
            (1 << 12,), kz.heat_1d(), fused_steps=8, precision="float32"
        )
        s64 = workload_signature(p64, 64)
        s32 = workload_signature(p32, 64)
        assert s64.precision == "float64" and s32.precision == "float32"
        assert s64.digest() != s32.digest()

    def test_steps_and_batch_distinguish(self):
        plan = small_plan()
        assert (
            workload_signature(plan, 64).digest()
            != workload_signature(plan, 32).digest()
        )
        assert (
            workload_signature(plan, 64, batch=4).digest()
            != workload_signature(plan, 64).digest()
        )

    def test_key_string_round_trips_through_digest(self):
        sig = workload_signature(small_plan(), 64)
        assert sig.key_string().startswith("tuner|")
        assert len(sig.digest()) == 32

    @pytest.mark.parametrize("seed", ["0", "42"])
    def test_stable_across_processes_and_hash_seeds(self, seed):
        # The digest must come out identical in interpreters with
        # different PYTHONHASHSEED (i.e. no builtin hash() anywhere).
        code = (
            "from repro.core import kernels as kz\n"
            "from repro.core.plan import FlashFFTStencil\n"
            "from repro.tuner import kernel_digest, workload_signature\n"
            "k = kz.StencilKernel([1, 0, -1], [0.25, 0.5, 0.25])\n"
            "plan = FlashFFTStencil((4096,), kz.heat_1d(), fused_steps=8)\n"
            "print(kernel_digest(k))\n"
            "print(workload_signature(plan, 64).digest())\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.split()
        here_k = kernel_digest(kz.StencilKernel([-1, 0, 1], [0.25, 0.5, 0.25]))
        here_sig = workload_signature(small_plan(4096), 64).digest()
        assert out == [here_k, here_sig]


# --------------------------------------------------------------------------
# Candidate space and model pruning
# --------------------------------------------------------------------------


class TestSpace:
    def test_static_candidate_mirrors_plan(self):
        plan = small_plan()
        cand = static_candidate(plan, 64)
        assert cand.fused_steps == plan.fused_steps
        assert cand.backend.startswith(plan.backend.name)

    def test_static_is_first_and_unique(self):
        plan = small_plan()
        cands = candidate_space(plan, 64)
        assert cands[0] == static_candidate(plan, 64)
        assert len(set(cands)) == len(cands)

    def test_varies_depth_backend_workers(self):
        plan = small_plan()
        cands = candidate_space(plan, 64)
        depths = {c.fused_steps for c in cands}
        assert {4, 8, 16} <= depths
        assert len({c.backend for c in cands}) >= 2
        assert all(c.workers >= 0 for c in cands)

    def test_candidate_json_round_trip(self):
        cand = TunerCandidate(
            fused_steps=8, tile=(64, 64), backend="scipy:2", workers=2,
            processes=2, batch=4,
        )
        assert TunerCandidate.from_json(cand.to_json()) == cand

    def test_label_is_compact(self):
        cand = TunerCandidate(8, None, "numpy", 0, 1)
        assert cand.label() == "T=8,numpy,w=auto"


class TestModel:
    def test_predictions_positive_and_finite(self):
        plan = small_plan()
        for cand in candidate_space(plan, 64):
            t = predicted_seconds(plan, cand, 64)
            assert 0.0 < t < 1e6

    def test_prune_keeps_static_first(self):
        plan = small_plan()
        cands = candidate_space(plan, 64)
        survivors = prune_candidates(plan, cands, 64, keep=3)
        assert survivors[0] == cands[0]
        assert len(survivors) <= 3

    def test_prune_drops_infeasible_depths(self):
        plan = small_plan(1 << 12, fused=8)
        # A depth whose halo swallows any admissible window is infeasible.
        bogus = replace(static_candidate(plan, 64), fused_steps=1 << 20, tile=None)
        with pytest.raises(PlanError):
            predicted_seconds(plan, bogus, 64)
        survivors = prune_candidates(plan, [static_candidate(plan, 64), bogus], 64, 4)
        assert bogus not in survivors

    def test_deeper_fusion_amortises_transforms(self):
        plan = FlashFFTStencil((1 << 16,), kz.heat_1d(), fused_steps=2)
        static = static_candidate(plan, 64)
        deep = replace(static, fused_steps=8, tile=None)
        assert predicted_seconds(plan, deep, 64) < predicted_seconds(plan, static, 64)


# --------------------------------------------------------------------------
# Policy and eligibility
# --------------------------------------------------------------------------


class TestPolicy:
    def test_validation(self):
        with pytest.raises(PlanError):
            TunerPolicy(max_trial_fraction=0.0)
        with pytest.raises(PlanError):
            TunerPolicy(max_trial_fraction=1.5)
        with pytest.raises(PlanError):
            TunerPolicy(rounds=0)
        with pytest.raises(PlanError):
            TunerPolicy(min_gain=0.9)

    def test_floors_keep_small_workloads_static(self, rng):
        tuner = OnlineTuner()  # default floors: 1<<16 points, 4 apps
        plan = small_plan(1 << 10)
        assert not tuner.eligible(plan, 64)
        x = rng.standard_normal(1 << 10)
        out = tuner.run(plan, x, 64)
        assert tuner.searches == 0
        assert np.array_equal(out, plan.run(x, 64, tune=False))

    def test_application_floor(self):
        tuner = OnlineTuner(policy=TunerPolicy(min_points=1))
        plan = small_plan()
        assert tuner.eligible(plan, 8 * 4)
        assert not tuner.eligible(plan, 8 * 3)

    def test_batch_counts_toward_point_floor(self):
        tuner = OnlineTuner(policy=TunerPolicy(min_points=1 << 14))
        plan = small_plan(1 << 12)
        assert not tuner.eligible(plan, 64)
        assert tuner.eligible(plan, 64, batch=8)


# --------------------------------------------------------------------------
# Search, budget, and execution
# --------------------------------------------------------------------------


class TestSearch:
    def test_search_picks_a_survivor_and_persists(self, rng):
        tuner = OnlineTuner(policy=TunerPolicy(min_points=1))
        plan = small_plan(1 << 14)
        x = rng.standard_normal(1 << 14)
        steps = 8 * 64
        out = tuner.run(plan, x, steps)
        assert tuner.searches == 1
        assert tuner.trials_run > 0
        sig = workload_signature(plan, steps)
        winner = tuner._lookup(sig)
        survivors = prune_candidates(
            plan, candidate_space(plan, steps), steps, tuner.policy.keep
        )
        assert winner in survivors
        # The output is the winner's own run, bit-identical.
        target = tuner.plan_for(plan, winner)
        want = target.run(x, steps, processes=winner.processes, tune=False)
        assert np.array_equal(out, want)

    def test_second_run_hits_cache_without_trials(self, rng):
        tuner = OnlineTuner(policy=TunerPolicy(min_points=1))
        plan = small_plan(1 << 14)
        x = rng.standard_normal(1 << 14)
        tuner.run(plan, x, 8 * 64)
        trials = tuner.trials_run
        tuner.run(plan, x, 8 * 64)
        assert tuner.searches == 1
        assert tuner.cache_hits == 1
        assert tuner.trials_run == trials

    def test_trial_budget_bounds_live_traffic(self, rng):
        pol = TunerPolicy(min_points=1)
        tuner = OnlineTuner(policy=pol)
        plan = small_plan(1 << 14)
        steps = 8 * 64
        tuner.run(plan, rng.standard_normal(1 << 14), steps)
        assert tuner.trials_run <= int(pol.max_trial_fraction * steps)

    def test_equal_step_trials(self):
        tuner = OnlineTuner()
        inc = TunerCandidate(8, None, "numpy", 1, 1)
        cha = replace(inc, fused_steps=12)
        steps = tuner._trial_steps_for(cha, inc)
        assert steps % 8 == 0 and steps % 12 == 0

    def test_process_trials_need_two_applications(self):
        tuner = OnlineTuner()
        inc = TunerCandidate(8, None, "numpy", 1, 1)
        assert tuner._trial_steps_for(inc, inc) == 8
        cha = replace(inc, processes=2)
        assert tuner._trial_steps_for(cha, inc) >= 16

    def test_invalidate_forces_research(self, rng):
        tuner = OnlineTuner(policy=TunerPolicy(min_points=1))
        plan = small_plan(1 << 14)
        x = rng.standard_normal(1 << 14)
        tuner.run(plan, x, 8 * 64)
        tuner.invalidate(workload_signature(plan, 8 * 64))
        tuner.run(plan, x, 8 * 64)
        assert tuner.searches == 2
        assert tuner.invalidations == 1

    def test_run_many_tunes_batch_signature(self, rng):
        tuner = OnlineTuner(policy=TunerPolicy(min_points=1))
        plan = small_plan(1 << 12)
        gs = np.stack([rng.standard_normal(1 << 12) for _ in range(3)])
        out = tuner.run_many(plan, gs, 8 * 8)
        assert out.shape == gs.shape
        assert tuner.searches == 1
        want = np.stack([plan.run(g, 8 * 8, tune=False) for g in gs])
        sig = workload_signature(plan, 8 * 8, batch=3)
        winner = tuner._lookup(sig)
        assert winner is not None
        if winner == static_candidate(plan, 8 * 8, batch=3):
            assert np.array_equal(out, want)
        else:
            assert np.allclose(out, want, rtol=1e-10, atol=1e-12)


# --------------------------------------------------------------------------
# Persistence: PlanDiskCache tuned-config records
# --------------------------------------------------------------------------


class TestPersistence:
    def test_put_get_drop_round_trip(self, tmp_path):
        cache = PlanDiskCache(tmp_path)
        cache.put_config("tuner|k=1", {"kind": "candidate", "fused_steps": 8})
        got = cache.get_config("tuner|k=1")
        assert got == {"kind": "candidate", "fused_steps": 8}
        assert cache.info()["tuned_entries"] == 1
        cache.drop_config("tuner|k=1")
        assert cache.get_config("tuner|k=1") is None

    def test_corrupt_record_heals_as_miss(self, tmp_path):
        cache = PlanDiskCache(tmp_path)
        digest = cache.put_config("tuner|k=2", {"kind": "candidate"})
        path = Path(tmp_path) / f"{digest}.tuned"
        path.write_text("{not json")
        assert cache.get_config("tuner|k=2") is None
        assert not path.exists()

    def test_key_collision_is_a_miss(self, tmp_path):
        cache = PlanDiskCache(tmp_path)
        digest = cache.put_config("tuner|k=3", {"kind": "candidate"})
        path = Path(tmp_path) / f"{digest}.tuned"
        # A record claiming a different key (digest collision, or a
        # copied cache directory) must not be served.
        path.write_text('{"key": "tuner|other", "config": {"kind": "candidate"}}')
        assert cache.get_config("tuner|k=3") is None

    def test_tuned_entries_do_not_pollute_plan_entries(self, tmp_path):
        cache = PlanDiskCache(tmp_path)
        before = cache.info()["entries"]
        cache.put_config("tuner|k=4", {"kind": "candidate"})
        assert cache.info()["entries"] == before
        cache.clear()
        assert cache.info()["tuned_entries"] == 0

    def test_fresh_tuner_warm_starts_from_disk(self, rng, tmp_path):
        plan = small_plan(1 << 14)
        x = rng.standard_normal(1 << 14)
        first = OnlineTuner(
            cache=PlanDiskCache(tmp_path), policy=TunerPolicy(min_points=1)
        )
        first.run(plan, x, 8 * 64)
        assert first.searches == 1
        second = OnlineTuner(
            cache=PlanDiskCache(tmp_path), policy=TunerPolicy(min_points=1)
        )
        out = second.run(plan, x, 8 * 64)
        assert second.searches == 0
        assert second.trials_run == 0
        assert second.cache_hits == 1
        assert out.shape == x.shape

    def test_legacy_record_with_resident_key_warm_starts(self, rng, tmp_path):
        # Records written while residency was a tuner dimension carry a
        # "resident" key; every run is resident now, so loading ignores it.
        plan = small_plan(1 << 14)
        x = rng.standard_normal(1 << 14)
        steps = 8 * 64
        cache = PlanDiskCache(tmp_path)
        record = {"kind": "candidate", "resident": True}
        record.update(static_candidate(plan, steps).to_json())
        cache.put_config(workload_signature(plan, steps).key_string(), record)
        tuner = OnlineTuner(
            cache=PlanDiskCache(tmp_path), policy=TunerPolicy(min_points=1)
        )
        out = tuner.run(plan, x, steps)
        assert tuner.searches == 0
        assert tuner.trials_run == 0
        assert tuner.cache_hits == 1
        assert np.array_equal(out, plan.run(x, steps, tune=False))


# --------------------------------------------------------------------------
# Spawn warm-start (acceptance criterion)
# --------------------------------------------------------------------------

_SPAWN_POINTS = 1 << 12
_SPAWN_STEPS = 8 * 8


def _spawn_child(cache_dir: str, q) -> None:
    """Runs in a fresh spawned interpreter: must warm-start, not re-trial."""
    import numpy as np  # noqa: F811 - fresh interpreter

    from repro.core import kernels as kz  # noqa: F811
    from repro.core.plan import FlashFFTStencil  # noqa: F811
    from repro.serving import PlanDiskCache  # noqa: F811
    from repro.tuner import OnlineTuner, TunerPolicy  # noqa: F811

    tuner = OnlineTuner(
        cache=PlanDiskCache(cache_dir), policy=TunerPolicy(min_points=1)
    )
    plan = FlashFFTStencil((_SPAWN_POINTS,), kz.heat_1d(), fused_steps=8)
    x = np.random.default_rng(0xF1A5).standard_normal(_SPAWN_POINTS)
    out = tuner.run(plan, x, _SPAWN_STEPS)
    q.put(
        (tuner.searches, tuner.trials_run, tuner.cache_hits, float(out.sum()))
    )


class TestSpawnWarmStart:
    def test_persisted_config_warm_starts_spawned_process(self, tmp_path):
        plan = FlashFFTStencil((_SPAWN_POINTS,), kz.heat_1d(), fused_steps=8)
        x = np.random.default_rng(0xF1A5).standard_normal(_SPAWN_POINTS)
        parent = OnlineTuner(
            cache=PlanDiskCache(tmp_path), policy=TunerPolicy(min_points=1)
        )
        parent.run(plan, x, _SPAWN_STEPS)
        assert parent.searches == 1

        ctx = multiprocessing.get_context("spawn")
        q = ctx.Queue()
        proc = ctx.Process(target=_spawn_child, args=(str(tmp_path), q))
        proc.start()
        searches, trials, hits, _checksum = q.get(timeout=120)
        proc.join(timeout=120)
        assert proc.exitcode == 0
        assert searches == 0   # no re-search in the fresh process
        assert trials == 0     # not a single trial application spent
        assert hits == 1       # the disk record was the warm start


# --------------------------------------------------------------------------
# The strict $REPRO_AUTOTUNE flag and plan.run(tune=...) rules
# --------------------------------------------------------------------------


class TestEnvFlag:
    def test_typo_raises_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv(AUTOTUNE_ENV, "ture")
        with pytest.raises(PlanError, match="REPRO_AUTOTUNE"):
            autotune_default()

    def test_typo_fails_plan_run(self, rng, monkeypatch):
        monkeypatch.setenv(AUTOTUNE_ENV, "ture")
        plan = small_plan(1 << 10)
        with pytest.raises(PlanError, match="REPRO_AUTOTUNE"):
            plan.run(rng.standard_normal(1 << 10), 8)

    @pytest.mark.parametrize("value,expect", [("1", True), ("0", False), ("", False)])
    def test_accepted_values(self, monkeypatch, value, expect):
        monkeypatch.setenv(AUTOTUNE_ENV, value)
        assert autotune_default() is expect

    def test_env_enables_tuning_but_floors_protect_small_runs(
        self, rng, monkeypatch
    ):
        monkeypatch.setenv(AUTOTUNE_ENV, "1")
        plan = small_plan(1 << 10)
        x = rng.standard_normal(1 << 10)
        out = plan.run(x, 64)  # routed through the default tuner, ineligible
        assert np.array_equal(out, plan.run(x, 64, tune=False))

    def test_env_default_degrades_on_pinned_knobs(self, rng, monkeypatch):
        monkeypatch.setenv(AUTOTUNE_ENV, "1")
        plan = small_plan(1 << 12)
        x = rng.standard_normal(1 << 12)
        # Explicit processes pins a tuner dimension: the env default backs
        # off silently instead of raising.
        out = plan.run(x, 32, processes=1)
        assert np.array_equal(out, plan.run(x, 32, processes=1, tune=False))


class TestTuneConflicts:
    def test_explicit_tune_rejects_pinned_dimensions(self, rng):
        plan = small_plan(1 << 12)
        x = rng.standard_normal(1 << 12)
        with pytest.raises(PlanError):
            plan.run(x, 32, tune=True, processes=2)

    def test_explicit_tune_rejects_pinned_execution_paths(self, rng):
        plan = small_plan(1 << 12)
        x = rng.standard_normal(1 << 12)
        with pytest.raises(PlanError):
            plan.run(x, 32, tune=True, emulate_tcu=True)
        with pytest.raises(PlanError):
            plan.run(x, 32, tune=True, tolerance=1e-6)

    def test_run_many_tune_rejects_pinned_workers(self, rng):
        plan = small_plan(1 << 12)
        gs = np.stack([rng.standard_normal(1 << 12) for _ in range(2)])
        with pytest.raises(PlanError):
            plan.run_many(gs, 32, tune=True, workers=2)

    def test_plan_run_tune_true_routes_to_default_tuner(self, rng):
        plan = small_plan(1 << 10)
        x = rng.standard_normal(1 << 10)
        # Ineligible workload: tuned path must still produce the static
        # result (fallback), proving the routing is wired.
        out = plan.run(x, 64, tune=True)
        assert np.array_equal(out, plan.run(x, 64, tune=False))


# --------------------------------------------------------------------------
# Serving: the batch dimension
# --------------------------------------------------------------------------


class TestServingBatch:
    def test_observe_batch_decides_and_persists(self, tmp_path):
        plan = small_plan(1 << 12)
        tuner = OnlineTuner(
            cache=PlanDiskCache(tmp_path),
            policy=TunerPolicy(batch_min_samples=2),
        )
        sig = workload_signature(plan, 0, batch=8)
        for _ in range(2):
            tuner.observe_batch(sig, 2, per_grid_s=0.010)
            tuner.observe_batch(sig, 4, per_grid_s=0.004)
        assert tuner.tuned_batch(sig) == 4
        # A fresh tuner sees the persisted decision.
        again = OnlineTuner(cache=PlanDiskCache(tmp_path))
        assert again.tuned_batch(sig) == 4

    def test_observe_batch_prefers_larger_on_tie(self):
        tuner = OnlineTuner(policy=TunerPolicy(batch_min_samples=1))
        plan = small_plan(1 << 12)
        sig = workload_signature(plan, 0, batch=8)
        tuner.observe_batch(sig, 2, per_grid_s=0.005)
        tuner.observe_batch(sig, 6, per_grid_s=0.005)
        assert tuner.tuned_batch(sig) == 6

    def test_server_caps_batch_target_with_tuned_value(self):
        plan = small_plan(1 << 12)
        tuner = OnlineTuner(policy=TunerPolicy(batch_min_samples=1))
        server = StencilServer(
            plan, ServingConfig(max_batch=8), tuner=tuner
        )
        assert server._tuner_sig is not None
        baseline = server._batch_size_target()
        tuner.observe_batch(server._tuner_sig, 2, per_grid_s=0.002)
        tuner.observe_batch(server._tuner_sig, 4, per_grid_s=0.008)
        assert tuner.tuned_batch(server._tuner_sig) == 2
        assert server._batch_size_target() == min(baseline, 2)
        assert server.info()["tuned_batch"] == 2

    def test_invalidate_clears_batch_state(self):
        plan = small_plan(1 << 12)
        tuner = OnlineTuner(policy=TunerPolicy(batch_min_samples=1))
        sig = workload_signature(plan, 0, batch=8)
        tuner.observe_batch(sig, 2, per_grid_s=0.002)
        tuner.observe_batch(sig, 4, per_grid_s=0.008)
        assert tuner.tuned_batch(sig) == 2
        tuner.invalidate(sig)
        assert tuner.tuned_batch(sig) is None


# --------------------------------------------------------------------------
# Default-instance plumbing
# --------------------------------------------------------------------------


class TestDefaultTuner:
    def test_shared_instance(self):
        from repro.tuner import get_default_tuner

        assert get_default_tuner() is get_default_tuner()

    def test_rebuilt_when_cache_env_changes(self, monkeypatch, tmp_path):
        from repro.tuner import get_default_tuner

        first = get_default_tuner()
        assert first.cache is None
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path))
        second = get_default_tuner()
        assert second is not first
        assert second.cache is not None

    def test_info_shape(self):
        tuner = OnlineTuner()
        info = tuner.info()
        assert info["searches"] == 0
        assert info["persistent"] is False
