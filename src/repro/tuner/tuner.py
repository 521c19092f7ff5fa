"""The online autotuner: telemetry-driven re-planning under live load.

Static heuristics (Eq. (5), :func:`~repro.parallel.sharding.choose_workers`,
:func:`~repro.distributed.engine.choose_processes`, ...) pick *one* point
of the joint configuration space from models alone.  They are good seeds
and poor oracles: the best ``(fusion depth, backend, workers, residency,
processes, batch)`` combination depends on the live machine — core count,
co-tenants, memory pressure — in ways no offline model tracks.

:class:`OnlineTuner` closes the loop:

1. **Seed** — :func:`~repro.tuner.space.candidate_space` builds the
   incumbent from the static heuristics plus single-coordinate variations;
2. **Prune** — :func:`~repro.tuner.model.prune_candidates` ranks them with
   the gpusim roofline / fragment / tap-density model, so live traffic is
   spent only on the few challengers the model cannot separate;
3. **Measure** — :func:`~repro.tuner.measure.paired_trial` times each
   surviving challenger against the incumbent, interleaved, deciding on
   the median of per-round ratios (drift-free);
4. **Keep** — the winner must beat the incumbent by
   :attr:`TunerPolicy.min_gain`; otherwise the static configuration is
   retained — the tuner is *never slower than static* by construction,
   up to the bounded trial budget;
5. **Persist** — winners land in the
   :class:`~repro.serving.plancache.PlanDiskCache` keyed by a
   :class:`~repro.tuner.signature.WorkloadSignature`, so a fresh process
   (or a spawned worker) warm-starts the tuned configuration without
   spending a single trial application.

``$REPRO_AUTOTUNE`` opts ``plan.run`` / ``run_many`` in fleet-wide; the
flag is parsed strictly (:func:`repro.envutil.env_flag`), so
``REPRO_AUTOTUNE=ture`` raises :class:`~repro.errors.PlanError` naming
the variable instead of silently disabling tuning.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..envutil import env_flag
from ..errors import PlanError
from ..observability import NULL_TELEMETRY, Telemetry
from .measure import _quiesce, paired_trial
from .model import prune_candidates
from .signature import WorkloadSignature, workload_signature
from .space import TunerCandidate, candidate_space

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import FlashFFTStencil
    from ..serving.plancache import PlanDiskCache

__all__ = [
    "AUTOTUNE_ENV",
    "OnlineTuner",
    "TunerPolicy",
    "autotune_default",
    "get_default_tuner",
    "reset_default_tuner",
]

#: Environment switch: ``plan.run(..., tune=None)`` consults it, exactly
#: like ``$REPRO_PROCS`` gates its knob.
AUTOTUNE_ENV = "REPRO_AUTOTUNE"


def autotune_default() -> bool:
    """Whether ``$REPRO_AUTOTUNE`` opts runs into online tuning.

    Strict parse: an unrecognised value raises
    :class:`~repro.errors.PlanError` naming the variable (PR-7 env-flag
    contract), so a typo in a deployment manifest fails fast.
    """
    return env_flag(AUTOTUNE_ENV)


@dataclass(frozen=True)
class TunerPolicy:
    """Exploration budget and floors of one :class:`OnlineTuner`.

    ``max_trial_fraction`` bounds the live traffic spent on trials: for a
    run of S planned simulated steps, at most ``int(frac * S)`` trial
    steps are executed (warm-up included; the first challenger is always
    admitted so small runs can still tune), after which the best-so-far
    wins.  The floors (``min_points``,
    ``min_applications``) keep tuning away from workloads too small to
    amortise even one trial — those run the static configuration
    untouched, which also keeps test suites running under
    ``REPRO_AUTOTUNE=1`` fast.
    """

    #: Ceiling on trial steps as a fraction of the run's planned simulated
    #: steps.  Sized so the default ``keep`` survivors all fit their trial
    #: inside the horizon the overhead gate amortises over (64
    #: applications); the *measured* overhead stays well under the trial
    #: fraction because trials run at challenger speed and a dethroning
    #: winner pays its trial back over the rest of the run.
    max_trial_fraction: float = 0.20
    #: Multiplier on the lcm-of-depths step count each trial side runs
    #: (raised automatically when a side needs the process path engaged,
    #: which requires >= 2 full applications).
    trial_apps: int = 1
    #: Interleaved rounds per challenger.
    rounds: int = 1
    #: Candidates surviving model pruning (incumbent included).
    keep: int = 3
    #: A challenger must beat the incumbent by this paired-median ratio
    #: to dethrone it (hysteresis against noise-driven flapping).
    min_gain: float = 1.02
    #: Workloads below this many grid points run static, untuned.
    min_points: int = 1 << 16
    #: Runs with fewer planned applications than this run static.
    min_applications: int = 4
    #: Serving: per-batch-size observations required (for at least two
    #: distinct sizes) before the batch dimension is decided.
    batch_min_samples: int = 6

    def __post_init__(self) -> None:
        if not 0.0 < self.max_trial_fraction <= 1.0:
            raise PlanError(
                f"max_trial_fraction must be in (0, 1], got "
                f"{self.max_trial_fraction}"
            )
        if self.trial_apps < 1 or self.rounds < 1 or self.keep < 1:
            raise PlanError("trial_apps, rounds, and keep must be >= 1")
        if self.min_gain < 1.0:
            raise PlanError(f"min_gain must be >= 1.0, got {self.min_gain}")


class OnlineTuner:
    """Search, measure, persist, and replay tuned configurations.

    Parameters
    ----------
    cache:
        A :class:`~repro.serving.plancache.PlanDiskCache` for cross-process
        persistence.  ``None`` consults ``$REPRO_PLAN_CACHE`` and falls
        back to in-memory-only operation when unset — the tuner must work
        without any disk grant.
    policy:
        The :class:`TunerPolicy` budget; default policy when ``None``.
    telemetry:
        Default :class:`~repro.observability.Telemetry` for operations
        not given one per call.
    """

    def __init__(
        self,
        cache: "PlanDiskCache | None" = None,
        policy: TunerPolicy | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if cache is None and os.environ.get("REPRO_PLAN_CACHE"):
            from ..serving.plancache import PlanDiskCache

            cache = PlanDiskCache()
        self.cache = cache
        self.policy = policy if policy is not None else TunerPolicy()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._lock = threading.Lock()
        self._memory: dict[str, TunerCandidate] = {}
        #: Serving batch-size observations: digest -> {B: [count, total_s]}.
        self._batch_obs: dict[str, dict[int, list[float]]] = {}
        self._batch_winner: dict[str, int] = {}
        # Counters (cumulative; surfaced via info()).
        self.searches = 0
        self.trials_run = 0          # trial steps executed (live traffic)
        self.cache_hits = 0          # memory + disk
        self.invalidations = 0

    # ------------------------------------------------------------ eligibility

    def eligible(
        self, plan: "FlashFFTStencil", total_steps: int, batch: int = 1
    ) -> bool:
        """Whether this workload clears the tuning floors."""
        points = int(np.prod(plan.grid_shape)) * max(1, int(batch))
        apps = int(total_steps) // max(1, plan.fused_steps)
        return (
            points >= self.policy.min_points
            and apps >= self.policy.min_applications
        )

    # -------------------------------------------------------------- plumbing

    def plan_for(
        self, plan: "FlashFFTStencil", cand: TunerCandidate
    ) -> "FlashFFTStencil":
        """The cache-shared plan executing ``cand``'s plan-level knobs."""
        from ..core.plan import _cached_plan
        from ..parallel.backends import get_backend

        return _cached_plan(
            plan.grid_shape,
            plan.kernel,
            cand.fused_steps,
            plan.segments.boundary,
            plan.gpu,
            plan.config,
            cand.tile,
            backend=get_backend(cand.backend),
            workers=None if cand.workers == 0 else cand.workers,
            precision=plan.precision,
        )

    def _store(self, sig: WorkloadSignature, cand: TunerCandidate) -> None:
        with self._lock:
            self._memory[sig.digest()] = cand
        if self.cache is not None:
            record = {"kind": "candidate"}
            record.update(cand.to_json())
            self.cache.put_config(sig.key_string(), record)

    def _lookup(self, sig: WorkloadSignature) -> TunerCandidate | None:
        """Memory first, then the persistent cache (warm-start path)."""
        digest = sig.digest()
        with self._lock:
            cand = self._memory.get(digest)
        if cand is not None:
            return cand
        if self.cache is None:
            return None
        record = self.cache.get_config(sig.key_string())
        if record is None or record.get("kind") != "candidate":
            return None
        try:
            cand = TunerCandidate.from_json(record)
        except (KeyError, TypeError, ValueError):
            return None
        with self._lock:
            self._memory[digest] = cand
        return cand

    def invalidate(self, sig: WorkloadSignature) -> None:
        """Forget the tuned state for one workload (memory and disk).

        Wired to degradation signals — the serving circuit breaker
        tripping, a drift-sentinel breach — so the next request under the
        changed conditions re-tunes instead of replaying a winner measured
        on a machine that no longer exists.
        """
        digest = sig.digest()
        with self._lock:
            self._memory.pop(digest, None)
            self._batch_obs.pop(digest, None)
            self._batch_winner.pop(digest, None)
        if self.cache is not None:
            self.cache.drop_config(sig.key_string())
        self.invalidations += 1
        self.telemetry.count("tuner_invalidations", 1)

    # ----------------------------------------------------------------- search

    def _trial_steps_for(self, cand: TunerCandidate, inc: TunerCandidate) -> int:
        """Simulated steps *per side* for one trial of ``cand`` vs ``inc``.

        Both sides run the same step count — the least common multiple of
        the two fusion depths — so the paired ratio compares identical
        work and needs no per-step rescaling (which would amplify noise by
        the depth ratio).  The process engine only engages with >= 2 full
        applications (``run`` keeps shorter blocks in-process), so a side
        probing it must fit at least two of its applications in the trial.
        """
        base = math.lcm(inc.fused_steps, cand.fused_steps)
        steps = base * self.policy.trial_apps

        def apps_needed(c: TunerCandidate) -> int:
            return 2 if c.processes > 1 else 1

        while (
            steps // cand.fused_steps < apps_needed(cand)
            or steps // inc.fused_steps < apps_needed(inc)
        ):
            steps += base
        return steps

    def _search(
        self,
        plan: "FlashFFTStencil",
        grid_or_grids,
        total_steps: int,
        sig: WorkloadSignature,
        tel: Telemetry,
        batched: bool,
    ) -> TunerCandidate:
        """Seed → prune → interleaved trials → winner, within budget."""
        pol = self.policy
        batch = sig.batch if batched else 1
        cands = candidate_space(plan, total_steps, batch=batch)
        survivors = prune_candidates(plan, cands, total_steps, pol.keep)
        incumbent = survivors[0]
        planned_apps = max(1, int(total_steps) // plan.fused_steps)
        # Budget in *simulated steps*, not applications: a challenger at
        # twice the fusion depth runs twice the steps per application, and
        # counting apps would let deep-fusion trials silently blow the
        # live-traffic fraction.
        budget = max(1, int(pol.max_trial_fraction * planned_apps * plan.fused_steps))
        spent = 0
        best = incumbent
        best_ratio = 1.0

        def runner(cand: TunerCandidate, steps: int):
            target = self.plan_for(plan, cand)
            if batched:
                return lambda: target.run_many(
                    grid_or_grids,
                    steps,
                    workers=None if cand.workers == 0 else cand.workers,
                    processes=cand.processes,
                    telemetry=NULL_TELEMETRY,
                    tune=False,
                )
            return lambda: target.run(
                grid_or_grids,
                steps,
                processes=cand.processes,
                telemetry=NULL_TELEMETRY,
                tune=False,
            )

        self.searches += 1
        tel.count("tuner_searches", 1)
        with tel.span("tune/search"):
            for challenger in survivors[1:]:
                steps = self._trial_steps_for(challenger, incumbent)
                # Per-challenger cost in steps: one single-application
                # warm-up per side (absorbs plan construction / spectrum
                # derivation and the post-quiesce re-faults, which must
                # not be timed) plus both sides of every round.
                cost = (
                    incumbent.fused_steps
                    + challenger.fused_steps
                    + steps * 2 * pol.rounds
                )
                if spent and spent + cost > budget:
                    break
                try:
                    # Plan construction can reject the challenger (e.g.
                    # Eq. (4) leaves no valid points at its depth inside
                    # an explicit tile) — that must discard it, not abort
                    # the search, so the runners are built inside the try.
                    inc_fn = runner(incumbent, steps)
                    cha_fn = runner(challenger, steps)
                    _quiesce()
                    runner(challenger, challenger.fused_steps)()  # warm-up
                    runner(incumbent, incumbent.fused_steps)()
                    trial = paired_trial(
                        inc_fn, cha_fn, rounds=pol.rounds, warmup=0,
                        telemetry=tel,
                    )
                except PlanError:
                    # Infeasible at execution time (e.g. Eq. (4) leaves no
                    # valid points at the challenger's depth): discard.
                    continue
                spent += cost
                self.trials_run += cost
                tel.count("tuner_trial_steps", cost)
                # Both sides simulated the same step count, so the paired
                # ratio is directly incumbent-time / challenger-time.
                ratio = trial.ratio
                tel.event(
                    "tuner_trial",
                    challenger=challenger.label(),
                    ratio=round(ratio, 4),
                    incumbent_ms=round(trial.incumbent_ms, 3),
                    challenger_ms=round(trial.challenger_ms, 3),
                )
                if ratio > max(pol.min_gain, best_ratio):
                    best = challenger
                    best_ratio = ratio
        if best is not incumbent:
            tel.count("tuner_wins", 1)
        self._store(sig, best)
        return best

    # -------------------------------------------------------------- tune/run

    def tune(
        self,
        plan: "FlashFFTStencil",
        grid: np.ndarray,
        total_steps: int,
        telemetry: Telemetry | None = None,
    ) -> TunerCandidate:
        """The tuned candidate for this workload — cached or searched."""
        tel = telemetry if telemetry is not None else self.telemetry
        sig = workload_signature(plan, total_steps)
        cand = self._lookup(sig)
        if cand is not None:
            self.cache_hits += 1
            tel.count("tuner_cache_hits", 1)
            return cand
        tel.count("tuner_cache_misses", 1)
        return self._search(plan, grid, total_steps, sig, tel, batched=False)

    def run(
        self,
        plan: "FlashFFTStencil",
        grid: np.ndarray,
        total_steps: int,
        telemetry: Telemetry | None = None,
    ) -> np.ndarray:
        """``plan.run`` with the tuned configuration (searching on miss).

        Ineligible workloads (below the policy floors) run the static
        configuration untouched.  Outputs are always produced by exactly
        one configuration end to end — trials run on the *input* grid and
        their results are discarded, so tuning never mixes numerics into
        the returned state.
        """
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        if not self.eligible(plan, total_steps):
            tel.count("tuner_skips", 1)
            return plan.run(grid, total_steps, telemetry=telemetry, tune=False)
        cand = self.tune(plan, grid, total_steps, telemetry=tel)
        target = self.plan_for(plan, cand)
        return target.run(
            grid,
            total_steps,
            telemetry=telemetry,
            processes=cand.processes,
            tune=False,
        )

    def run_many(
        self,
        plan: "FlashFFTStencil",
        grids: "np.ndarray | Sequence[np.ndarray]",
        total_steps: int,
        telemetry: Telemetry | None = None,
        double_layer: bool = False,
    ) -> np.ndarray:
        """``run_many`` with the tuned configuration for this batch width."""
        from ..parallel.batch import run_many as _run_many

        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        if isinstance(grids, np.ndarray) and grids.ndim == len(plan.grid_shape) + 1:
            batch = int(grids.shape[0])
        else:
            grids = list(grids)
            batch = len(grids)
        if not self.eligible(plan, total_steps, batch=batch):
            tel.count("tuner_skips", 1)
            return _run_many(
                plan, grids, total_steps, double_layer=double_layer,
                telemetry=telemetry, tune=False,
            )
        sig = workload_signature(plan, total_steps, batch=batch)
        cand = self._lookup(sig)
        if cand is not None:
            self.cache_hits += 1
            tel.count("tuner_cache_hits", 1)
        else:
            tel.count("tuner_cache_misses", 1)
            cand = self._search(
                plan, grids, total_steps, sig, tel, batched=True
            )
        target = self.plan_for(plan, cand)
        return target.run_many(
            grids,
            total_steps,
            double_layer=double_layer,
            workers=None if cand.workers == 0 else cand.workers,
            processes=cand.processes,
            telemetry=telemetry,
            tune=False,
        )

    # --------------------------------------------------- serving batch size

    def observe_batch(
        self, sig: WorkloadSignature, size: int, per_grid_s: float
    ) -> None:
        """Record one live per-grid service observation at batch ``size``.

        Once :attr:`TunerPolicy.batch_min_samples` observations exist for
        at least two distinct sizes, the size with the lowest mean
        per-grid service time is fixed as the tuned batch target and
        persisted; until then the server's EWMA sizing rules alone.
        """
        if size < 1 or per_grid_s <= 0.0:
            return
        digest = sig.digest()
        with self._lock:
            if digest in self._batch_winner:
                return
            obs = self._batch_obs.setdefault(digest, {})
            stat = obs.setdefault(int(size), [0.0, 0.0])
            stat[0] += 1
            stat[1] += float(per_grid_s)
            ready = {
                b: tot / cnt
                for b, (cnt, tot) in obs.items()
                if cnt >= self.policy.batch_min_samples
            }
            if len(ready) < 2:
                return
            winner = min(ready, key=lambda b: (ready[b], -b))
            self._batch_winner[digest] = winner
        self.telemetry.count("tuner_batch_decisions", 1)
        self.telemetry.event(
            "tuner_batch_tuned", batch=winner,
            per_grid_ms=round(ready[winner] * 1e3, 3),
        )
        if self.cache is not None:
            self.cache.put_config(
                sig.key_string(), {"kind": "batch", "batch": int(winner)}
            )

    def tuned_batch(self, sig: WorkloadSignature) -> int | None:
        """The decided batch target for ``sig``, or ``None`` (undecided)."""
        digest = sig.digest()
        with self._lock:
            winner = self._batch_winner.get(digest)
        if winner is not None:
            return winner
        if self.cache is None:
            return None
        record = self.cache.get_config(sig.key_string())
        if record is None or record.get("kind") != "batch":
            return None
        try:
            winner = int(record["batch"])
        except (KeyError, TypeError, ValueError):
            return None
        with self._lock:
            self._batch_winner[digest] = winner
        return winner

    # ------------------------------------------------------------ introspect

    def info(self) -> dict:
        with self._lock:
            tuned = len(self._memory)
            batch_tuned = len(self._batch_winner)
        return {
            "searches": self.searches,
            "trials_run": self.trials_run,
            "cache_hits": self.cache_hits,
            "invalidations": self.invalidations,
            "tuned_workloads": tuned,
            "tuned_batches": batch_tuned,
            "persistent": self.cache is not None,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OnlineTuner(searches={self.searches}, "
            f"trials={self.trials_run}, persistent={self.cache is not None})"
        )


# ------------------------------------------------------- default instance
#
# `plan.run(tune=True)` and the env switch route through one shared tuner
# so tuned state accumulates process-wide (mirroring the module-level plan
# cache).  The instance is rebuilt if $REPRO_PLAN_CACHE changes, so tests
# pointing the cache at a tmpdir see a fresh, correctly-wired tuner.

_default_lock = threading.Lock()
_default_tuner: OnlineTuner | None = None
_default_cache_dir: str | None = None


def get_default_tuner() -> OnlineTuner:
    """The process-wide shared :class:`OnlineTuner`."""
    global _default_tuner, _default_cache_dir
    cache_dir = os.environ.get("REPRO_PLAN_CACHE") or None
    with _default_lock:
        if _default_tuner is None or _default_cache_dir != cache_dir:
            _default_tuner = OnlineTuner()
            _default_cache_dir = cache_dir
        return _default_tuner


def reset_default_tuner() -> None:
    """Drop the shared tuner (tests; the next use builds a fresh one)."""
    global _default_tuner, _default_cache_dir
    with _default_lock:
        _default_tuner = None
        _default_cache_dir = None
