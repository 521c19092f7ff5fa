"""Numerical-accuracy study: does deep temporal fusion stay exact?

Equation (10) raises the kernel spectrum to the ``T``-th power.  For a
stable (max-norm non-expanding) stencil ``|H(k)| <= 1`` everywhere, so the
power is perfectly conditioned; for marginally stable modes roundoff can
accumulate.  This module quantifies it: fused-vs-sequential error as a
function of fusion depth and total steps, plus the spectral-radius diagnosis
that predicts when fusion is safe.

This is an *extension* study (the paper asserts unrestricted fusion without
an error analysis); it doubles as the guardrail for users choosing very
deep fusion.

It also hosts the **accuracy router** for the mixed-precision tier
(TECHNIQUES.md §17): :class:`PrecisionErrorModel` predicts the float32
tier's drift from a one-application calibration probe amplified by the
spectral radius, and :class:`PrecisionRouter` uses the prediction to run
each ``tolerance=``-routed request on the cheapest tier expected to meet
its budget — spot-checking against the float64 reference on a sentinel
cadence and sticky-escalating to float64 on any observed breach.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.kernels import StencilKernel
from ..core.reference import run_stencil
from ..core.spectral import fft_stencil_periodic
from ..errors import PlanError
from ..observability.telemetry import NULL_TELEMETRY
from ..robustness.sentinel import normalized_drift

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import FlashFFTStencil

__all__ = [
    "FusionAccuracyRow",
    "PrecisionErrorModel",
    "PrecisionRouter",
    "fusion_error_sweep",
    "spectral_radius",
]


def spectral_radius(kernel: StencilKernel, shape: int | tuple[int, ...]) -> float:
    """``max_k |H(k)|`` on the grid — >1 means fusion will amplify roundoff."""
    return float(np.max(np.abs(kernel.spectrum(shape))))


@dataclass(frozen=True)
class FusionAccuracyRow:
    """Error of one (fusion depth, total steps) cell."""

    fused_steps: int
    total_steps: int
    max_rel_error: float
    spectral_radius: float


def fusion_error_sweep(
    kernel: StencilKernel,
    grid_points: int = 4096,
    depths: tuple[int, ...] = (1, 4, 16, 64, 256),
    total_steps: int = 256,
    seed: int = 0,
) -> list[FusionAccuracyRow]:
    """Fused-vs-sequential max relative error across fusion depths.

    The sequential baseline is the direct (time-domain) engine; both run in
    FP64, so the reported error is pure fusion-induced roundoff.
    """
    if kernel.ndim != 1:
        raise PlanError("the accuracy sweep is defined on 1-D grids")
    if any(total_steps % d for d in depths):
        raise PlanError(f"every depth in {depths} must divide {total_steps}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(grid_points)
    want = run_stencil(x, kernel, total_steps)
    scale = float(np.max(np.abs(want))) or 1.0
    rho = spectral_radius(kernel, grid_points)
    rows = []
    for depth in depths:
        out = x
        for _ in range(total_steps // depth):
            out = fft_stencil_periodic(out, kernel, depth, fused=True)
        err = float(np.max(np.abs(out - want))) / scale
        rows.append(
            FusionAccuracyRow(
                fused_steps=depth,
                total_steps=total_steps,
                max_rel_error=err,
                spectral_radius=rho,
            )
        )
    return rows


# ------------------------------------------------------- precision routing


class PrecisionErrorModel:
    """Predicted float32-tier drift for a plan, as a function of run length.

    The model is ``predicted(T) = safety * base_error * apps * max(1, rho)
    ** apps`` with ``apps = ceil(T / fused_steps)``: one application's
    measured single-precision drift (``base_error``, calibrated once by
    probing the plan's float32 tier against its float64 tier on a
    deterministic random grid), grown linearly with the number of fused
    applications and amplified geometrically when the kernel's spectral
    radius exceeds 1.  ``safety`` absorbs the gap between the probe grid
    and real data; the default (8x) is deliberately conservative — the
    router escalates on a *predicted* miss, and the sentinel spot checks
    catch anything the prediction was too optimistic about.
    """

    def __init__(self, plan: "FlashFFTStencil", safety: float = 8.0) -> None:
        if not safety >= 1.0:
            raise PlanError(f"safety factor must be >= 1, got {safety}")
        self._plan = plan
        self.safety = float(safety)
        self._lock = threading.Lock()
        self._base_error: float | None = None
        self._rho: float | None = None

    @property
    def spectral_radius(self) -> float:
        if self._rho is None:
            self._rho = spectral_radius(self._plan.kernel, self._plan.grid_shape)
        return self._rho

    def probe_grid(self) -> np.ndarray:
        """The deterministic calibration grid (also the spot-check input)."""
        rng = np.random.default_rng(0xF32)
        return rng.standard_normal(self._plan.grid_shape)

    def base_error(self, telemetry=None) -> float:
        """One-application float32-vs-float64 drift, probed once and cached."""
        with self._lock:
            if self._base_error is None:
                tel = telemetry if telemetry is not None else NULL_TELEMETRY
                probe = self.probe_grid()
                ref = self._plan.variant("float64").apply(probe)
                got = self._plan.variant("float32").apply(
                    probe.astype(np.float32)
                )
                tel.count("precision_probes")
                # Floor at one round-off unit so a probe that happens to
                # cancel exactly never predicts a zero-error tier.
                self._base_error = max(
                    normalized_drift(got, ref), float(np.finfo(np.float32).eps)
                )
            return self._base_error

    def predicted(self, total_steps: int, telemetry=None) -> float:
        """Predicted float32 drift after ``total_steps`` total time steps."""
        if total_steps <= 0:
            return 0.0
        apps = -(-int(total_steps) // self._plan.fused_steps)
        base = self.base_error(telemetry)
        rho = self.spectral_radius
        with np.errstate(over="ignore"):
            amp = float(np.float64(max(1.0, rho)) ** apps)
        if not np.isfinite(amp):
            return float("inf")
        return self.safety * base * apps * amp


class PrecisionRouter:
    """Routes ``tolerance=`` requests to the cheapest adequate precision.

    Owned by a user-facing plan (:meth:`FlashFFTStencil.router`) and shared
    by its ``apply``/``run``/``run_many`` entry points.  Policy:

    * the :class:`PrecisionErrorModel` prediction picks the tier — float32
      when ``predicted <= tolerance``, float64 otherwise;
    * routed float32 responses are spot-checked against a float64 rerun on
      a sentinel cadence (the first routed request, then every
      ``verify_every``-th), scored with
      :func:`repro.robustness.sentinel.normalized_drift`;
    * an observed breach returns the float64 result for *that* request and
      **sticky-escalates**: every later request on this router runs
      float64 until the process restarts.  Escalation is deliberately
      one-way — a plan whose data defeats the model once is not trusted
      with reduced precision again;
    * outputs are cast back to the caller's input dtype (float32 in,
      float32 out; float64 in, float64 out) regardless of the tier that
      computed them.

    Telemetry counters: ``precision_requests_f32`` / ``precision_requests_
    f64`` (routing decisions), ``precision_probes`` (calibration runs),
    ``precision_escalations`` (observed breaches).
    """

    def __init__(
        self,
        plan: "FlashFFTStencil",
        *,
        safety: float = 8.0,
        verify_every: int = 16,
        model: PrecisionErrorModel | None = None,
    ) -> None:
        if verify_every < 1:
            raise PlanError(
                f"verify cadence must be >= 1, got {verify_every}"
            )
        self._plan = plan
        self.model = model if model is not None else PrecisionErrorModel(
            plan, safety=safety
        )
        self.verify_every = int(verify_every)
        self._lock = threading.Lock()
        self._routed_f32 = 0
        self.escalated = False

    # ------------------------------------------------------------ policy

    def route(
        self, total_steps: int, tolerance: float, telemetry=None
    ) -> str:
        """The precision tier a request of ``total_steps`` steps runs on."""
        if not tolerance > 0:
            raise PlanError(f"tolerance must be > 0, got {tolerance}")
        if self.escalated:
            return "float64"
        predicted = self.model.predicted(total_steps, telemetry)
        return "float32" if predicted <= tolerance else "float64"

    def _due(self) -> bool:
        """Claim a verify slot: first routed-f32 request, then every Nth."""
        with self._lock:
            due = self._routed_f32 % self.verify_every == 0
            self._routed_f32 += 1
            return due

    def _escalate(self, tel) -> None:
        with self._lock:
            self.escalated = True
        tel.count("precision_escalations")

    def spot_check(
        self,
        grid_in: np.ndarray,
        out: np.ndarray,
        total_steps: int,
        tolerance: float,
        telemetry=None,
    ) -> np.ndarray | None:
        """Verify one routed float32 result on the sentinel cadence.

        Claims a verify slot (first routed request, then every
        ``verify_every``-th); off-cadence calls return ``None`` without
        touching the reference tier.  On cadence the input is re-run at
        float64 and compared with :func:`normalized_drift`; a breach
        sticky-escalates the router and returns the float64 reference so
        the caller can substitute it.  ``None`` means the result stands.
        """
        if not self._due():
            return None
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        ref = self._plan.variant("float64").run(grid_in, total_steps)
        if normalized_drift(out, ref) > tolerance:
            self._escalate(tel)
            return ref
        return None

    @staticmethod
    def _caller_dtype(grid) -> np.dtype:
        dt = getattr(grid, "dtype", None)
        if dt is not None and np.dtype(dt) == np.dtype(np.float32):
            return np.dtype(np.float32)
        return np.dtype(np.float64)

    # --------------------------------------------------------- execution

    def run(
        self,
        grid,
        total_steps: int,
        tolerance: float,
        *,
        telemetry=None,
        processes: int | None = None,
    ) -> np.ndarray:
        """Route one (possibly multi-application) run through a tier."""
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        prec = self.route(total_steps, tolerance, tel)
        if prec == "float32" and processes is not None and processes != 1:
            # The shared-memory process engine is float64-only; an explicit
            # multi-process request outranks the cheap tier.
            prec = "float64"
        if prec == "float64":
            tel.count("precision_requests_f64")
            out = self._plan.variant("float64").run(
                grid, total_steps, processes=processes
            )
            return out.astype(self._caller_dtype(grid), copy=False)
        tel.count("precision_requests_f32")
        f32 = self._plan.variant("float32")
        out = f32.run(np.asarray(grid, dtype=np.float32), total_steps)
        ref = self.spot_check(grid, out, total_steps, tolerance, tel)
        if ref is not None:
            return ref.astype(self._caller_dtype(grid), copy=False)
        return out.astype(self._caller_dtype(grid), copy=False)

    def run_many(
        self,
        grids: Sequence[np.ndarray],
        total_steps: int,
        tolerance: float,
        *,
        telemetry=None,
        double_layer: bool = False,
        workers: int | None = None,
    ) -> np.ndarray:
        """Route a whole batch through one tier (batches never mix tiers)."""
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        grids = list(grids)
        prec = self.route(total_steps, tolerance, tel)
        if prec == "float64" or not grids:
            tel.count("precision_requests_f64", n=max(1, len(grids)))
            out = self._plan.variant("float64").run_many(
                grids,
                total_steps,
                double_layer=double_layer,
                workers=workers,
            )
            want = self._caller_dtype(grids[0]) if grids else np.dtype(np.float64)
            return out.astype(want, copy=False)
        tel.count("precision_requests_f32", n=len(grids))
        f32 = self._plan.variant("float32")
        out = f32.run_many(
            [np.asarray(g, dtype=np.float32) for g in grids],
            total_steps,
            double_layer=double_layer,
            workers=workers,
        )
        # Spot-check one representative grid; a breach re-runs the whole
        # batch on the reference tier (correct beats fast).
        ref0 = self.spot_check(grids[0], out[0], total_steps, tolerance, tel)
        if ref0 is not None:
            out = self._plan.variant("float64").run_many(
                grids,
                total_steps,
                double_layer=double_layer,
                workers=workers,
            )
        want = self._caller_dtype(grids[0])
        return out.astype(want, copy=False)
