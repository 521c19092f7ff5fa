"""Shared Heat-1D/2D/3D workload definitions for the benchmark gates.

The hot-path, robustness, throughput, and resident benchmarks each gate on
the same three heat-equation rows; keeping one copy here means a geometry
change (tile, fusion depth, scaling shape) propagates to every gate at
once instead of silently diverging per file.  Benchmarks run as scripts
(``python benchmarks/bench_*.py``), so this module is imported from the
script directory, not the ``repro`` package.

Two granularities are provided:

* :data:`HEAT_CASES` — Table-3 validation-shape rows ``(workload name,
  tile override, fused steps)`` resolved through
  :func:`repro.workloads.configs.workload_by_name` (hot-path and
  robustness overhead gates);
* :data:`HEAT_SCALING_CASES` — large uniform-tile geometries ``(slug,
  grid shape, kernel factory, tile, fused steps)`` sized so every shard
  worker keeps whole first-axis tiles busy (throughput scaling and
  resident-iteration gates).

:func:`apply_loop` is the non-resident baseline the bit-identity gates
compare ``run`` against.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core import kernels as kz
from repro.workloads.configs import workload_by_name

__all__ = [
    "HEAT_CASES",
    "HEAT_RESIDENT_CASES",
    "HEAT_SCALING_CASES",
    "apply_loop",
    "heat_case",
]


def apply_loop(plan, x: np.ndarray, steps: int) -> np.ndarray:
    """``steps`` time steps as one stitched ``plan.apply`` per full fused
    application into two ping-ponged output buffers, then the cached tail
    plan's ``apply`` for the remainder — the non-resident baseline that
    ``run`` must match bit for bit."""
    full, rem = divmod(steps, plan.fused_steps)
    bufs = (np.empty_like(x), np.empty_like(x))
    cur = x
    for i in range(full):
        cur = plan.apply(cur, out=bufs[i % 2])
    if rem:
        cur = plan._tail_plan(rem).apply(cur)
    return cur

#: (workload name, tile override, fused steps) — one heat row per
#: dimensionality at Table-3 validation shapes.
HEAT_CASES: tuple[tuple[str, tuple[int, ...] | None, int], ...] = (
    ("Heat-1D", None, 8),
    ("Heat-2D", (32, 32), 4),
    ("Heat-3D", (16, 16, 16), 2),
)

#: (slug, grid shape, kernel factory, tile, fused steps) — the large
#: geometries every tile divides evenly (uniform tiles, so the resident
#: halo exchange takes its vectorised slab path).
HEAT_SCALING_CASES: tuple[
    tuple[str, tuple[int, ...], Callable, tuple[int, ...], int], ...
] = (
    ("heat-1d", (1 << 20,), kz.heat_1d, (4096,), 8),
    ("heat-2d", (512, 512), kz.heat_2d, (64, 64), 4),
    ("heat-3d", (64, 64, 64), kz.heat_3d, (32, 32, 32), 2),
)

#: ``(slug, grid shape, kernel factory, tile, fused steps, applications)``
#: — geometry chosen for the resident-iteration gate: tiles sized so the
#: per-application split/stitch round trip is a meaningful fraction of
#: wall time (the cost the halo exchange removes), and working sets
#: (window batch + spectrum) large enough to exceed the last-level cache —
#: otherwise a quiet machine serves the round trip from cache and the
#: measured saving evaporates into FFT-bound noise.  The per-case
#: application count keeps the slow 3-D row inside a sane wall-time
#: budget.  The throughput worker-scaling gate keeps its own rows: its
#: constraint is whole first-axis shards per worker, not halo fractions.
HEAT_RESIDENT_CASES: tuple[
    tuple[str, tuple[int, ...], Callable, tuple[int, ...], int, int], ...
] = (
    ("heat-1d", (1 << 20,), kz.heat_1d, (1024,), 8, 8),
    ("heat-2d", (512, 512), kz.heat_2d, (64, 64), 4, 8),
    ("heat-3d", (128, 128, 128), kz.heat_3d, (32, 32, 32), 2, 6),
)


def heat_case(name: str) -> tuple[Sequence[int], object, tuple[int, ...] | None, int]:
    """``(validation shape, kernel, tile, fused steps)`` for one
    :data:`HEAT_CASES` row, resolved by workload name."""
    for n, tile, fused in HEAT_CASES:
        if n == name:
            w = workload_by_name(n)
            return w.validation_shape, w.kernel, tile, fused
    raise KeyError(f"unknown heat case {name!r}; have {[c[0] for c in HEAT_CASES]}")
