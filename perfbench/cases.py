"""The inputs of the three workloads.

Shapes, fusion depths, step counts and the serve-open request mix are
fixed here; ``--seed`` only changes the grid values and the serve-open
arrival times.  ``quick`` shrinks every size so the benchmark's own
tests can drive all three workloads in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The seven Table-3 kernels, in the paper's order.
ZOO_KERNELS = (
    "heat-1d", "1d5p", "1d7p", "heat-2d", "box-2d9p", "heat-3d", "box-3d27p",
)
BOUNDARIES = ("periodic", "zero")

#: Per dimension: host-sized grid, fused depth T and a step count that
#: leaves a remainder tail (steps % T != 0), so every case also builds
#: and runs the library's tail plan.
_ZOO_GEOMETRY = {
    1: ((1 << 20,), 8, 20),
    2: ((1024, 1024), 4, 10),
    3: ((96, 96, 96), 2, 5),
}
_ZOO_QUICK = {
    1: ((1 << 14,), 8, 20),
    2: ((128, 128), 4, 10),
    3: ((24, 24, 24), 2, 5),
}


@dataclass(frozen=True)
class Case:
    index: int
    kernel: str
    boundary: str
    shape: tuple[int, ...]
    fused_steps: int
    steps: int

    @property
    def name(self) -> str:
        return f"{self.kernel}/{self.boundary}"

    @property
    def work(self) -> int:
        """Stencil updates of one call: points x steps."""
        return int(np.prod(self.shape)) * self.steps


def kernel_ndim(kernel: str) -> int:
    return 1 if "1d" in kernel else 2 if "2d" in kernel else 3


def zoo_cases(quick: bool = False) -> list[Case]:
    geometry = _ZOO_QUICK if quick else _ZOO_GEOMETRY
    cases = []
    for kernel in ZOO_KERNELS:
        shape, t, steps = geometry[kernel_ndim(kernel)]
        for boundary in BOUNDARIES:
            cases.append(Case(len(cases), kernel, boundary, shape, t, steps))
    return cases


#: ensemble-batch: B independent grids per kernel through run_many.
ENSEMBLE_KERNELS = (("heat-2d", "periodic"), ("box-2d9p", "zero"))


def ensemble_cases(quick: bool = False) -> tuple[int, list[Case]]:
    batch, shape, steps = (4, (64, 64), 10) if quick else (16, (256, 256), 42)
    cases = [
        Case(i, kernel, boundary, shape, 4, steps)
        for i, (kernel, boundary) in enumerate(ENSEMBLE_KERNELS)
    ]
    return batch, cases


@dataclass(frozen=True)
class ServeSpec:
    kernel: str
    shape: tuple[int, ...]
    fused_steps: int
    #: Offered load in requests per second: a sixth of the ~900 req/s a
    #: 2-CPU host serves.  Compute on a shared host was seen to run 3x
    #: slower for minutes; at this rate such a stretch still leaves the
    #: server half idle instead of turning the run into an overload test.
    rate: float
    tenants: tuple[str, ...] = ("t0", "t1", "t2", "t3")
    #: A fused multiple of T and one that leaves a remainder tail.
    steps: tuple[int, ...] = (8, 10)
    #: Share of requests that carry ``tolerance=`` and its value.
    tolerance_share: float = 0.25
    tolerance: float = 1e-4
    #: Distinct input grids cycled through by the requests.
    grid_pool: int = 32
    #: Per-request deadline: an unanswered request fails after this.
    timeout_ms: float = 1000.0


def serve_spec(quick: bool = False) -> ServeSpec:
    if quick:
        return ServeSpec("heat-2d", (32, 32), 4, rate=100.0, grid_pool=8)
    return ServeSpec("heat-2d", (128, 128), 4, rate=150.0)


#: The request mix does not depend on the seed: only arrivals and grid
#: values do, so two seeds offer the same work.
_MIX_SEED = 0x5E12


def serve_mix(spec: ServeSpec, count: int) -> list[tuple[str, int, float | None]]:
    """``(tenant, steps, tolerance)`` of the first ``count`` requests."""
    rng = np.random.default_rng(_MIX_SEED)
    tenants = rng.integers(0, len(spec.tenants), count)
    steps = rng.integers(0, len(spec.steps), count)
    tol = rng.random(count) < spec.tolerance_share
    return [
        (spec.tenants[a], spec.steps[b], spec.tolerance if c else None)
        for a, b, c in zip(tenants, steps, tol)
    ]


def arrivals(seed: int, rate: float, seconds: float, child: int) -> np.ndarray:
    """Poisson arrival offsets (seconds from the start) within ``seconds``.

    The count is fixed at ``rate * seconds``; given its count, a Poisson
    process places its arrivals as sorted uniform draws.  Fixing the
    count keeps the offered work the same for every seed.  ``child``
    gives each process of a run its own arrivals.
    """
    rng = np.random.default_rng([seed, 0xA77, child])
    return np.sort(rng.uniform(0.0, seconds, round(rate * seconds)))


def grid(seed: int, shape: tuple[int, ...], *key: int) -> np.ndarray:
    """One float64 input grid; ``key`` separates the grids of one seed."""
    return np.random.default_rng([seed, *key]).standard_normal(shape)
