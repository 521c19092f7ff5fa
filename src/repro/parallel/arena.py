"""Workspace arenas: preallocated steady-state buffers for plan execution.

The paper's §3.1 discipline — derive auxiliary data once, reuse it for
every window — applies to *buffers* as much as to DFT matrices.  A
:class:`WorkspaceArena` owns the two large per-application workspaces the
engine otherwise reallocates on every call:

* ``windows`` — the ``(batch * total_segments, *local_shape)`` gather
  destination ``SegmentPlan.split`` fills (``np.take(..., out=)``);
* ``padded`` — the zero-boundary gather source.  Its border is zeroed
  exactly once, at construction: applications only ever rewrite the
  interior (the border stays zero by construction), so the per-call
  ``np.pad`` allocation disappears.

Arenas are checked out of a small per-plan pool
(:meth:`FlashFFTStencil._arena_acquire`), so the steady-state ``run()``
loop performs no per-application heap allocation beyond the transient FFT
outputs (NumPy's ``rfftn``/``irfftn`` do not accept ``out=``); those
transients are freed within the application, so net retained memory stays
flat — asserted by the ``tracemalloc`` test in ``tests/test_parallel.py``.

Sharded execution slices disjoint segment ranges out of the same
``windows`` buffer (first-axis slices of a C-contiguous array are
contiguous views), so one arena serves every worker without copies or
locks.  The resident loop fuses ``windows`` in place across applications,
so keeping the batch resident needs no second buffer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.tailoring import SegmentPlan

__all__ = ["WorkspaceArena"]


class WorkspaceArena:
    """Reusable split/gather workspaces for one plan geometry.

    ``batch`` scales the window buffer for batched multi-grid serving:
    grid ``b`` owns rows ``[b * total_segments, (b+1) * total_segments)``.
    """

    __slots__ = (
        "windows",
        "padded",
        "batch",
        "dtype",
        "_geometry",
    )

    def __init__(self, segments: "SegmentPlan", batch: int = 1) -> None:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.batch = int(batch)
        self.dtype = segments.dtype
        # dtype is part of the pool identity: a float32 plan must never be
        # handed a float64 buffer back (np.take(out=) would reject it; a
        # silent match would double its memory traffic), nor vice versa.
        self._geometry = (
            segments.grid_shape,
            segments.local_shape,
            segments.boundary,
            self.dtype,
        )
        rows = self.batch * segments.total_segments
        self.windows = np.empty((rows,) + segments.local_shape, dtype=self.dtype)
        if segments.boundary == "zero":
            # Zeroed once; split only rewrites the interior, so the border
            # stays zero for the lifetime of the arena.
            self.padded = np.zeros(segments._source_shape, dtype=self.dtype)
        else:
            self.padded = None

    def fits(self, segments: "SegmentPlan", batch: int = 1) -> bool:
        """Whether this arena was built for exactly this geometry/batch/dtype."""
        return self.batch == batch and self._geometry == (
            segments.grid_shape,
            segments.local_shape,
            segments.boundary,
            segments.dtype,
        )

    def window_rows(self, start: int, stop: int) -> np.ndarray:
        """A contiguous view of window rows ``[start, stop)`` (no copy)."""
        return self.windows[start:stop]

    def nbytes(self) -> int:
        """Total bytes held by the arena's buffers."""
        n = self.windows.nbytes
        if self.padded is not None:
            n += self.padded.nbytes
        return n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkspaceArena(batch={self.batch}, windows={self.windows.shape},"
            f" padded={'yes' if self.padded is not None else 'no'})"
        )
