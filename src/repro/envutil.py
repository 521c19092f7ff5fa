"""Strict parsing for the ``REPRO_*`` environment switches.

The engine exposes a handful of fleet-wide environment overrides
(``REPRO_WORKERS``, ``REPRO_PROCS``, ``REPRO_FFT_BACKEND``,
``REPRO_START_METHOD``, ``REPRO_AUTOTUNE``).  A typo in one of them used
to either crash with a bare ``ValueError`` (``int("two")``) or — worse —
silently fall back to a default, hiding a misconfigured deployment behind
serial execution.  Every consumer now funnels through these helpers, so a
bad value fails fast with a :class:`~repro.errors.PlanError` that names
the offending variable and the value it carried.
"""

from __future__ import annotations

import os
from typing import Sequence

from .errors import PlanError

__all__ = [
    "env_int",
    "env_positive_int",
    "env_positive_float",
    "env_choice",
    "env_flag",
]


def env_int(name: str) -> int | None:
    """``$name`` as an int; ``None`` when unset or empty.

    Unparsable values raise :class:`PlanError` naming the variable —
    never a silent fallback.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw.strip())
    except ValueError:
        raise PlanError(
            f"${name} must be an integer, got {raw!r}"
        ) from None


def env_positive_int(name: str) -> int | None:
    """``$name`` as an int ``>= 1``; ``None`` when unset or empty."""
    value = env_int(name)
    if value is not None and value < 1:
        raise PlanError(f"${name} must be >= 1, got {value}")
    return value


def env_positive_float(name: str) -> float | None:
    """``$name`` as a float ``> 0``; ``None`` when unset or empty.

    Used for duration knobs such as ``REPRO_RANK_TIMEOUT`` (seconds a
    worker rank may go without a heartbeat before the supervisor declares
    it hung).  ``inf``/``nan`` and non-positive values are configuration
    errors, not timeouts, and raise :class:`PlanError`.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        value = float(raw.strip())
    except ValueError:
        raise PlanError(
            f"${name} must be a positive number of seconds, got {raw!r}"
        ) from None
    if not value > 0 or value != value or value == float("inf"):
        raise PlanError(
            f"${name} must be a finite positive number of seconds, got {raw!r}"
        )
    return value


def env_choice(name: str, choices: Sequence[str]) -> str | None:
    """``$name`` constrained to ``choices``; ``None`` when unset/empty."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    value = raw.strip().lower()
    if value not in choices:
        raise PlanError(
            f"${name} must be one of {', '.join(choices)}; got {raw!r}"
        )
    return value


#: Recognised boolean spellings (case-insensitive, surrounding space ignored).
_FLAG_TRUE = ("1", "true", "yes", "on")
_FLAG_FALSE = ("0", "false", "no", "off")


def env_flag(name: str) -> bool:
    """``$name`` as a boolean switch; ``False`` when unset or empty.

    Accepts ``1``/``true``/``yes``/``on`` and ``0``/``false``/``no``/
    ``off``.  Anything else raises :class:`PlanError` naming the variable —
    a typo like ``REPRO_AUTOTUNE=ture`` used to silently disable the
    switch, hiding a misconfigured deployment.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return False
    value = raw.strip().lower()
    if value in _FLAG_TRUE:
        return True
    if value in _FLAG_FALSE:
        return False
    raise PlanError(
        f"${name} must be a boolean flag "
        f"({'/'.join(_FLAG_TRUE)} or {'/'.join(_FLAG_FALSE)}); got {raw!r}"
    )
