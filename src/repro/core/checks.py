"""Boundary checks shared by the frozen spec dataclasses."""

from __future__ import annotations

import math
from typing import Any


def require_finite_positive(spec: Any, *fields: str) -> None:
    """Reject any set field of ``spec`` that is not finite and positive.

    ``None`` (an unset optional knob) passes.  NaN slips through a bare
    ``value <= 0`` test and an infinite delay schedules events at no
    real time, so both are refused here, at construction.
    """
    for name in fields:
        value = getattr(spec, name)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(
                f"{name} must be positive and finite, got {value!r}"
            )
