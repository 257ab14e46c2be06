"""Exception hierarchy shared across the library and the CLI, and the one
check of numeric settings that raises its UsageError.

Each class maps onto one process exit code so batch scripts can branch on
failure category without parsing stderr.
"""

import math
from typing import Optional

# cap on the bytes of the dense arrays one call builds; above it the call
# raises ResourceError before allocating them
DENSE_BYTES_CAP = 1 << 30


class PolypushError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class UsageError(PolypushError):
    """Bad arguments, malformed input files, or schema violations."""

    exit_code = 2


class ConvergenceError(PolypushError):
    """An iterative solve failed to reach its residual target."""

    exit_code = 3


class DegeneracyError(PolypushError):
    """An instance violates a rank / eigengap / non-degeneracy requirement."""

    exit_code = 4


class ResourceError(PolypushError):
    """A size or memory cap would be exceeded."""

    exit_code = 5


def check_settings(
    counts: dict[str, int],
    tolerances: dict[str, float],
    levels: Optional[dict[str, float]] = None,
):
    """UsageError unless every count is >= 1, every tolerance is finite and
    > 0, and every level (a noise level such as eta) is finite and >= 0."""
    for name, v in counts.items():
        if v < 1:
            raise UsageError(f"{name} must be >= 1, got {v}")
    for name, v in tolerances.items():
        if not (math.isfinite(v) and v > 0):
            raise UsageError(f"{name} must be finite and > 0, got {v}")
    for name, v in (levels or {}).items():
        if not (math.isfinite(v) and v >= 0):
            raise UsageError(f"{name} must be finite and >= 0, got {v}")
