"""Exception hierarchy shared across the library and the CLI.

Each class maps onto one process exit code so batch scripts can branch on
failure category without parsing stderr.
"""

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
