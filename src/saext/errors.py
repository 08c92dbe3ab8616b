"""Exception hierarchy.

Every error carries a short machine-readable ``code`` that the CLI surfaces in
its structured error objects, so library users and shell scripts can branch on
the same identifiers.
"""

from __future__ import annotations

__all__ = [
    "DegenerateGridError",
    "DomainViolationError",
    "GridMismatchError",
    "IndeterminateError",
    "InvalidIndexError",
    "InvalidMetricError",
    "NoBoundStateError",
    "NoRootError",
    "PreconditionError",
    "SaextError",
    "SingularSupportError",
    "SingularityError",
    "SweepSizeError",
    "TooCoarseError",
    "UnsupportedBoundaryError",
    "UnsupportedExtensionError",
    "UnsupportedOperatorError",
]


class SaextError(Exception):
    """Base class for all library errors."""

    code = "error"


class GridMismatchError(SaextError):
    """Two grid functions do not share the same grid / measure weight."""

    code = "grid-mismatch"


class DegenerateGridError(SaextError):
    """Grid has too few points for the requested operation."""

    code = "degenerate-grid"


class UnsupportedBoundaryError(SaextError):
    """Boundary form requested on an interval where it is not defined."""

    code = "unsupported-boundary"


class UnsupportedOperatorError(SaextError):
    """Operator/interval combination outside the built-in catalog."""

    code = "unsupported-operator"


class UnsupportedExtensionError(SaextError):
    """Extension construction requested where indices are not (1,1)."""

    code = "unsupported-extension"


class PreconditionError(SaextError):
    """Input violates a documented precondition."""

    code = "precondition"


class DomainViolationError(SaextError):
    """Wavefunction does not lie in the declared operator domain."""

    code = "domain-violation"


class NoRootError(SaextError):
    """Root bracket contains no sign change."""

    code = "no-root"


class NoBoundStateError(SaextError):
    """Bound-state quantity requested for a parameter with no bound state."""

    code = "no-bound-state"


class IndeterminateError(SaextError):
    """Expression is 0/0 at the requested parameters."""

    code = "indeterminate"


class InvalidIndexError(SaextError):
    """Quantum number outside the valid range."""

    code = "invalid-index"


class TooCoarseError(SaextError):
    """Discretization size below the minimum for a meaningful result."""

    code = "too-coarse"


class SingularityError(SaextError):
    """Trajectory reached the potential singularity."""

    code = "singularity-reached"


class SingularSupportError(SaextError):
    """Probe function support touches the coordinate singularity."""

    code = "singular-support"


class InvalidMetricError(SaextError):
    """Metric determinant non-positive where it was sampled."""

    code = "invalid-metric"


class SweepSizeError(SaextError):
    """Requested parameter sweep exceeds the hard size limit."""

    code = "sweep-too-large"
