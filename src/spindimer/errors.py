"""Exception hierarchy shared by all spindimer modules.

Every library-specific failure derives from :class:`SpinDimerError` so
callers (in particular the CLI) can distinguish domain errors from bugs.
"""


class SpinDimerError(Exception):
    """Base class for all spindimer errors."""


class NonPositiveTemperatureError(SpinDimerError, ValueError):
    """A temperature that must be finite and strictly positive (kelvin) was not."""


class NotHermitianError(SpinDimerError, ValueError):
    """Matrix failed the Hermitian check (|A - A^dagger| > 1e-12 absolute)."""


class DimensionTooLargeError(SpinDimerError, ValueError):
    """Dense eigensolver refused a matrix above its dimension cap."""


class DimensionMismatchError(SpinDimerError, ValueError):
    """Subsystem dimensions are inconsistent with the matrix shape."""


class SiteOutOfRangeError(SpinDimerError, IndexError):
    """A spin-site index is outside the system."""


class TooManySitesError(SpinDimerError, ValueError):
    """Spin system exceeds the 12-site dense-diagonalization cap."""


class InvalidStateError(SpinDimerError, ValueError):
    """Density matrix is not Hermitian / unit-trace / positive semidefinite."""


class NotAntiferromagneticError(SpinDimerError, ValueError):
    """Critical temperatures require an antiferromagnetic coupling (J < 0)."""


class NonUniformGError(SpinDimerError, ValueError):
    """Fluctuation susceptibility is only defined for a uniform g-factor."""


class TooFewPointsError(SpinDimerError, ValueError):
    """Dataset has fewer points than a three-parameter fit needs."""


class SingularJacobianError(SpinDimerError, RuntimeError):
    """Normal equations became singular during the least-squares fit."""

    def __init__(self, iteration, message=None):
        self.iteration = iteration
        super().__init__(message or f"singular Jacobian at iteration {iteration}")


class MalformedRowError(SpinDimerError, ValueError):
    """A data file row could not be parsed."""

    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class EmptyDatasetError(SpinDimerError, ValueError):
    """A data file contained no data rows."""
