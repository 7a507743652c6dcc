"""Exception types shared across the package.

Every concrete error derives from exactly one of two bases, and the command
line maps them to its exit codes: InvalidInput to 2, SolverFailure to 3.
"""


class TgflowError(Exception):
    """Base class for all package errors."""


class InvalidInput(TgflowError):
    """A configuration, file or argument the package cannot accept."""


class SolverFailure(TgflowError):
    """A solver that was given valid input failed to produce a result."""


class NegativeModulus(InvalidInput):
    """A material modulus that must be nonnegative is negative."""


class NonAdmissible(InvalidInput):
    """Material moduli violate the thermodynamic admissibility inequality."""


class ShapeMismatch(InvalidInput):
    """Grid array shape does not match the basis collocation resolution."""


class UnknownKind(InvalidInput):
    """Unrecognized norm or trajectory kind tag."""


class GridMismatch(InvalidInput):
    """Two objects live on incompatible bases or time grids."""


class FixedPointDiverged(SolverFailure):
    """Midpoint fixed-point iteration failed to converge; dt is too large."""

    def __init__(self, message, step=None, residuals=None):
        super().__init__(message)
        self.step = step
        self.residuals = residuals


class LineSearchFailed(SolverFailure):
    """Armijo backtracking found no acceptable step above the minimum."""


class ConfigInvalid(InvalidInput):
    """Run configuration is missing keys or contains contradictory values."""


class MagicMismatch(InvalidInput):
    """Trajectory file does not start with the expected magic bytes."""


class VersionUnsupported(InvalidInput):
    """Trajectory file version is not supported by this code."""


class ChecksumFailed(InvalidInput):
    """Trajectory file payload fails its CRC32 check."""
