"""Exception types shared across the package."""


class FrustraError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitianError(FrustraError):
    """Input matrix fails the Hermitian symmetry check."""


class NoConvergenceError(FrustraError):
    """Underlying eigen/singular-value iteration did not converge."""


class DimensionCapError(FrustraError):
    """Total Hilbert-space dimension exceeds the configured cap."""


class NonHermitianTermError(FrustraError):
    """A Hamiltonian term is not Hermitian (factor or coefficient)."""


class InvalidAssignmentError(FrustraError):
    """Explicit local/interaction split does not partition the terms."""


class InvalidBipartitionError(FrustraError):
    """Bipartition does not cover every site exactly once."""


class OracleScaleError(FrustraError):
    """Brute-force oracle input exceeds its size/work limits."""


class UndefinedBoundError(FrustraError):
    """A bound was requested in a regime where it is undefined."""


class DegenerateSeparationError(FrustraError):
    """Eigenvalue separation is too small for a perturbation bound."""


class NotProjectorError(FrustraError):
    """Matrix is not Hermitian idempotent within tolerance."""


class NotBipartiteError(FrustraError):
    """Operation requires exactly two parties."""
