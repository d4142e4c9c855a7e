"""Exception hierarchy for wehrlflux."""


class WehrlFluxError(Exception):
    """Base class for all package errors."""


class DimensionError(WehrlFluxError, ValueError):
    """Operator or state dimension is invalid or mismatched."""


class CutoffError(WehrlFluxError, ValueError):
    """Fock cutoff below the recommended value for the given parameters."""


class StateValidationError(WehrlFluxError, ValueError):
    """A density matrix violates hermiticity, trace or positivity bounds."""


class SolverConvergenceError(WehrlFluxError, RuntimeError):
    """An eigensolver or linear solver failed to converge to tolerance."""


class DegenerateSteadyStateError(WehrlFluxError, RuntimeError):
    """More than one eigenvalue of the generator sits at zero."""


class MassDeficitError(WehrlFluxError, ValueError):
    """Quadrature grid does not capture the state's phase-space mass."""


class UnstableSystemError(WehrlFluxError, ValueError):
    """Drift matrix is not Hurwitz; carries the offending eigenvalue."""

    def __init__(self, msg, eigenvalue=None):
        super().__init__(msg)
        self.eigenvalue = eigenvalue


class InvalidCovarianceError(WehrlFluxError, ValueError):
    """Covariance matrix violates symmetry, physicality or positivity."""


class SingularBranchError(WehrlFluxError, ValueError):
    """Bosonization branch is singular (fully inverted spin)."""


class ConfigError(WehrlFluxError, ValueError):
    """Run configuration is malformed or fails validation."""
