"""Exception hierarchy shared by all georank modules."""


class GeorankError(Exception):
    """Base class for all georank errors."""


class DomainError(GeorankError):
    """Argument outside the mathematical domain of a function."""


class UnsupportedVariantError(GeorankError):
    """Operation not defined for this measure variant."""


class ParityError(GeorankError):
    """Method requires the opposite parity of the ambient dimension."""


class ParseError(GeorankError):
    """Malformed input file; message carries row/column location."""


class DimensionMismatchError(GeorankError):
    """Inconsistent dimensions between inputs."""


class SingularityError(GeorankError):
    """Evaluation requested too close to an atom of the measure."""


class StencilOverflowError(GeorankError):
    """Finite-difference stencil does not fit inside the grid."""


class BudgetError(GeorankError):
    """Requested computation exceeds the configured size cap."""


class DecayError(GeorankError):
    """Integrand does not decay fast enough for the oscillatory quadrature."""


class ToleranceError(GeorankError):
    """Refinement check failed: successive refinements disagree."""


class NonConvergenceError(GeorankError):
    """Iterative solver failed to converge; carries the final residual and,
    where the solver keeps one, the history of its iterates' objective
    values."""

    def __init__(self, message, residual=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.history = history


class DegenerateSupportError(GeorankError):
    """Measure is supported on a single line; quantiles are not unique."""


class ConfigError(GeorankError):
    """Invalid run configuration (CLI or programmatic)."""
