"""Error taxonomy shared across the package.

Two families: ValidationError for inputs that violate a documented
precondition or invariant (bad shapes, non-Hermitian data, indefinite
masses, unsupported couplings), and NumericError for computations that
fail despite valid inputs (non-convergence, ill-conditioned fits).
The command line maps the first family to exit code 1 and the second
to exit code 2.
"""

__all__ = [
    "ValidationError",
    "NotPositiveSemidefiniteError",
    "UnboundedCouplingError",
    "BudgetError",
    "NumericError",
    "FitError",
]


class ValidationError(ValueError):
    """Input violates a precondition or a structural invariant."""


class NotPositiveSemidefiniteError(ValidationError):
    """A matrix required to be positive semidefinite is not."""


class UnboundedCouplingError(ValidationError):
    """Instantaneous (delta-like) friction requested: unbounded coupling unsupported."""


class BudgetError(ValidationError):
    """Requested problem size exceeds the supported dense-solver budget."""


class NumericError(RuntimeError):
    """A numerical routine failed on otherwise valid input."""


class FitError(NumericError):
    """Exponential fit failed."""
