"""Exception hierarchy shared across the package.

Each class's ``exit_code`` is the one place the CLI's error exit codes live:
validation problems exit 1, usage problems exit 64, and every other package
error (convergence, singularity, oracle and the rest) exits 2.
"""


class OscdampError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class GridFormatError(OscdampError):
    """Malformed grid file; carries the offending line number in the message."""

    exit_code = 1


class ValidationError(OscdampError):
    """Structurally valid input that violates a model requirement."""

    exit_code = 1


class ConvergenceError(OscdampError):
    """Iterative solve failed."""


class SingularityError(OscdampError):
    """A singular power-flow Jacobian or Laplacian, or a grounded Laplacian that is
    not positive definite (a saddle of the energy function)."""


class DomainError(OscdampError):
    """Quantity evaluated outside its mathematical domain (e.g. ln of V <= 0)."""

    exit_code = 1


class DegenerateModeError(OscdampError):
    """The sensitivity denominator is numerically zero for this mode."""


class ReductionError(OscdampError):
    """Algebraic block singular; the DAE cannot be reduced at this point."""


class OracleError(OscdampError):
    """A brute-force verification oracle could not be evaluated."""


class ModeMatchingError(OracleError):
    """Re-solved spectrum has no unambiguous counterpart for the tracked mode."""


class UsageError(OscdampError):
    """Operation invoked outside its documented preconditions."""

    exit_code = 64
