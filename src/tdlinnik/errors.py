"""Exception hierarchy.

Every failure mode raised by this package derives from :class:`TdlError`,
so callers can catch one base class at API boundaries (the CLI maps the
subclasses onto exit codes).  A sampler input numpy would reject is typed.
"""


class TdlError(Exception):
    """Base class for all package errors."""


class DomainError(TdlError, ValueError):
    """A parameter lies outside the admissible domain of its law."""


class UnknownLaw(TdlError, ValueError):
    """The requested distribution tag is not part of the family."""


class NumericalInstability(TdlError, ArithmeticError):
    """A computed probability left [0, 1] by more than the abort threshold."""


class DegenerateDistribution(TdlError):
    """The distribution is a point mass at zero; the request is undefined."""


class TailTooHeavy(TdlError):
    """The PMF table leaves too much tail mass for the requested summary."""


class HeavyTailOverflow(TdlError):
    """A heavy-tailed draw, or a Poisson or NB intensity, passed its sampling cap."""


class RejectionBudgetExceeded(TdlError):
    """A rejection sampler ran out of retries (acceptance rate too small)."""


class IncompatibleRoute(TdlError, ValueError):
    """The requested generation route does not apply to the parameter sign."""


class SingularComposition(TdlError, ArithmeticError):
    """Series composition attempted at a branch point of the outer function."""


class InsufficientSample(TdlError, ValueError):
    """Too few samples for the requested Monte-Carlo estimate."""


class EmptyGrid(TdlError, ValueError):
    """A parameter sweep produced no admissible grid points."""
