"""Exception types raised across the package.

An error declares each location field as a class attribute set to None, its
default (``index = None``); the constructor takes those by keyword only."""


class PathFVError(Exception):
    """Base class for all package-specific errors."""

    def __init__(self, message, **fields):
        super().__init__(message)
        for name, value in fields.items():
            if getattr(type(self), name, 0) is not None:
                raise TypeError(f"{type(self).__name__} has no field {name!r}")
            setattr(self, name, value)


class DomainError(PathFVError, ValueError):
    """A state lies outside the domain of definition (e.g. non-positive thickness)."""


class HyperbolicityLossError(PathFVError):
    """The coefficient matrix has complex eigenvalues at some state.

    Carries the discriminant of the characteristic polynomial, the largest
    imaginary part encountered and ``indices``: the flat (C-order) positions
    of the failing states in the batch, as a tuple of ints (None when
    unknown).
    """

    discriminant = None
    max_imag = None
    indices = None

    def __init__(self, message, **fields):
        super().__init__(message, **fields)
        if self.indices is not None:
            self.indices = tuple(int(i) for i in self.indices)


class EigenDecompositionError(PathFVError):
    """Eigendecomposition is defective or too ill-conditioned to use.
    ``index`` is the first failing state or interface of the batch (C
    order), or None when unknown."""

    index = None


class RoeConstructionError(PathFVError):
    """A linearization failed one of its defining properties."""

    residual = None


class PathConstructionError(PathFVError):
    """A path between two states could not be constructed."""


class QuadratureError(PathFVError):
    """Adaptive quadrature failed to reach the requested tolerance.

    ``achieved`` holds the last refinement difference.
    """

    achieved = None


class CFLViolationError(PathFVError):
    """A time step exceeds the stability bound; ``required_dt`` is the limit."""

    required_dt = None


class BlowUpError(PathFVError):
    """A scheme produced non-finite values; ``cell`` is the first offender."""

    cell = None


class RiemannSolutionError(PathFVError):
    """The exact Riemann solver failed.  ``residual`` is the last residual of
    an iteration that did not converge; ``index`` the first failing lane of
    the batch (C order), or the interface when a scheme reports it."""

    residual = None
    index = None


class CurveRangeError(PathFVError):
    """A wave curve was evaluated outside its admissible range."""


class StepLimitError(PathFVError):
    """``evolve`` used up its step budget; ``t`` is the time it reached."""

    t = None


class TraceError(PathFVError):
    """Continuation of a shock curve failed; ``xi`` is the failing parameter."""

    xi = None


class FrontExtractionError(PathFVError):
    """Shock extraction found zero or several fronts; ``count`` says how many."""

    count = None


class ConfigError(PathFVError, ValueError):
    """An experiment configuration is invalid; ``field`` is a JSON path string."""

    field = None
