"""Exception types raised across the package."""


class PathFVError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PathFVError, ValueError):
    """A state lies outside the domain of definition (e.g. non-positive thickness)."""


class HyperbolicityLossError(PathFVError):
    """The coefficient matrix has complex eigenvalues at some state.

    Carries the discriminant of the characteristic polynomial, the largest
    imaginary part encountered and ``indices``: the flat (C-order) positions
    of the failing states in the batch, as a tuple of ints (None when
    unknown).
    """

    def __init__(self, message, discriminant=None, max_imag=None, indices=None):
        super().__init__(message)
        self.discriminant = discriminant
        self.max_imag = max_imag
        self.indices = None if indices is None else tuple(int(i) for i in indices)


class EigenDecompositionError(PathFVError):
    """Eigendecomposition is defective or too ill-conditioned to use.
    ``index`` is the first failing state or interface of the batch (C
    order), or None when unknown."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class RoeConstructionError(PathFVError):
    """A linearization failed one of its defining properties."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class PathConstructionError(PathFVError):
    """A path between two states could not be constructed."""


class QuadratureError(PathFVError):
    """Adaptive quadrature failed to reach the requested tolerance.

    ``achieved`` holds the last refinement difference.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class CFLViolationError(PathFVError):
    """A time step exceeds the stability bound; ``required_dt`` is the limit."""

    def __init__(self, message, required_dt=None):
        super().__init__(message)
        self.required_dt = required_dt


class BlowUpError(PathFVError):
    """A scheme produced non-finite values; ``cell`` is the first offender."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class RiemannSolutionError(PathFVError):
    """The exact Riemann solver failed.  ``residual`` is the last residual of
    an iteration that did not converge; ``index`` the first failing lane of
    the batch (C order), or the interface when a scheme reports it."""

    def __init__(self, message, residual=None, index=None):
        super().__init__(message)
        self.residual = residual
        self.index = index


class CurveRangeError(PathFVError):
    """A wave curve was evaluated outside its admissible range."""


class TraceError(PathFVError):
    """Continuation of a shock curve failed; ``xi`` is the failing parameter."""

    def __init__(self, message, xi=None):
        super().__init__(message)
        self.xi = xi


class FrontExtractionError(PathFVError):
    """Shock extraction found zero or several fronts; ``count`` says how many."""

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class ConfigError(PathFVError, ValueError):
    """An experiment configuration is invalid; ``field`` is a JSON path string."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
