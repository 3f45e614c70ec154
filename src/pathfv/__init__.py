"""pathfv: finite-volume laboratory for 1-D nonconservative hyperbolic systems.

The package couples three ingredients that must be chosen together when a
system is not in divergence form: a model system (coefficient matrix and
eigenstructure), a family of paths that fixes the jump conditions, and a
scheme whose interface terms are consistent with that family.  On top of
those it provides exact shock-curve tracing, an exact Riemann solver for
the 2x2 model, and diagnostics that measure how far computed shocks are
from the prescribed jump conditions.
"""

from .errors import (
    BlowUpError,
    CFLViolationError,
    ConfigError,
    CurveRangeError,
    DomainError,
    EigenDecompositionError,
    FrontExtractionError,
    HyperbolicityLossError,
    PathConstructionError,
    PathFVError,
    QuadratureError,
    RiemannSolutionError,
    RoeConstructionError,
    StepLimitError,
    TraceError,
)
from .systems import (
    ShallowWaterSystem,
    SimplifiedSystem,
    TwoLayerSystem,
    solve_characteristic_quartic,
)
from .paths import (
    EquilibriumPath,
    PathFamily,
    SegmentsPath,
    SkewedSegmentsPath,
    TwoSegmentPath,
    path_integral,
)
from .schemes import (
    Batch,
    DirichletBoundary,
    FreeBoundary,
    GlimmScheme,
    GodunovScheme,
    Grid,
    LaxFriedrichsScheme,
    ModifiedLaxFriedrichsScheme,
    RoeScheme,
    Solution,
    VanDerCorputSampler,
    cfl_dt,
    evolve,
    evolve_group,
    roe_matrix,
    step,
)
from .riemann import (
    WaveFan,
    fan_split_integrals,
    sample,
    shock_curve_1,
    solve_riemann,
)
from .hugoniot import (
    HugoniotCurve,
    ShockFit,
    curve_distance,
    extract_shock,
    numerical_curve,
    solve_rh_at,
    stationary_contact_state,
    trace_exact,
)
from .diagnostics import (
    MassLedger,
    equivalent_eq_i2,
    mass_track,
    rh_residual,
    well_balance_check,
)

__version__ = "0.1.0"
