"""Numerical laboratory for dual semigeostrophic flow on the 2D torus."""

from .errors import (
    BadDensity,
    CFLViolation,
    ConfigError,
    DegenerateMap,
    DegenerateSection,
    EmptySection,
    FactorizationResidualTooLarge,
    GridMismatch,
    IndefiniteOperator,
    InsufficientSamples,
    InvariantViolation,
    LostConvexity,
    NonConvergence,
    ResidualTooLarge,
    SectionWrapsTorus,
    SGTorusError,
    SolverError,
    SolverStall,
)
from .grid import (
    PeriodicDisplacement,
    TorusField,
    TorusGrid,
    integral,
    periodic_distance,
    periodic_divergence,
    periodic_gradient,
    sample_bilinear,
)
from .ma import (
    ConvexPotential,
    CofactorField,
    LegendrePotential,
    cofactor,
    legendre,
    solve_ma_periodic,
)
from .sections import (
    JohnNormalization,
    Section,
    extract_section,
    john_normalize,
    section_ladder,
)
from .lma import (
    DivergenceFormOperator,
    GreenFunction,
    green_function,
    green_integrability_report,
    level_set_decay,
    solve_dirichlet_lma,
    solve_periodic_lma,
)
from .regularity import (
    holder_fits,
    oscillation,
    oscillation_decay,
)
from .dynamics import (
    RunResult,
    SGState,
    holder_in_time_report,
    run,
    step,
    transport_step,
    velocity_from_potential,
)
from .polar import (
    MapTimeSeries,
    PolarFactorization,
    factorize,
    polar_time_regularity,
    pushforward_density,
)

__version__ = "0.1.0"
