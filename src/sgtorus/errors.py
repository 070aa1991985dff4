"""Exception hierarchy for the torus laboratory.

Every failure mode a caller is expected to handle gets its own class so
batch drivers can map them to exit codes (config -> 1, solver -> 2,
invariant -> 3) without string matching.
"""


class SGTorusError(Exception):
    """Base class for all package errors."""


class ConfigError(SGTorusError):
    """Bad or inconsistent run configuration."""


# --- solver failures (exit code 2) ---------------------------------------

class SolverError(SGTorusError):
    """Base for numerical solver failures."""


class BadDensity(SolverError):
    """Density is not strictly positive or does not have unit mass."""


class NonConvergence(SolverError):
    """Newton iteration exhausted its damping or iteration budget."""


class LostConvexity(SolverError):
    """Iterate left the discretely convex cone and no step could restore it."""


class SolverStall(SolverError):
    """Linear solver failed to reach the requested residual."""


class IndefiniteOperator(SolverError):
    """Coefficients or assembled operator not positive (semi)definite."""


# --- geometry failures ----------------------------------------------------

class SectionError(SGTorusError):
    """Base for section extraction/normalization failures."""


class EmptySection(SectionError):
    """Requested height is below one-cell resolution."""


class SectionWrapsTorus(SectionError):
    """Section diameter reached half the period; the lift is ambiguous."""


class DegenerateSection(SectionError):
    """Section is thinner than the stencil can resolve."""


# --- diagnostics failures -------------------------------------------------

class ResidualTooLarge(SGTorusError):
    """Field passed as a homogeneous solution does not solve the equation."""


class FactorizationResidualTooLarge(ResidualTooLarge):
    """Polar factors fail to compose back to the input map."""


class InsufficientSamples(SGTorusError):
    """Not enough usable points to fit an exponent."""


class DegenerateMap(SGTorusError):
    """Pushforward left empty target cells; the map is not resolvable."""


class CFLViolation(SGTorusError):
    """Time step too large for the current velocity field."""


class GridMismatch(SGTorusError):
    """Operands live on different grids."""


# --- invariant certificates (exit code 3) ---------------------------------

class InvariantViolation(SGTorusError):
    """A run-time certificate failed.

    Parameters
    ----------
    name : str
        Short machine-readable certificate name (goes to stderr in the CLI).
    detail : str
        Human-readable description of the violation.
    """

    def __init__(self, name, detail=""):
        self.name = name
        self.detail = detail
        super().__init__(f"{name}: {detail}" if detail else name)
