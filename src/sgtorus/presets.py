"""Canonical densities, potentials, and maps used by the CLI and the tests.

Every preset is analytic, so solver output can be checked against closed
forms.  The cosine amplitudes sit well below 1/(2 pi)^2: beyond that the
manufactured Hessian determinant turns negative and the family leaves the
admissible (convex) class.
"""

import numpy as np

from . import grid as gridmod
from .errors import ConfigError
from .grid import PeriodicDisplacement, TorusField
from .ma import ConvexPotential
from .polar import MapTimeSeries

TWO_PI = 2.0 * np.pi
# eps(t) = COSINE_FAMILY_SCALE sin(t) in cosine_family_series
COSINE_FAMILY_SCALE = 0.03


def uniform_density(grid):
    return TorusField(grid, np.ones((grid.n, grid.n)))


def perturbed_density(grid):
    """1 + a cos(2 pi x1) cos(2 pi x2), a = 0.3, pinch bounds (1 - a, 1 + a).

    A single separable harmonic: its potential is a Laplace eigenfunction
    to leading order, so the induced velocity runs along the density's
    own level lines and the flow is nearly steady.  Good for conservation
    certificates, useless for exciting dP*/dt.
    """
    a = 0.3
    x1, x2 = grid.centers()
    rho = 1.0 + a * np.cos(TWO_PI * x1) * np.cos(TWO_PI * x2)
    return TorusField(grid, rho / rho.mean()), 1.0 - a, 1.0 + a


def two_mode_density(grid):
    """Two harmonics with different Laplace eigenvalues, amplitudes
    a = 0.2 and b = 0.1, bounds 1 -+ (a+b).

    The mixed spectrum breaks the level-line alignment of the single-mode
    preset, so transport genuinely deforms the density and dP*/dt carries
    signal; this is the preset for time-derivative studies.
    """
    a, b = 0.2, 0.1
    x1, x2 = grid.centers()
    rho = (1.0 + a * np.cos(TWO_PI * x1) * np.cos(TWO_PI * x2)
           + b * np.cos(TWO_PI * x1))
    return TorusField(grid, rho / rho.mean()), 1.0 - a - b, 1.0 + a + b


def two_bump_density(grid, lo=0.5, hi=2.0):
    """Two periodic Gaussian bumps (width 0.18) mapped onto [lo, hi].

    Mass normalization shifts the actual pinch bounds slightly; they are
    recomputed from the field and returned alongside.
    """
    x1, x2 = grid.centers()
    pts = np.stack([x1, x2], axis=-1)

    def bump(center):
        d = gridmod.periodic_distance(pts, np.asarray(center))
        return np.exp(-(d / 0.18) ** 2)

    raw = bump((0.3, 0.3)) + bump((0.7, 0.65))
    low, hig = float(np.min(raw)), float(np.max(raw))
    rho = lo + (hi - lo) * (raw - low) / (hig - low)
    rho = rho / rho.mean()
    return TorusField(grid, rho), float(np.min(rho)), float(np.max(rho))


def quadratic_potential(grid):
    """P* = |x|^2/2: the identity transport map, q = 0 exactly."""
    return ConvexPotential(grid, np.zeros((grid.n, grid.n)))


def manufactured_potential(grid):
    """q = a cos(2 pi x1) cos(2 pi x2), a = 0.01, with its exact Hessian
    determinant.

    Returns (q_exact, det), (N, N) arrays: det(I + D^2 q) evaluated in
    closed form, unit mass exactly (the quadratic cross terms integrate to
    zero).
    """
    a, k2 = 0.01, TWO_PI**2
    x1, x2 = grid.centers()
    cc = np.cos(TWO_PI * x1) * np.cos(TWO_PI * x2)
    ss = np.sin(TWO_PI * x1) * np.sin(TWO_PI * x2)
    q = a * cc
    det = (1.0 - a * k2 * cc) ** 2 - (a * k2 * ss) ** 2
    return q, det


def perturbed_potential(grid):
    """Solved-form ConvexPotential for the manufactured cosine family."""
    q, _ = manufactured_potential(grid)
    return ConvexPotential(grid, q)


# --- torus maps ---------------------------------------------------------------

def cosine_gradient_map(grid, eps):
    """X = grad(|x|^2/2 + eps cos(2 pi x1)): a 1D gradient perturbation."""
    if abs(eps) * TWO_PI >= 0.5:
        raise ConfigError("displacement amplitude reaches half a period")
    x1, _ = grid.centers()
    d1 = -TWO_PI * eps * np.sin(TWO_PI * x1)
    return PeriodicDisplacement(grid, d1, np.zeros_like(d1))


def cosine_inverse_first_coordinate(grid, eps):
    """x1 of the inverse of the cosine gradient map at cell centers.

    Solves y1 = x1 - 2 pi eps sin(2 pi x1) for x1 by fixed point (the map
    is a contraction for eps (2 pi)^2 < 1) in 60 iterations; this is the
    oracle for the composed time derivative of the conjugate potential.
    """
    y1, _ = grid.centers()
    x1 = y1.copy()
    for _ in range(60):
        x1 = y1 + TWO_PI * eps * np.sin(TWO_PI * x1)
    return x1


def shear_map(grid, sigma=0.05):
    """Volume-preserving shear x -> (x1 + sigma sin(2 pi x2), x2)."""
    _, x2 = grid.centers()
    d1 = sigma * np.sin(TWO_PI * x2)
    return PeriodicDisplacement(grid, d1, np.zeros_like(d1))


def compose_maps(outer, inner):
    """Displacement of x -> outer(inner(x)) by bilinear sampling of outer."""
    gridmod.check_same_grid(outer.grid, inner.grid)
    grid = outer.grid
    pts = inner.apply()
    o1, o2 = gridmod.sample_vector_bilinear(outer.d1, outer.d2, pts, grid)
    x1, x2 = grid.centers()
    return PeriodicDisplacement(grid, pts[..., 0] + o1 - x1,
                                pts[..., 1] + o2 - x2)


def cosine_family_series(grid, times):
    """MapTimeSeries X_t = grad(|x|^2/2 + eps(t) cos(2 pi x1)),
    eps(t) = COSINE_FAMILY_SCALE sin(t)."""
    maps = [cosine_gradient_map(grid, COSINE_FAMILY_SCALE * np.sin(t))
            for t in times]
    return MapTimeSeries(grid, list(times), maps)


DENSITY_PRESETS = {
    "uniform": lambda grid: (uniform_density(grid), 1.0, 1.0),
    "perturbed": perturbed_density,
    "two-mode": two_mode_density,
    "two-bump": two_bump_density,
}
