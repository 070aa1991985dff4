"""Shared power-law fitting helpers.

All exponent estimates in the package go through one ordinary least
squares fit in log-log coordinates so that reports agree on slope,
prefactor, and R^2 conventions.  The line is fitted in closed form from
the centred sums (slope = sum dx dy / sum dx^2), not by a general least
squares solver.
"""

import dataclasses

import numpy as np

from .errors import InsufficientSamples

# Exponent (gamma, or oscillation ratio) reported for a field that counts
# as constant, in place of a fit to noise; the constancy test itself is
# regularity._CONSTANT_FLOOR.
CONSTANT_SENTINEL = float("inf")


@dataclasses.dataclass
class PowerLawFit:
    """Result of an OLS fit log(y) = slope*log(x) + intercept."""

    slope: float
    intercept: float
    r2: float
    n_points: int

    @property
    def prefactor(self):
        return float(np.exp(self.intercept))


def loglog_fit(x, y, min_points=4):
    """Fit y ~ C * x^slope by least squares in log-log coordinates.

    Parameters
    ----------
    x, y : array_like
        Positive samples; pairs with a nonpositive entry are dropped.
    min_points : int
        Minimum surviving pairs; fewer raises InsufficientSamples.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0) & np.isfinite(x) & np.isfinite(y)
    return linear_fit(np.log(x[keep]), np.log(y[keep]), min_points=min_points)


def linear_fit(x, y, min_points=4):
    """Plain OLS fit y = slope*x + intercept with R^2 (no log transform),
    in closed form from the centred sums.  Raises InsufficientSamples on
    fewer than min_points finite pairs or on equal abscissae."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y)
    x, y = x[keep], y[keep]
    if x.size < min_points:
        raise InsufficientSamples(
            f"fit needs {min_points} usable samples, got {x.size}"
        )
    x_mean, y_mean = x.sum() / x.size, y.sum() / y.size
    dx, dy = x - x_mean, y - y_mean
    sxx = float((dx * dx).sum())
    if sxx == 0.0:
        raise InsufficientSamples("fit needs two distinct abscissae")
    slope = float((dx * dy).sum()) / sxx
    intercept = float(y_mean - slope * x_mean)
    res = y - (slope * x + intercept)
    ss_res = float((res * res).sum())
    ss_tot = float((dy * dy).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(slope, intercept, r2, int(x.size))


def dyadic_ladder(top, rungs):
    """Heights top, top/2, ..., top/2^(rungs-1)."""
    return [top * 0.5**k for k in range(rungs)]
