"""Shared power-law fitting helpers.

All exponent estimates in the package go through one ordinary least
squares fit in log-log coordinates so that reports agree on slope,
prefactor, and R^2 conventions.  The line is fitted in closed form from
the centred sums (slope = sum dx dy / sum dx^2), not by a general least
squares solver, along the last axis (_line): many rows with the same
number of pairs fit in one pass (loglog_fits), each with the bits of its
row fitted alone.
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
    keep = _usable(x, y)
    return linear_fit(np.log(x[keep]), np.log(y[keep]), min_points=min_points)


def _usable(x, y):
    """The pairs a log-log fit keeps: both entries positive and finite."""
    return (x > 0) & (y > 0) & np.isfinite(x) & np.isfinite(y)


def loglog_fits(x, y, min_points):
    """loglog_fit of each row of the (rows, points) arrays x and y, as a
    list in row order.  A pair with a nonpositive or non-finite entry is
    dropped, as loglog_fit drops it, so NaN pads a short row.

    The rows with the same number of usable pairs are fitted in one
    closed-form pass (_line) over a (rows, pairs) array, each row's pairs
    in their order, so each fit has the bits of its row fitted alone.
    Raises the InsufficientSamples of the first row that fails, as
    loglog_fit of that row raises it.
    """
    keep = _usable(x, y)
    counts = np.count_nonzero(keep, axis=-1)
    lines = [None] * counts.size
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        picked = keep[rows]
        line = _line(np.log(x[rows][picked]).reshape(rows.size, k),
                     np.log(y[rows][picked]).reshape(rows.size, k))
        for row, fit in zip(rows, zip(*(a.tolist() for a in line))):
            lines[row] = fit
    return [_power_law(int(k), min_points, *line)
            for k, line in zip(counts, lines)]


def linear_fit(x, y, min_points=4):
    """Plain OLS fit y = slope*x + intercept with R^2 (no log transform),
    in closed form from the centred sums.  Raises InsufficientSamples on
    fewer than min_points finite pairs or on equal abscissae."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y)
    x, y = x[keep], y[keep]
    return _power_law(x.size, min_points, *_line(x, y))


def _line(x, y):
    """Closed-form OLS y = slope*x + intercept along the last axis of the
    equal-shape arrays x and y, every pair used: (slope, intercept, r2,
    sxx), each of the leading shape, sxx the centred sum of x^2.  Each sum
    is numpy's pairwise sum along that contiguous axis, so a row of a 2-D
    pair gets the bits of the same row fitted as 1-D arrays."""
    k = x.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        x_mean, y_mean = x.sum(axis=-1) / k, y.sum(axis=-1) / k
        dx, dy = x - x_mean[..., None], y - y_mean[..., None]
        sxx = (dx * dx).sum(axis=-1)
        slope = (dx * dy).sum(axis=-1) / sxx
        intercept = y_mean - slope * x_mean
        res = y - (slope[..., None] * x + intercept[..., None])
        ss_tot = (dy * dy).sum(axis=-1)
        r2 = np.where(ss_tot == 0.0, 1.0,
                      1.0 - (res * res).sum(axis=-1) / ss_tot)
    return slope, intercept, r2, sxx


def _power_law(count, min_points, slope, intercept, r2, sxx):
    """The PowerLawFit of one _line row over count pairs; raises
    InsufficientSamples on fewer than min_points pairs or on equal
    abscissae."""
    if count < min_points:
        raise InsufficientSamples(
            f"fit needs {min_points} usable samples, got {count}"
        )
    if sxx == 0.0:
        raise InsufficientSamples("fit needs two distinct abscissae")
    return PowerLawFit(float(slope), float(intercept), float(r2), count)


def dyadic_ladder(top, rungs):
    """Heights top, top/2, ..., top/2^(rungs-1)."""
    return [top * 0.5**k for k in range(rungs)]
