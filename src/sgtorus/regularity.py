"""Oscillation decay and pointwise Holder fits.

These diagnostics quantify interior regularity of solutions of the
linearized operator on section ladders: geometric decay of oscillations
down a dyadic ladder, and power-law growth of |u - u(x0)| in shells
around a point.
"""

import dataclasses

import numpy as np
from scipy import ndimage

from . import grid as gridmod
from .errors import ResidualTooLarge
from .fitting import CONSTANT_SENTINEL, loglog_fit
from .lma import stencil_rows
from .ma import cofactor
from .sections import extract_section

# fields whose total variation falls below this fraction of machine scale
# count as constant
_CONSTANT_FLOOR = 1e-13


def interior_cells(mask):
    """Cells whose full 9-point stencil stays inside the mask, wrapping
    across the periodic seam."""
    return ndimage.minimum_filter(np.asarray(mask, bool), size=3, mode="wrap")


def oscillation(values, mask):
    """max - min of a field over a cell mask."""
    v = np.asarray(values, dtype=float)[np.asarray(mask, bool)]
    if v.size == 0:
        return 0.0
    return float(np.max(v) - np.min(v))


def homogeneity_residual(u, pot, mask):
    """Sup norm of L u over the interior of the mask (L from pot), from
    the operator's rows at the interior cells only."""
    rows = stencil_rows(pot.grid, cofactor(pot),
                        np.flatnonzero(interior_cells(mask)))
    res = rows @ np.asarray(u, dtype=float).ravel()
    return float(np.max(np.abs(res))) if res.size else 0.0


def _require_homogeneous(u, pot, mask, tol):
    res = homogeneity_residual(u, pot, mask)
    scale = max(1.0, float(np.max(np.abs(np.asarray(u)[mask]))))
    bound = tol * scale / pot.grid.spacing**2
    if res > bound:
        raise ResidualTooLarge(
            f"field is not a homogeneous solution on the section: "
            f"interior residual {res:.3e} > {bound:.3e}"
        )
    return res


@dataclasses.dataclass
class DecayRow:
    h: float
    osc_h: float
    osc_half: float
    ratio: float


@dataclasses.dataclass
class DecayReport:
    rows: list
    beta_max: float
    constant: bool
    interior_residual: float

    def ratios(self):
        return [r.ratio for r in self.rows if np.isfinite(r.ratio)]


def oscillation_decay(u, pot, x0, h0, rungs=4, residual_tol=1e-6):
    """Oscillation of a homogeneous solution down a dyadic section ladder.

    Requires L u = 0 on the interior of S(x0, h0) up to residual_tol
    (relative, scaled by sup|u| / spacing^2); otherwise ResidualTooLarge.
    Rows pair each height with its half: ratio = osc(S(h/2)) / osc(S(h)).
    Zero oscillation at a rung yields the constant sentinel ratio (inf)
    and sets the constant flag.
    """
    u = np.asarray(u, dtype=float)
    sections = [extract_section(pot, x0, h0 * 0.5**k) for k in range(rungs)]
    res = _require_homogeneous(u, pot, sections[0].mask, residual_tol)
    oscs = [oscillation(u, s.mask) for s in sections]
    scale = max(float(np.max(np.abs(u[sections[0].mask]))), 1.0)
    rows, constant = [], False
    for k in range(rungs - 1):
        if oscs[k] <= _CONSTANT_FLOOR * scale:
            rows.append(DecayRow(sections[k].height, oscs[k], oscs[k + 1],
                                 CONSTANT_SENTINEL))
            constant = True
        else:
            rows.append(DecayRow(sections[k].height, oscs[k], oscs[k + 1],
                                 oscs[k + 1] / oscs[k]))
    finite = [r.ratio for r in rows if np.isfinite(r.ratio)]
    beta = max(finite) if finite else CONSTANT_SENTINEL
    return DecayReport(rows, beta, constant, res)


@dataclasses.dataclass
class HolderFit:
    """Result of a pointwise Holder-exponent fit at x0.

    gamma is the fitted exponent, prefactor the fitted constant C in
    m(r) ~ C r^gamma, shells the (r, m) pairs used (r is the largest
    sampled distance inside each shell, which is the abscissa the shell
    maximum is achieved near; the nominal shell edge would bias the slope
    by O(spacing/r)).
    """

    gamma: float
    prefactor: float
    r2: float
    shells: list
    constant: bool


def holder_fit(u, x0, grid, radii=None, min_points=4):
    """Fit max_{shell(r)} |u - u(x0)| ~ C r^gamma around x0.

    Shells are periodic-distance annuli [r, r + spacing).  A field that is
    constant to machine precision returns the sentinel gamma = inf with
    constant=True instead of fitting noise.
    """
    u = np.asarray(u, dtype=float)
    h = grid.spacing
    i0, j0 = grid.index_of(np.asarray(x0, dtype=float))
    x0c = np.array([(i0 + 0.5) * h, (j0 + 0.5) * h])
    x1, x2 = grid.centers()
    dist = np.hypot(gridmod.wrap_delta(x1 - x0c[0]),
                    gridmod.wrap_delta(x2 - x0c[1]))
    diff = np.abs(u - u[i0, j0])

    if radii is None:
        radii = np.geomspace(3.0 * h, 0.3, 8)
    shells = {}
    for r in radii:
        sel = (dist >= r) & (dist < r + h)
        if not np.any(sel):
            continue
        m = float(np.max(diff[sel]))
        r_achieved = float(np.max(dist[sel]))
        # overlapping windows can share their farthest sample; keep one point
        shells[r_achieved] = max(m, shells.get(r_achieved, 0.0))
    shells = sorted(shells.items())

    scale = max(float(np.max(np.abs(u))), 1.0)
    if not shells or max(m for _, m in shells) <= _CONSTANT_FLOOR * scale:
        return HolderFit(CONSTANT_SENTINEL, 0.0, 1.0, shells, True)
    fit = loglog_fit([r for r, _ in shells], [m for _, m in shells],
                     min_points=min_points)
    return HolderFit(fit.slope, fit.prefactor, fit.r2, shells, False)
