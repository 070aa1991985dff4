"""Oscillation decay and pointwise Holder fits.

These diagnostics quantify interior regularity of solutions of the
linearized operator on section ladders: geometric decay of oscillations
down a dyadic ladder, and power-law growth of |u - u(x0)| in shells
around a point.
"""

import dataclasses
import functools

import numpy as np

from .errors import GridMismatch, ResidualTooLarge
from .fitting import CONSTANT_SENTINEL, loglog_fits
from .grid import dilate
from .lma import solve_dirichlet_lma, stencil_rows
from .ma import cofactor
from .sections import extract_section, section_ladder

# fields whose total variation falls below this fraction of machine scale
# count as constant
_CONSTANT_FLOOR = 1e-13


def interior_cells(mask):
    """Cells whose full 9-point stencil stays inside the mask, wrapping
    across the periodic seam."""
    return ~dilate(~np.asarray(mask, bool))


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


def _require_homogeneous(u, pot, mask):
    res = homogeneity_residual(u, pot, mask)
    scale = max(1.0, float(np.max(np.abs(np.asarray(u)[mask]))))
    bound = 1e-6 * scale / pot.grid.spacing**2
    if res > bound:
        raise ResidualTooLarge(
            f"field is not a homogeneous solution on the section: "
            f"interior residual {res:.3e} > {bound:.3e}"
        )


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

    def ratios(self):
        return [r.ratio for r in self.rows if np.isfinite(r.ratio)]


def oscillation_decay(u, pot, x0, h0, rungs=4):
    """Oscillation of a homogeneous solution down a dyadic section ladder.

    Requires L u = 0 on the interior of S(x0, h0) up to 1e-6 (relative,
    scaled by sup|u| / spacing^2); otherwise ResidualTooLarge.
    Rows pair each height with its half: ratio = osc(S(h/2)) / osc(S(h)).
    Zero oscillation at a rung yields the constant sentinel ratio (inf)
    and sets the constant flag.
    """
    u = np.asarray(u, dtype=float)
    sections = section_ladder(pot, x0, h0, rungs)
    _require_homogeneous(u, pot, sections[0].mask)
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
    return DecayReport(rows, beta, constant)


def boundary_data_decay(pot, x0, h0, rungs=4):
    """u solving L u = 0 on S(x0, h0) with ring data sin 2 pi x1 +
    cos 4 pi x2 (the Dirichlet solve at tol 1e-12), and its
    oscillation_decay down rungs sections: (u, DecayReport)."""
    sec = extract_section(pot, x0, h0)
    x1, x2 = pot.grid.centers()
    bdata = np.sin(2.0 * np.pi * x1) + np.cos(4.0 * np.pi * x2)
    u, _ = solve_dirichlet_lma(cofactor(pot), sec.mask, pot.grid,
                               boundary_values=bdata, tol=1e-12)
    return u, oscillation_decay(u, pot, x0, h0, rungs=rungs)


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


@functools.lru_cache(maxsize=64)
def _shell_cells(grid, i0, j0, radii):
    """Shells [r, r + spacing) of periodic distance around the center of
    cell (i0, j0), one per r in the tuple radii (None: eight geometric
    radii from 3 spacings to 0.3): (cells, r_achieved) for each nonempty
    shell in the order of radii, cells being read-only flat indices and
    r_achieved the largest distance inside the shell.

    Depends on the grid and the center cell only, so every record of a
    time series reuses it; it keeps no N x N array.
    """
    h = grid.spacing
    if radii is None:
        radii = np.geomspace(3.0 * h, 0.3, 8)
    d1, d2 = grid.offsets_from(i0, j0)
    dist = np.hypot(d1, d2)
    table = []
    for r in radii:
        cells = np.flatnonzero((dist >= r) & (dist < r + h))
        if cells.size:
            cells.flags.writeable = False
            table.append((cells, float(np.max(dist.ravel()[cells]))))
    return tuple(table)


def holder_fits(u, centers, grid, radii=None, min_points=4):
    """Fit max_{shell(r)} |u - u(x0)| ~ C r^gamma around each x0 in
    centers; returns one HolderFit per centre, in order.

    Shells are periodic-distance annuli [r, r + spacing).  A field that is
    constant to machine precision returns the sentinel gamma = inf with
    constant=True instead of fitting noise.  Raises GridMismatch unless u
    is N x N.

    The shells' cells and distances are cached per grid, center cell and
    radii (_shell_cells).  One gather reads u at the shell cells of every
    centre and one np.maximum.reduceat takes every shell maximum; the
    scale max(max|u|, 1) of the constant test is taken once.  The
    distances are np.hypot of grid.offsets_from broadcast, the wrapped
    meshgrid's values bit for bit, and a shell maximum is the same maximum
    over the same cells, so the fits do not depend on the cache or on
    which other centres are fitted with them.  The centres that are not
    constant are fitted together (fitting.loglog_fits): those with the
    same number of usable shells in one pass, each with the bits of
    loglog_fit on its own shells, and the first centre whose fit fails
    raises its InsufficientSamples.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n, grid.n):
        raise GridMismatch(f"field shape {u.shape} does not match the "
                           f"{grid.n} x {grid.n} grid")
    if radii is not None:
        radii = tuple(float(r) for r in radii)
    i0, j0 = grid.index_of(np.asarray(centers, dtype=float)
                           .reshape(len(centers), 2))
    tables = [_shell_cells(grid, i, j, radii)
              for i, j in zip(i0.tolist(), j0.tolist())]
    cells = [c for table in tables for c, _ in table]
    sizes = np.array([c.size for c in cells], dtype=int)
    maxima = []
    if cells:
        u0 = np.repeat(np.repeat(u[i0, j0], [len(t) for t in tables]), sizes)
        diff = np.abs(u.ravel()[np.concatenate(cells)] - u0)
        maxima = np.maximum.reduceat(diff, np.cumsum(sizes) - sizes).tolist()
    maxima = iter(maxima)
    scale = max(float(np.max(np.abs(u))), 1.0)

    per_centre = []
    for table in tables:
        shells = {}
        for _, r_achieved in table:
            m = next(maxima)
            # overlapping windows can share their farthest sample; keep one
            shells[r_achieved] = max(m, shells.get(r_achieved, 0.0))
        shells = sorted(shells.items())
        constant = (not shells
                    or max(m for _, m in shells) <= _CONSTANT_FLOOR * scale)
        per_centre.append((shells, constant))
    live = [shells for shells, constant in per_centre if not constant]
    # the live centres' (r, m) pairs, one row each, NaN past a short row
    width = max(map(len, live), default=0)
    pairs = np.array([shells + [(np.nan, np.nan)] * (width - len(shells))
                      for shells in live]).reshape(len(live), width, 2)
    fitted = iter(loglog_fits(pairs[..., 0], pairs[..., 1], min_points))
    fits = []
    for shells, constant in per_centre:
        if constant:
            fits.append(HolderFit(CONSTANT_SENTINEL, 0.0, 1.0, shells, True))
        else:
            fit = next(fitted)
            fits.append(HolderFit(fit.slope, fit.prefactor, fit.r2, shells,
                                  False))
    return fits
