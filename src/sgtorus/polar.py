"""Polar factorization of torus maps and its time regularity.

A map X on the torus factors as X = grad P o g with P convex (plus the
quadratic) and g Lebesgue-measure preserving.  The factors come from
optimal transport: push the uniform measure forward through X, solve the
Monge-Ampere equation for that density, and set g = grad P* o X.  P
enters only through grad P, which the Legendre transform returns as a
gradient map (ma.LegendrePotential).  For a time-dependent family the
same per-timestamp pipeline feeds time differences of P* into the
spatial regularity diagnostics.  Its Monge-Ampere solves start from the
previous timestamp's potential, unless the first, cold solve took a
single Newton iteration: then the cold start's preconditioner is exact,
and the series stays cold.
"""

import dataclasses
import json
import os

import numpy as np

from . import grid as gridmod
from .dynamics import dtp_regularity, regularity_summary
from .errors import (
    DegenerateMap,
    FactorizationResidualTooLarge,
    InsufficientSamples,
)
from .grid import PeriodicDisplacement, TorusGrid, mean_zero
from .ma import legendre, solve_ma_periodic


def pushforward_density(mapping):
    """Density of the pushforward of the uniform measure through a map,
    a PeriodicDisplacement.

    Each source cell deposits its mass onto the four cells around the
    target point with bilinear weights (nearest-cell deposition leaves
    checkerboard noise that breaks pinch bounds).  Returns the (N, N)
    density, renormalized to unit mass by a factor within rounding of 1,
    since bilinear weights sum to one per source.

    Raises DegenerateMap when some cell receives no mass at all.
    """
    grid = mapping.grid
    n = grid.n
    coords = mapping.apply() * n - 0.5
    base = np.floor(coords).astype(int)
    frac = coords - base

    # one bincount over the four corners: it sums each cell's deposits in
    # the order of the concatenation, corner by corner, source by source
    cells, weights = [], []
    for di in (0, 1):
        for dj in (0, 1):
            w1 = frac[..., 0] if di else 1.0 - frac[..., 0]
            w2 = frac[..., 1] if dj else 1.0 - frac[..., 1]
            cells.append((base[..., 0] + di) % n * n + (base[..., 1] + dj) % n)
            weights.append(w1 * w2)
    accum = np.bincount(np.concatenate(cells, axis=None),
                        np.concatenate(weights, axis=None),
                        minlength=n * n).reshape(n, n)
    if np.any(accum == 0.0):
        raise DegenerateMap(
            f"{np.count_nonzero(accum == 0.0)} cells received no mass"
        )
    return accum * (1.0 / float(np.mean(accum)))


@dataclasses.dataclass
class PolarFactorization:
    """Factors X = grad P o g together with their quality certificates."""

    pot: object  # ConvexPotential P*
    leg: object  # LegendrePotential, grad P
    g: PeriodicDisplacement  # measure-preserving factor as displacement
    density: np.ndarray  # pushforward of uniform through X
    residual_median: float  # periodic dist(grad P(g(x)), X(x)), median
    defect: float  # L1 distance of (uniform pushed through g) from 1


# bound on the median factorization residual, in cell widths: twice the
# 5h that grad P*(grad P(x)) keeps to x
FACTORIZATION_TOL_CELLS = 10.0


def factorize(mapping, lam=None, Lam=None, initial=None):
    """Polar-factor a torus map X given as a PeriodicDisplacement.

    The pushforward density must stay within the supplied pinch bounds for
    the Monge-Ampere solve to certify them.  The median factorization
    residual (does grad P o g return X?) must stay within
    FACTORIZATION_TOL_CELLS cell widths.  initial, a ConvexPotential on
    the grid of X, warm-starts the Monge-Ampere solve
    (solve_ma_periodic); the default starts it from q = 0.
    """
    grid = mapping.grid
    tol = FACTORIZATION_TOL_CELLS * grid.spacing
    density = pushforward_density(mapping)
    pot = solve_ma_periodic(density, grid, lam=lam, Lam=Lam, initial=initial)
    leg = legendre(pot)

    x1, x2 = grid.centers()
    targets = mapping.apply()
    g_pts = pot.sample_gradient(targets)
    g = PeriodicDisplacement(grid, g_pts[..., 0] - x1, g_pts[..., 1] - x2)

    back = leg.sample_gradient(gridmod.wrap(g_pts))
    dist = gridmod.periodic_distance(back, targets)
    res_med = float(np.median(dist))
    if res_med > tol:
        raise FactorizationResidualTooLarge(
            f"median factorization residual {res_med:.3e} > {tol:.3e}"
        )

    defect = gridmod.integral(np.abs(pushforward_density(g) - 1.0), grid)
    return PolarFactorization(pot, leg, g, density, res_med, defect)


# --- time series ---------------------------------------------------------------

@dataclasses.dataclass
class MapTimeSeries:
    """Time-stamped family of torus maps given as displacements."""

    grid: TorusGrid
    times: list
    maps: list  # PeriodicDisplacement per timestamp

    def __post_init__(self):
        if len(self.times) != len(self.maps):
            raise ValueError("times and maps differ in length")
        if not np.all(np.isfinite(self.times)):
            raise ValueError(f"timestamps must be finite, got {self.times}")
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("timestamps must be strictly increasing")
        for m in self.maps:
            gridmod.check_same_grid(m.grid, self.grid)

    @classmethod
    def from_displacements(cls, grid, times, displacement_pairs):
        maps = [PeriodicDisplacement(grid, d1, d2) for d1, d2 in displacement_pairs]
        return cls(grid, list(times), maps)


def write_series(series, directory):
    """Manifest JSON plus per-timestamp displacement component files."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    for k, (t, m) in enumerate(zip(series.times, series.maps)):
        names = (f"map_{k:04d}_d1.bin", f"map_{k:04d}_d2.bin")
        gridmod.field_to_binary(m.d1, os.path.join(directory, names[0]))
        gridmod.field_to_binary(m.d2, os.path.join(directory, names[1]))
        entries.append({"t": t, "d1": names[0], "d2": names[1]})
    manifest = {"n": series.grid.n, "times": list(series.times),
                "entries": entries}
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest


def read_series(directory):
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    grid = TorusGrid(int(manifest["n"]))
    maps = []
    for entry in manifest["entries"]:
        d1 = gridmod.field_from_binary(os.path.join(directory, entry["d1"]))
        d2 = gridmod.field_from_binary(os.path.join(directory, entry["d2"]))
        maps.append(PeriodicDisplacement(grid, d1, d2))
    return MapTimeSeries(grid, [float(e["t"]) for e in manifest["entries"]], maps)


def polar_time_regularity(series, lam=None, Lam=None, seed=0):
    """Factorize every timestamp and fit the regularity of dP*/dt at three
    seeded centres.

    Returns per-timestamp rows, the dtp_regularity row plus t, defect,
    residual, the smallest R^2 of the fits that are not constant
    (r2_min) and the rho-weighted L^(1+kappa) norms of d(grad P*)/dt for
    kappa 0.1 and 0.2, keyed l<1+kappa>_dt_grad, and their
    regularity_summary with the largest defect and residual.  Constant
    (steady) time derivatives are flagged rather than fitted.

    The first timestamp's Monge-Ampere solve starts from q = 0.  If it
    takes more than one Newton iteration, each later timestamp starts
    from its predecessor's potential, which saves Newton iterations on a
    family that moves little between timestamps.  Otherwise the whole
    series stays cold: one Newton iteration means the cold start's
    preconditioner was exact (as on the cosine family, where det(I + D^2
    q) is linear in the one-dimensional q), which a warm start would
    lose.
    """
    if len(series.times) < 3:
        raise InsufficientSamples(
            f"time regularity needs >= 3 timestamps, got {len(series.times)}"
        )
    rng = np.random.default_rng(seed)
    centers = rng.random((3, 2))
    grid = series.grid

    facts = [factorize(series.maps[0], lam=lam, Lam=Lam)]
    warm = facts[0].pot.newton_iters > 1
    for m in series.maps[1:]:
        facts.append(factorize(m, lam=lam, Lam=Lam,
                               initial=facts[-1].pot if warm else None))
    rows = []
    for k in range(1, len(series.times) - 1):
        span = series.times[k + 1] - series.times[k - 1]
        dtp = mean_zero((facts[k + 1].pot.q - facts[k - 1].pot.q) / span)
        fits, row = dtp_regularity(dtp, centers, grid)
        rho = facts[k].density
        mag = np.hypot(*gridmod.periodic_gradient(dtp, grid))
        rows.append({
            "t": series.times[k],
            "defect": facts[k].defect,
            "residual": facts[k].residual_median,
            "r2_min": min((f.r2 for f in fits if not f.constant), default=1.0),
            **row,
            **{f"l{1.0 + kappa:g}_dt_grad":
               float(gridmod.integral(rho * mag ** (1.0 + kappa), grid))
               ** (1.0 / (1.0 + kappa))
               for kappa in (0.1, 0.2)},
        })
    summary = {
        **regularity_summary(rows),
        "defect_max": max(r["defect"] for r in rows),
        "residual_max": max(r["residual"] for r in rows),
        "n_timestamps": len(series.times),
    }
    return {"rows": rows, "summary": summary, "factorizations": facts}
