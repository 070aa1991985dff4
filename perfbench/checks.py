"""Correctness checks on the outputs of each workload.

Every check is either recomputed here from the raw fields, with the
benchmark's own finite differences, or compares against a closed form
of the generated input, or is a property the method must have.  None
compares against stored output.  Each function returns
{check name: (passed, measured value)}.
"""

import numpy as np

from inputs import centers, wrap_delta

MAX_SPEED = np.sqrt(2.0) / 2.0
RENORM_DRIFT = 1e-6  # per-step renormalization allowance of the scheme
# Interior Holder estimate: osc over S(h/2) <= beta osc over S(h) with a
# beta < 1 that depends only on the density bounds.  An L-harmonic u with
# nonvanishing gradient has beta near 1/sqrt 2 (a section of half the
# height is about sqrt 2 narrower); the largest ratio seen on seeds 1-5
# is 0.69 at N=128 and 0.60 at N=32.  The ladder masks are nested, so
# any field at all gives ratios <= 1: the bound has to sit well below 1.
BETA_MAX = 0.85
# L uh = 0 on the interior of the top section, relative to
# max|diag L| max|uh|; the Green's solve behind uh runs CG to 1e-12
HOMOGENEOUS_TOL = 1e-9


def _dx(f, axis, h):
    return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)


def _det_hessian(q, h):
    """det(I + D^2 q) with 5-point pure and 4-corner mixed differences."""
    r = np.roll
    q11 = (r(q, -1, 0) + r(q, 1, 0) - 2.0 * q) / h**2
    q22 = (r(q, -1, 1) + r(q, 1, 1) - 2.0 * q) / h**2
    q12 = (r(q, (-1, -1), (0, 1)) + r(q, (1, 1), (0, 1))
           - r(q, (-1, 1), (0, 1)) - r(q, (1, -1), (0, 1))) / (4.0 * h**2)
    return (1.0 + q11) * (1.0 + q22) - q12**2


def timeloop(out):
    """out: rho, q (lists of records), lam, Lam (initial pinch bounds),
    lma_residual (per record), gamma_min, r2_ok_fraction.

    Two bounds are set for N=128 and loosen on coarser grids, which only
    the N=32 smoke test uses: the linearized-identity residual is first
    order in the spacing (0.15 * 128/N, the verify suite's 0.30 at N=64),
    and Holder fits over shells from 3h to 0.3 span barely a factor 3 in
    radius at N=32, so their R^2 is judged against 0.5 there.
    """
    n = out["rho"][0].shape[0]
    lma_bound = 0.15 * max(1.0, 128 / n)
    r2_bound = 0.8 if n >= 128 else 0.5
    h = 1.0 / n
    mass = max(abs(float(np.mean(r)) - 1.0) for r in out["rho"])
    envelope = 0.0  # largest escape from the widened [lam, Lam]
    ma = 0.0  # largest mean-free MA residual, in units of the solver tol
    speed = 0.0
    for k, (rho, q) in enumerate(zip(out["rho"], out["q"])):
        lo = out["lam"] * (1.0 - RENORM_DRIFT) ** k
        hi = out["Lam"] * (1.0 + RENORM_DRIFT) ** k
        envelope = max(envelope, lo - float(rho.min()), float(rho.max()) - hi)
        r = _det_hessian(q, h) - rho
        tol = 1e-8 * max(1.0, hi)
        ma = max(ma, float(np.max(np.abs(r - r.mean()))) / tol)
        speed = max(speed, float(np.max(np.hypot(_dx(q, 1, h), _dx(q, 0, h)))))
    lma = max(out["lma_residual"])
    return {
        "mass": (mass <= 1e-8, mass),
        "density_envelope": (envelope <= 1e-12, envelope),
        "velocity_bound": (speed <= MAX_SPEED, speed),
        "ma_residual": (ma <= 2.0, ma),
        "linearized_identity": (lma <= lma_bound, lma),
        "gamma_min": (out["gamma_min"] > 0.0, out["gamma_min"]),
        "r2_fraction": (out["r2_ok_fraction"] >= r2_bound,
                        out["r2_ok_fraction"]),
    }


def _loglog_slope(x, y):
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _john_contained(mask, center, offsets, A, b, n_angles=64):
    """B_1 inside T^-1(S) inside B_2, to one cell, for T z = A z + b."""
    n = mask.shape[0]
    h = 1.0 / n
    Ainv = np.linalg.inv(A)
    z = (offsets - b) @ Ainv.T
    pad = 0.5 * np.sqrt(2.0) * h * np.linalg.norm(Ainv, 2)
    if np.max(np.hypot(z[:, 0], z[:, 1])) > 2.0 + pad:
        return False
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    ys = np.column_stack([np.cos(angles), np.sin(angles)]) @ A.T + b
    cells = np.floor(((center + ys) % 1.0) * n).astype(int)
    near = np.zeros_like(mask)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            near |= np.roll(mask, (di, dj), (0, 1))
    return bool(np.all(near[cells[:, 0] % n, cells[:, 1] % n]))


def _interior(mask):
    """Cells of the mask whose periodic 3x3 neighbourhood is in the mask."""
    inner = mask.copy()
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            inner &= np.roll(mask, (di, dj), (0, 1))
    return inner


def lma_sections(ops):
    """ops: one dict per centre with the ladder (heights, masks, centre,
    offsets, john A/b), the Green report numbers, the flux solve (F, mask,
    u, matrix), the homogeneous solution uh and the oscillation ratios
    the library reported for it down the ladder."""
    n = ops[0]["masks"][0].shape[0]
    h = 1.0 / n
    sym = max(op["symmetry_defect"] for op in ops)
    pos = min(op["positivity_floor"] for op in ops)
    slope_dev = max(abs(_loglog_slope(op["heights"], op["green_mass"]) - 1.0)
                    for op in ops)
    ratios = [m.sum() * h * h / ht
              for op in ops for m, ht in zip(op["masks"], op["heights"])]
    spread = max(ratios) / min(ratios)
    john = all(_john_contained(m, op["center"], off, A, b)
               for op in ops
               for m, off, (A, b) in zip(op["masks"], op["offsets"], op["john"]))
    osc = report = homogeneous = flux = 0.0
    for op in ops:
        oscs = [np.ptp(op["uh"][m]) for m in op["masks"]]
        ratios = [b / a for a, b in zip(oscs, oscs[1:])]
        osc = max(osc, max(ratios))
        report = max(report, max(abs(r - d)
                                 for r, d in zip(ratios, op["decay_ratios"])))
        mask = op["flux_mask"]
        # the operator's rows on cells whose 3x3 stencil stays in the mask
        # are those of L itself, so there L uh must vanish
        uh = op["uh"][mask]
        lu = (op["matrix"] @ uh)[_interior(mask)[mask]]
        scale = np.max(np.abs(op["matrix"].diagonal())) * np.max(np.abs(uh))
        homogeneous = max(homogeneous, float(np.max(np.abs(lu)) / scale))
        f1 = np.where(mask, op["F"][0], 0.0)
        f2 = np.where(mask, op["F"][1], 0.0)
        rhs = -(_dx(f1, 0, h) + _dx(f2, 1, h))[mask]
        res = op["matrix"] @ op["u"][mask] - rhs
        flux = max(flux, float(np.linalg.norm(res) / np.linalg.norm(rhs)))
    return {
        "green_symmetry": (sym <= 1e-6, sym),
        "green_positivity": (pos > 0.0, pos),
        "green_mass_slope": (slope_dev <= 0.25, slope_dev),
        "area_height_spread": (spread <= 10.0, spread),
        "john_containment": (john, float(john)),
        "oscillation_ratio": (osc <= BETA_MAX, osc),
        "oscillation_report": (report <= 1e-12, report),
        "homogeneous_residual": (homogeneous <= HOMOGENEOUS_TOL, homogeneous),
        "flux_residual": (flux <= 1e-8, flux),
    }


def polar_series(out):
    """out: family, times, g (displacement pairs), grad_p (displacement
    pairs of grad P - x), gamma_min."""
    fam = out["family"]
    n = out["g"][0][0].shape[0]
    h = 1.0 / n
    x1, x2 = centers(n)
    g_err = p_err = 0.0
    for t, (g1, g2), (p1, p2) in zip(out["times"], out["g"], out["grad_p"]):
        s1, s2 = fam.shear(n, t)
        g_err = max(g_err, float(np.median(
            np.hypot(wrap_delta(g1 - s1), wrap_delta(g2 - s2)))))
        e1, e2 = fam.grad_q(x1, x2, t)
        p_err = max(p_err, float(np.max(
            np.hypot(wrap_delta(p1 - e1), wrap_delta(p2 - e2)))))
    return {
        "g_is_shear": (g_err <= h, g_err / h),
        "grad_p_closed_form": (p_err <= h, p_err / h),
        "gamma_min": (out["gamma_min"] > 0.0, out["gamma_min"]),
    }
