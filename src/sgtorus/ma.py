"""Periodic Monge-Ampere solver and convex potentials on the torus.

A potential is stored through its periodic part q, with
P*(x) = |x|^2/2 + q(x); the quadratic growth is handled analytically, so
discrete Hessians are I + D^2 q and the identity map corresponds to q = 0
exactly.  A ConvexPotential is discretely convex by construction (P11 > 0
and det D^2 P* > 0 cellwise, or LostConvexity) with read-only arrays, so
nothing that takes one checks or copies them again; its one CofactorField,
the linearized operator's coefficient, built on first use and shared, is
frozen and positive definite by construction (or IndefiniteOperator), and
a solve's certificates are plain attributes of the potential it returns.  Its
Legendre transform P need not be discretely convex on the grid, so
legendre returns it as a LegendrePotential: the periodic part of P and
the gradient map grad P, with no Hessian.  legendre scans only the tiled
centres y within sqrt(h^2/2 + 2 osc q) (plus a cell) of the queries,
where every maximizer lies, so its result is bitwise that of the full
3x3 block of periodic copies.

solve_ma_periodic runs a damped Newton iteration on

    det(I + D^2 q) = rho + mu,      mean(q) = 0,

where mu is a scalar gauge unknown.  The gauge is required by the
discretization: with compact second-difference stencils the discrete
integral of q11*q22 - q12^2 is not exactly zero (it is O(N^-2) for smooth
q), so the plain equation det = rho is overdetermined by one dimension and
no iterate can push the full residual to solver tolerance.  mu absorbs
that defect and is reported; the convergence test applies to
det - rho - mu.

Each Newton update is found matrix-free (Loeper and Rapetti's periodic
Newton with Fourier inversion): GMRES (krylov.gmres, whose reductions do
not depend on the BLAS thread count) on the bordered system of the
linearization and the gauge column, whose extra row mean(delta) = 0
removes the constant null direction of the stencils.  The preconditioner
factors the cofactor as Phi = t Psi with t = tr Phi / 2, divides the
residual by t and applies the exact FFT inverse of the constant operator
mean(Psi).  It is exact when Phi / tr Phi is constant, which keeps the
Krylov iteration count independent of N and holds it down as the density
contrast grows.

The Newton iteration is inexact (Dembo, Eisenstat and Steihaug, SIAM J.
Numer. Anal. 19, 1982; Eisenstat and Walker, SIAM J. Sci. Comput. 17,
1996): at sup residual r each update is solved only until the l2 residual
of its bordered system is at most max(GMRES_RTOL |b|, F max(tol, min(F, r)
|b|)), F = NEWTON_FORCING.  The forcing term F min(F, r) keeps the
convergence quadratic, and since sup <= l2 the floor F tol adds at most
F tol to the next sup residual after a full step; solving further would
be discarded by the next Newton iteration.

A caller that can predict the first Newton update, such as a time loop
extrapolating its earlier solves, passes it as guess, and GMRES solves
only for the correction, to the same absolute target (the simplest
reuse of earlier solutions for successive right-hand sides; Fischer,
Comput. Methods Appl. Mech. Engrg. 163, 1998, projects onto them).
Newton itself still starts at initial, so its iterates, forcing targets
and damping do not depend on the guess beyond the GMRES tolerance.
"""

import dataclasses

import numpy as np

from . import grid as gridmod
from .errors import (BadDensity, IndefiniteOperator, InvariantViolation,
                     LostConvexity, NonConvergence)
from .grid import PeriodicDisplacement, mean_zero, second_differences
from .krylov import gmres, norm

MASS_TOL = 1e-8
MAX_NEWTON_ITERS = 60
# GMRES on the Newton update: relative residual floor, Krylov dimension
# per restart cycle, and restart cycles before NonConvergence
GMRES_RTOL = 1e-10
# forcing constant F of the inexact Newton iteration: the update at sup
# residual r is solved to F max(tol, min(F, r) |b|) in the l2 norm
NEWTON_FORCING = 0.1
GMRES_RESTART = 30
GMRES_MAX_CYCLES = 10
# cellwise determinant floor used by the Newton damping
DET_FLOOR = 1e-6


class _GradientMap:
    """grad P - id as sampled from self.displacement on self.grid."""

    def gradient_displacement(self):
        """Displacement grad P - id as a wrapped field."""
        d1, d2 = self.displacement
        reach = max(np.max(np.abs(d1)), np.max(np.abs(d2)))
        if not reach < 0.5:
            raise InvariantViolation(
                "displacement_bound",
                f"gradient displacement component {reach!r} reached half a period",
            )
        return PeriodicDisplacement(self.grid, d1, d2)

    def sample_gradient(self, points):
        """grad P at arbitrary points: p + (interpolated displacement)(p)."""
        pts = np.asarray(points, dtype=float)
        s1, s2 = gridmod.sample_vector_bilinear(*self.displacement, pts, self.grid)
        return np.stack([pts[..., 0] + s1, pts[..., 1] + s2], axis=-1)


class ConvexPotential(_GradientMap):
    """Discretely convex potential P* = |x|^2/2 + q with mean(q) = 0.

    Carries its gradient and compact-stencil Hessian samples, the Hessian
    determinant, and the certificates of the solve that made it: the sup
    residual, the gauge, and the Newton and GMRES iteration counts (nan,
    0, 0 and 0 for a potential no solver made).  Discrete convexity,
    P11 > 0 and det D^2 P* > 0 cellwise, is checked on construction
    (LostConvexity otherwise, also for a NaN q), and its arrays are read-only.
    """

    def __init__(self, grid, q, lam=None, Lam=None, residual=float("nan"),
                 gauge=0.0, newton_iters=0, linear_iters=0):
        self.grid = grid
        self.q = mean_zero(np.asarray(q, dtype=float))
        if self.q.shape != (grid.n, grid.n):
            raise gridmod.GridMismatch("potential periodic part does not match grid")
        self.g1, self.g2 = gridmod.periodic_gradient(self.q, grid)
        # grad P* - id as sampled by gradient_displacement / sample_gradient
        self.displacement = (self.g1, self.g2)
        self.p11, self.p12, self.p22, self.det = _hessian_and_det(
            self.q, grid.spacing)
        if not (np.min(self.p11) > 0.0 and np.min(self.det) > 0.0):
            raise LostConvexity(
                f"potential is not discretely convex "
                f"(min P11={np.min(self.p11):.3e}, min det={np.min(self.det):.3e})"
            )
        for a in (self.q, self.g1, self.g2, self.p11, self.p12, self.p22,
                  self.det):
            a.flags.writeable = False
        self._cofactor = None  # built by the first cofactor(self)
        self.lam = float(lam) if lam is not None else float(np.min(self.det))
        self.Lam = float(Lam) if Lam is not None else float(np.max(self.det))
        self.residual, self.gauge = residual, gauge
        self.newton_iters, self.linear_iters = newton_iters, linear_iters

    def header_dict(self):
        return {
            "n": self.grid.n,
            "lambda": self.lam,
            "Lambda": self.Lam,
            "residual": self.residual,
            "newton_iters": self.newton_iters,
            "gauge": self.gauge,
        }


class LegendrePotential(_GradientMap):
    """Legendre transform P = |x|^2/2 + q of a ConvexPotential, mean(q) = 0.

    Its displacement is the refined argmax gradient map (grad P as a
    displacement from the identity), not a stencil gradient of q.  P need
    not be discretely convex on the grid, so it carries no Hessian.
    """

    def __init__(self, grid, q, grad_d1, grad_d2):
        self.grid = grid
        self.q = mean_zero(np.asarray(q, dtype=float))
        self.displacement = (np.asarray(grad_d1, dtype=float),
                             np.asarray(grad_d2, dtype=float))


@dataclasses.dataclass(frozen=True)
class CofactorField:
    """Cofactor matrix of a Hessian field: the coefficient of the
    linearized Monge-Ampere operator.

    In 2D the cofactor of [[p11, p12], [p12, p22]] is
    [[p22, -p12], [-p12, p11]]; it is divergence-free row by row in the
    continuum, shares trace and determinant with the Hessian, and
    satisfies the algebraic identity Phi^{ij} phi_{ij} = 2 det D^2 phi.
    Frozen and positive definite by construction: GridMismatch unless c11,
    c12 and c22 share one square shape, IndefiniteOperator unless c11 > 0
    and c11 c22 - c12^2 > 0 in every cell (NaN fails), so no reader checks.
    """

    c11: np.ndarray
    c12: np.ndarray
    c22: np.ndarray

    def __post_init__(self):
        shape = self.c11.shape
        if not (len(shape) == 2 and shape[0] == shape[1]
                and self.c12.shape == shape == self.c22.shape):
            raise gridmod.GridMismatch("coefficients are not one square grid")
        det = self.c11 * self.c22 - self.c12**2
        if not (np.min(self.c11) > 0.0 and np.min(det) > 0.0):
            raise IndefiniteOperator(
                f"coefficient tensor is not positive definite cellwise "
                f"(min c11 {np.min(self.c11):.3e}, min det {np.min(det):.3e})"
            )

    def contract(self, p11, p12, p22):
        """Phi^{ij} phi_{ij} for a symmetric field (p11, p12, p22)."""
        return self.c11 * p11 + 2.0 * self.c12 * p12 + self.c22 * p22


def cofactor(pot):
    """The potential's one cofactor field, built on the first call and then
    shared: c11, c22 are pot.p22, pot.p11 and c12 a read-only -pot.p12."""
    if pot._cofactor is None:
        pot._cofactor = CofactorField(pot.p22, -pot.p12, pot.p11)
        pot._cofactor.c12.flags.writeable = False
    return pot._cofactor


# --- Newton solver ----------------------------------------------------------

def _hessian_and_det(q, h):
    q11, q12, q22 = second_differences(q, h)
    p11 = 1.0 + q11
    p22 = 1.0 + q22
    det = p11 * p22 - q12**2
    return p11, q12, p22, det


def _newton_update(p11, p12, p22, rhs, h, atol, guess=None):
    """Solve the bordered Newton system for (delta, dmu) by GMRES.

    Rows: p22 d11 + p11 d22 - 2 p12 d12 - dmu = rhs cellwise, with the
    d's the second differences of delta, and mean(delta) = 0.  The
    operator is applied matrix-free.  The preconditioner writes the
    cofactor as Phi = t Psi with t = (p11 + p22) / 2 and freezes Psi at
    its grid mean (grid.trace_scaled_inverse): for the residual (r, s)
    it returns delta = S^-1((r + dmu) / t) + s, with S the FFT-diagonal
    operator of mean(Psi) and dmu = -mean(r / t) / mean(1 / t), the
    gauge that makes the argument of S^-1 mean-free.  It is the exact
    inverse when Phi / tr Phi is constant, which holds at constant
    density (Loeper's regime) and keeps the Krylov count low away from
    it.  GMRES stops
    once the l2 residual of the bordered system is at most
    max(GMRES_RTOL |b|, atol).  A guess for delta (dmu guessed 0) is
    the Krylov start: GMRES runs from zero on b - A guess to that same
    absolute target, taken from the unshifted b, and guess is added back,
    so an exact guess costs no iteration and a poor one only iterations.
    Returns (delta, dmu, krylov_iterations); raises NonConvergence if
    GMRES misses the target.
    """
    n = rhs.shape[0]
    size = n * n
    inv_t, inverse = gridmod.trace_scaled_inverse(p22, -p12, p11)
    mean_inv_t = float(np.mean(inv_t))

    def apply(x):
        delta = x[:size].reshape(n, n)
        d11, d12, d22 = second_differences(delta, h)
        out = np.empty(size + 1)
        out[:size] = (p22 * d11 + p11 * d22 - 2.0 * p12 * d12).ravel() - x[size]
        out[size] = delta.mean()
        return out

    def precondition(r):
        scaled = r[:size].reshape(n, n) * inv_t
        dmu = -float(scaled.mean()) / mean_inv_t
        out = np.empty(size + 1)
        out[:size] = (inverse(scaled + dmu * inv_t) + r[size]).ravel()
        out[size] = dmu
        return out

    b = np.append(rhs.ravel(), 0.0)
    target = max(GMRES_RTOL * norm(b), atol)
    shifted = b
    if guess is not None:
        start = np.append(guess.ravel(), 0.0)
        shifted = b - apply(start)
    sol, iters, converged = gmres(apply, shifted, precondition,
                                  GMRES_RESTART, GMRES_MAX_CYCLES, target)
    if guess is not None:
        sol += start
    if not converged:
        raise NonConvergence(
            f"GMRES missed the target {target:.3e} on the Newton update "
            f"within {GMRES_MAX_CYCLES} cycles ({iters} iterations, "
            f"residual {norm(b - apply(sol)):.3e})"
        )
    return sol[:size].reshape(n, n), float(sol[size]), iters


def validate_density(rho, lam=None, Lam=None):
    rho = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(rho)):
        raise BadDensity("density has non-finite entries")
    for name, bound in (("lambda", lam), ("Lambda", Lam)):
        if bound is not None and not np.isfinite(bound):
            raise BadDensity(f"{name}={bound} is not finite")
    if np.min(rho) <= 0.0:
        raise BadDensity(f"density must be positive, min={np.min(rho):.3e}")
    mass = float(np.mean(rho))
    if abs(mass - 1.0) > MASS_TOL:
        raise BadDensity(f"density mass {mass!r} deviates from 1 beyond {MASS_TOL}")
    slack = 1e-12 * max(1.0, float(np.max(rho)))
    if lam is not None and np.min(rho) < lam - slack:
        raise BadDensity(f"density drops below lambda={lam}")
    if Lam is not None and np.max(rho) > Lam + slack:
        raise BadDensity(f"density exceeds Lambda={Lam}")
    return rho / mass


def solve_ma_periodic(rho, grid=None, lam=None, Lam=None, tol=None,
                      initial=None, guess=None):
    """Solve det D^2 P* = rho on the torus for a convex potential.

    Damped inexact Newton iteration: the update (u, dmu) solves the
    linearized equation Phi^{ij} u_ij - dmu = b, b = -(det - rho - mu),
    with mean(u) = 0 (the row that removes the constant null direction),
    by GMRES applied matrix-free through second_differences and
    preconditioned by the trace-scaled FFT inverse of _newton_update.
    GMRES stops once the l2 residual is at most
    max(GMRES_RTOL |b|, F max(tol, min(F, r) |b|)), with r = max|b| the
    sup residual and F = NEWTON_FORCING: far from the solution an update
    takes a few Krylov steps, and none is solved past F tol.  The step
    is halved until the trial Hessian determinant stays above
    max(1e-6, lambda/10) cellwise and P11 stays positive.  A GMRES run
    that misses its target within GMRES_MAX_CYCLES restarts, a halving
    floor of 2^-20, or MAX_NEWTON_ITERS iterations without convergence
    raise NonConvergence.

    Parameters
    ----------
    rho : TorusField or (N, N) array
        Target density; positive, unit mass within MASS_TOL.
    lam, Lam : float, optional
        Certified pinch bounds of rho (default: its min/max).
    tol : float, optional
        Sup-norm tolerance on det - rho - mu (default 1e-8 * max(1, Lam)).
    initial : ConvexPotential, optional
        Warm start: its periodic part q and Hessian (default q = 0), on
        the grid of rho (GridMismatch otherwise).
    guess : (N, N) array, optional
        Predicted first Newton update of q, say extrapolated from earlier
        solves.  It is only the Krylov start of that update's GMRES
        (_newton_update), whose target does not depend on it: a good
        guess saves Krylov iterations, and the Newton iteration, its
        forcing targets and its damping are those without it.

    Returns
    -------
    ConvexPotential
        With its certificates residual, gauge, newton_iters and
        linear_iters (the GMRES iterations summed over the Newton
        iterations); raises LostConvexity if det D^2 P* leaves
        [lambda, Lambda] by more than |gauge| + 10 tol.
    """
    if isinstance(rho, gridmod.TorusField):
        grid = rho.grid
        rho = rho.values
    if grid is None:
        raise ValueError("grid required when rho is a bare array")
    rho = validate_density(rho, lam=lam, Lam=Lam)
    lam = float(lam) if lam is not None else float(np.min(rho))
    Lam = float(Lam) if Lam is not None else float(np.max(rho))
    if tol is None:
        tol = 1e-8 * max(1.0, Lam)
    elif not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")

    n, h = grid.n, grid.spacing
    if initial is None:
        q = np.zeros((n, n))
        p11, p12, p22, det = _hessian_and_det(q, h)
    else:
        gridmod.check_same_grid(initial.grid, grid)
        q = initial.q
        p11, p12, p22, det = initial.p11, initial.p12, initial.p22, initial.det

    det_floor = max(DET_FLOOR, lam / 10.0)
    mu = float(np.mean(det - rho))

    iters = linear_iters = 0
    defect = det - rho - mu
    residual = float(np.max(np.abs(defect)))
    while residual > tol:
        if iters >= MAX_NEWTON_ITERS:
            raise NonConvergence(
                f"no convergence in {MAX_NEWTON_ITERS} Newton iterations "
                f"(residual {residual:.3e}, tol {tol:.3e})"
            )
        rhs = -defect
        atol = NEWTON_FORCING * max(
            tol, min(NEWTON_FORCING, residual) * norm(rhs))
        delta, dmu, krylov = _newton_update(p11, p12, p22, rhs, h, atol,
                                            guess if iters == 0 else None)
        linear_iters += krylov

        step = 1.0
        while True:
            q_try = mean_zero(q + step * delta)
            p11, p12, p22, det = _hessian_and_det(q_try, h)
            if np.min(det) > det_floor and np.min(p11) > 0.0:
                break
            step *= 0.5
            if step < 2.0**-20:
                raise NonConvergence(
                    "Newton damping hit the 2^-20 floor while enforcing "
                    f"cellwise convexity (min det {np.min(det):.3e})"
                )
        q = q_try
        mu += step * dmu
        iters += 1
        defect = det - rho - mu
        residual = float(np.max(np.abs(defect)))

    pot = ConvexPotential(grid, q, lam=lam, Lam=Lam, residual=residual,
                          gauge=mu, newton_iters=iters,
                          linear_iters=linear_iters)
    lo, hi = float(np.min(pot.det)), float(np.max(pot.det))
    slack = abs(mu) + 10.0 * tol  # the gauge defect plus ten tolerances
    if not (lo >= lam - slack and hi <= Lam + slack):
        raise LostConvexity(f"solved determinant range {(lo, hi)} escapes "
                            f"[{lam}, {Lam}] beyond tolerance {slack:.3e}")
    return pot


# --- Legendre transform -----------------------------------------------------

# rows per block of _conjugate_rows
CONJUGATE_BLOCK = 32


def _conjugate_rows(x, y, f):
    """Discrete conjugate of each row of f: max_m (x_i * y_m - f[r, m]).

    x is sorted and y strictly increasing.  Returns (arg, val), both of
    shape (rows, len(x)): the first maximizer m (the brute-force argmax
    tie rule) and the value x_i * y_m - f[r, m] there.

    Each row is first cut down to the vertices of its lower convex hull,
    which hold every first maximizer: points on or above the chord of
    their neighbours are dropped, pass after pass, until none is left (one
    pass for a convex row).  A vertex is the first maximizer for the x
    between the slopes of its two hull edges, so one searchsorted of the
    edge slopes into x and a running count place every x_i.  The candidate
    and its two hull neighbours are then re-scored with
    x_i * y_m - f[r, m], so rounding in the slopes cannot move the result.
    Rows go in blocks of CONJUGATE_BLOCK, which bounds the temporaries.
    """
    rows = f.shape[0]
    arg = np.empty((rows, x.size), dtype=np.intp)
    val = np.empty((rows, x.size))
    for lo in range(0, rows, CONJUGATE_BLOCK):
        block = slice(lo, lo + CONJUGATE_BLOCK)
        arg[block], val[block] = _conjugate_block(x, y, f[block])
    return arg, val


def _conjugate_block(x, y, f):
    rows, size = f.shape
    n = x.size
    # the points still on the lower hull of their row, flattened row-major
    row = np.repeat(np.arange(rows), size)
    col = np.tile(np.arange(size), rows)
    fv, yv = f.ravel(), y[col]
    while True:
        slope = np.diff(fv) / np.diff(yv)
        edge = row[1:] == row[:-1]
        # a point on or above the chord of its neighbours is no vertex;
        # a vertex never is, so all such points go at once
        drop = edge[:-1] & edge[1:] & (slope[:-1] >= slope[1:])
        if not drop.any():
            break
        keep = np.ones(row.size, dtype=bool)
        keep[1:-1] = ~drop
        row, col, fv, yv = row[keep], col[keep], fv[keep], yv[keep]

    # flat index of the first maximizer: the row's first vertex plus the
    # number of its edges with slope < x_i, which edge e joins from
    # i = #(x <= slope_e) on
    start = np.searchsorted(row, np.arange(rows + 1))
    since = np.searchsorted(x, slope[edge], side="right")
    since = np.bincount(row[1:][edge] * (n + 1) + since, minlength=rows * (n + 1))
    at = start[:-1, None] + np.cumsum(since.reshape(rows, n + 1)[:, :n], axis=1)

    # re-score it and its hull neighbours; ties keep the earlier point
    rr = np.arange(rows)[:, None]
    arg = col[np.maximum(at - 1, start[:-1, None])]
    val = x * y[arg] - f[rr, arg]
    for cand in (col[at], col[np.minimum(at + 1, start[1:, None] - 1)]):
        score = x * y[cand] - f[rr, cand]
        up = score > val
        arg = np.where(up, cand, arg)
        val = np.where(up, score, val)
    return arg, val


def legendre(pot):
    """Discrete Legendre transform P(x) = sup_y (x.y - P*(y)).

    The sup runs over the tiled centres y_k = (k + 0.5) / n - 1 of the
    3x3 block of periodic copies (enough because optimal displacements
    are at most half a period), and only over the window of them that can
    hold a maximizer.  Since x.y - P*(y) = |x|^2/2 - |y - x|^2/2 - q(y)
    and some tiled centre lies within h / sqrt(2) of x, every maximizer
    has |y - x|^2 <= reach^2 = h^2/2 + 2 osc q, osc q = max q - min q.
    So each variable runs over the tiled indices n - pad to 2n + pad - 1
    only, with pad = ceil(n reach) + 1 clamped to n (the full block): a
    candidate outside scores at least 2h^2 below the sup, far beyond
    rounding.  The window is a contiguous run of the same ordered
    candidates, with the bits of y and P* of the full block, and it holds
    every maximizer, ties included, so the first maximizers of both
    passes, and their values, are those of the full block: a stage-1 row
    that holds no maximizer can only lose value.

    The sup is separable: stage 1 conjugates each tiled row y1_k in the
    second variable, H[k, j] = max_m (x2_j y_m - P*(y_k, y_m)), and
    stage 2 conjugates each column of -H in the first variable.  Each 1D
    conjugate is a lower envelope (Lucet, Numer. Algorithms 16, 1997;
    Felzenszwalb and Huttenlocher, Theory Comput. 8, 2012): the queries x
    are placed among the slopes of the row's lower convex hull, O(N) per
    row up to a log factor and O(N^2) in all, instead of scanning every
    candidate for each of N queries.  Ties go to the first maximizer in
    y, and every value is the score x_i y_m - P*(y_k, y_m) (stage 1) or
    x_i y_k + H[k, j] (stage 2) at it, so the result is bitwise that of
    the full scan.  The gradient map is the argmax refined by one Newton
    step on the inner objective.  The result is re-expressed in the
    quadratic-plus-periodic split and mean-normalized, and returned as a
    LegendrePotential: q and the gradient map, no Hessian.
    """
    grid = pot.grid
    n = grid.n
    x = grid.axis_centers()
    osc = float(np.max(pot.q) - np.min(pot.q))
    reach = np.sqrt(0.5 * grid.spacing**2 + 2.0 * osc)
    pad = min(n, int(np.ceil(n * reach)) + 1)
    k = np.arange(n - pad, 2 * n + pad)  # tiled indices of the window
    y = (k + 0.5) / n - 1.0  # their centers, in [-1, 2)
    wrapped = k % n

    # P*(y_k, y_m) = |y_k|^2/2 + (|y_m|^2/2 + q); the rounding, and so the
    # first maximizer, depends on this order of the sums
    p_star = pot.q[np.ix_(wrapped, wrapped)]
    p_star += 0.5 * y[None, :] ** 2
    p_star += 0.5 * y[:, None] ** 2
    stage1_arg, stage1_vals = _conjugate_rows(x, y, p_star)
    del p_star
    arg1, p_vals = _conjugate_rows(x, y, -stage1_vals.T)
    arg1, p_vals = arg1.T, p_vals.T

    arg2 = stage1_arg[arg1, np.arange(n)[None, :]]
    y1 = y[arg1]
    y2 = y[arg2]

    i = wrapped[arg1]
    j = wrapped[arg2]
    r1 = x[:, None] - (y1 + pot.g1[i, j])
    r2 = x[None, :] - (y2 + pot.g2[i, j])
    a, b, c = pot.p11[i, j], pot.p12[i, j], pot.p22[i, j]
    det = a * c - b * b
    y1 = y1 + (c * r1 - b * r2) / det
    y2 = y2 + (-b * r1 + a * r2) / det

    x1, x2 = grid.centers()
    r = mean_zero(p_vals - 0.5 * (x1**2 + x2**2))
    d1 = gridmod.wrap_delta(y1 - x1)
    d2 = gridmod.wrap_delta(y2 - x2)
    return LegendrePotential(grid, r, d1, d2)
