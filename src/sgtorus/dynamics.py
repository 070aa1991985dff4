"""Time integration of the dual semigeostrophic system on the torus.

One step of the loop: rotate the optimal-transport displacement into the
velocity U = (x - grad P*)^perp, advect the density semi-Lagrangially,
re-solve the Monge-Ampere equation warm-started from the previous
potential, and update the certificates (mass, density pinch, velocity
bound, solver residual, Newton and Krylov iterations).  Each state keeps
the (t, q) of the two records before it; the step extrapolates them
through the current potential to the new time and hands the predicted
change of q to the solver as the Krylov start of its first Newton
update (on the two-bump preset one or two GMRES iterations where a zero
start takes seven).  The run differentiates the potential in time and,
once the next record exists, checks each state against the identity

    div(Phi grad dP*/dt) = div(-rho U);

the periodic 9-point stencil of the linearized operator is applied
to dP*/dt directly, with no matrix assembled.  The reports fit the
spatial Holder regularity of dP*/dt.
"""

import dataclasses

import numpy as np

from . import grid as gridmod
from .errors import CFLViolation, InsufficientSamples, InvariantViolation
from .grid import PeriodicDisplacement, TorusField, mean_zero
from .krylov import norm
from .lma import apply_stencil
from .ma import ConvexPotential, cofactor, solve_ma_periodic
from .regularity import holder_fits

CFL_NUMBER = 0.5
# per-step drift allowance of the conservative renormalization multiply
RENORM_DRIFT = 1e-6


def velocity_from_potential(pot):
    """Rotated transport displacement U = (x - grad P*)^perp.

    With grad P* = x + grad q this is U = (q_2, -q_1); a rotated gradient,
    hence discretely divergence-free up to the O(N^-2) commutator of the
    centered stencils.  The wrapped representative caps ||U||_inf at
    sqrt(2)/2.
    """
    return _rotated(pot.gradient_displacement())


def _rotated(d):
    """U = (d2, -d1) from the gradient displacement d = grad P* - id."""
    return PeriodicDisplacement(d.grid, d.d2, -d.d1)


def cfl_limit(velocity, grid):
    u_inf = velocity.sup_norm()
    return CFL_NUMBER * grid.spacing / u_inf if u_inf else float("inf")


def transport_step(rho, velocity, dt, grid):
    """One semi-Lagrangian step of d rho/dt + div(rho U) = 0.

    Samples rho at the departure points x - dt U(x) with periodic bilinear
    interpolation (a convex combination, so cellwise min/max cannot grow),
    then applies one conservative renormalization multiply.  Returns
    (rho_new, factor); the factor is the caller's to log.
    """
    rho = np.asarray(rho, dtype=float)
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"time step must be positive and finite, got {dt}")
    limit = cfl_limit(velocity, grid)
    if dt > limit * (1.0 + 1e-12):
        raise CFLViolation(f"dt={dt:.3e} exceeds the CFL limit {limit:.3e} "
                           f"(||U||_inf={velocity.sup_norm():.3e})")
    x1, x2 = grid.centers()
    departure = np.stack([x1 - dt * velocity.d1, x2 - dt * velocity.d2], axis=-1)
    advected = gridmod.sample_bilinear(rho, departure, grid)

    lo, hi = float(np.min(rho)), float(np.max(rho))
    slack = 1e-13 * max(1.0, hi)
    if not (np.min(advected) >= lo - slack and np.max(advected) <= hi + slack):
        raise InvariantViolation(
            "transport_range",
            f"advected range [{np.min(advected):.6e}, {np.max(advected):.6e}] "
            f"escapes the input range [{lo:.6e}, {hi:.6e}]",
        )

    factor = 1.0 / float(np.mean(advected))
    return advected * factor, factor


@dataclasses.dataclass
class SGState:
    """One snapshot of the dual system: density, potential, velocity."""

    grid: gridmod.TorusGrid
    t: float
    rho: np.ndarray
    pot: ConvexPotential
    velocity: PeriodicDisplacement
    certificates: dict
    lam_env: float  # running renormalization envelope around [lam, Lam]
    Lam_env: float
    # (t, q) of up to two records before this one, oldest first
    history: tuple = ()

    @classmethod
    def from_density(cls, rho, grid, t=0.0, lam=None, Lam=None, tol=None,
                     initial=None, guess=None, renorm_factor=1.0, history=()):
        if isinstance(rho, TorusField):
            grid, rho = rho.grid, rho.values
        rho = np.asarray(rho, dtype=float)
        lam = float(lam) if lam is not None else float(np.min(rho))
        Lam = float(Lam) if Lam is not None else float(np.max(rho))
        pot = solve_ma_periodic(rho, grid, lam=lam, Lam=Lam, tol=tol,
                                initial=initial, guess=guess)
        # one gradient displacement serves the velocity and w2_proxy
        d = pot.gradient_displacement()
        velocity = _rotated(d)
        certificates = {
            "t": t,
            "mass": gridmod.integral(rho, grid),
            "min_rho": float(np.min(rho)),
            "max_rho": float(np.max(rho)),
            "u_inf": velocity.sup_norm(),
            "ma_residual": pot.residual,
            "renorm_factor": renorm_factor,
            "newton_iters": pot.newton_iters,
            "krylov_iters": pot.linear_iters,
            "w2_proxy": w2_proxy(rho, d),
        }
        return cls(grid, t, rho, pot, velocity, certificates, lam, Lam,
                   history)

    def check_certificates(self, steps_taken=0):
        """Invariant checks; returns the names of the failed ones."""
        c = self.certificates
        env_lo = self.lam_env * (1.0 - RENORM_DRIFT) ** steps_taken
        env_hi = self.Lam_env * (1.0 + RENORM_DRIFT) ** steps_taken
        checks = {
            "mass": abs(c["mass"] - 1.0) <= 1e-8,
            "density_bounds": (c["min_rho"] >= env_lo - 1e-12
                               and c["max_rho"] <= env_hi + 1e-12),
            "velocity_bound":
                c["u_inf"] <= gridmod.MAX_DISPLACEMENT_NORM + 1e-15,
        }
        return [name for name, ok in checks.items() if not ok]


def w2_proxy(rho, d):
    """integral rho |x - grad P*|^2: transport-cost proxy to uniform, from
    the gradient displacement d = pot.gradient_displacement()."""
    return gridmod.integral(rho * (d.d1**2 + d.d2**2), d.grid)


def extrapolated_update(records, t):
    """q(t) - q_last from the Lagrange polynomial through records, a
    sequence of (t_k, q_k) whose last entry is (t_last, q_last): linear
    through two records, quadratic through three, None from one.

    Written as sum_k w_k (q_k - q_last) over the earlier records, with
    w_k the Lagrange weight of t_k at t, since the weights sum to one.
    """
    if len(records) < 2:
        return None
    times = [t_k for t_k, _ in records]
    q_last = records[-1][1]
    return sum(np.prod([(t - t_j) / (t_k - t_j)
                        for j, t_j in enumerate(times) if j != k])
               * (q_k - q_last)
               for k, (t_k, q_k) in enumerate(records[:-1]))


def step(state, dt, tol=None):
    """Advance one step: transport rho, re-solve MA, refresh certificates.

    The density pinch envelope [lam, Lam] is widened by the logged
    renormalization factor, so the re-solve never rejects a density the
    scheme itself produced.  The re-solve starts Newton at state.pot, and
    its first update's GMRES at the extrapolated_update through the
    state's history and itself (none after a cold start, linear after
    the first step, quadratic from then on).
    """
    rho_new, factor = transport_step(state.rho, state.velocity, dt, state.grid)
    lam_env = state.lam_env * min(factor, 1.0)
    Lam_env = state.Lam_env * max(factor, 1.0)
    records = (*state.history, (state.t, state.pot.q))
    t = state.t + dt
    return SGState.from_density(
        rho_new, state.grid, t=t, lam=lam_env, Lam=Lam_env, tol=tol,
        initial=state.pot, guess=extrapolated_update(records, t),
        renorm_factor=factor, history=records[-2:],
    )


@dataclasses.dataclass
class RunResult:
    """Recorded history of a run: per-step densities, potentials, certificates."""

    grid: gridmod.TorusGrid
    dt: float
    times: list
    rho_history: list
    q_history: list
    certificates: list  # one dict per recorded time, index-aligned

    @property
    def n_steps(self):
        return len(self.times) - 1

    def dtp_field(self, k):
        """d P*/dt at record k: centered in time, one-sided at the ends."""
        return _time_difference(self.q_history, k, self.dt)


def _time_difference(q, k, dt):
    """dtp_field of the potentials q recorded dt apart, also while the
    run still appends to them (record k is then the last one so far)."""
    if len(q) < 2:
        raise InsufficientSamples("need at least two records for a time derivative")
    lo, hi = max(k - 1, 0), min(k + 1, len(q) - 1)
    return mean_zero((q[hi] - q[lo]) / ((hi - lo) * dt))


def run(rho0, grid=None, dt=2e-3, t_end=0.1, lam=None, Lam=None, tol=None):
    """Integrate the dual system from rho0 until t_end.

    Records every step, read-only: q_history holds the potentials' own q,
    rho_history a copy of rho0, then each step's own transported density.
    Failed certificates (SGState.check_certificates) are collected into
    each certificate dict as 'violations', so callers decide hard/soft
    handling.  Each record's 'lma_residual' comes from its own state once
    the next record exists (nan in a run of no step).
    """
    if isinstance(rho0, TorusField):
        grid, rho0 = rho0.grid, rho0.values
    if grid is None:
        raise ValueError("grid required when rho0 is a bare array")
    for name, value in (("time step dt", dt), ("end time t_end", t_end)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    state = SGState.from_density(rho0, grid, lam=lam, Lam=Lam, tol=tol)
    n_steps = int(round(t_end / dt))

    times, rho_history, q_history, certificates = [], [], [], []

    def record(state, steps_taken):
        times.append(state.t)
        # a copy of the caller's rho0, then transport_step's fresh outputs
        rho = state.rho if steps_taken else state.rho.copy()
        rho.flags.writeable = False
        rho_history.append(rho)
        q_history.append(state.pot.q)
        certificates.append(dict(state.certificates))
        certificates[-1]["violations"] = state.check_certificates(steps_taken)
        certificates[-1]["lma_residual"] = float("nan")

    def check_identity(state, k):
        certificates[k]["lma_residual"] = lma_residual(
            state.pot, state.rho, state.velocity,
            _time_difference(q_history, k, dt))

    record(state, 0)
    for k in range(1, n_steps + 1):
        previous, state = state, step(state, dt, tol=tol)
        record(state, k)
        check_identity(previous, k - 1)
    if n_steps:
        check_identity(state, n_steps)
    return RunResult(grid, dt, times, rho_history, q_history, certificates)


def lma_residual(pot, rho, velocity, dtp):
    """Relative L2 residual of div(Phi grad dtp) = div(-rho U).

    The periodic stencil, applied without assembling its matrix
    (lma.apply_stencil), computes -div(Phi grad .), so the identity
    reads  L dtp = div(rho U).
    """
    grid = pot.grid
    rhs = gridmod.periodic_divergence(rho * velocity.d1, rho * velocity.d2,
                                      grid).ravel()
    lhs = apply_stencil(grid, cofactor(pot), dtp).ravel()
    scale = norm(rhs) or 1.0
    return norm(lhs - rhs) / scale


# --- time-regularity reporting ------------------------------------------------

@dataclasses.dataclass
class TimeSeriesDiagnostics:
    """Regularity summary of dP*/dt along a run."""

    summary: dict


def dtp_regularity(dtp, centers, grid):
    """Holder fits of dP*/dt at the centers, and its regularity row: the
    median gamma_hat and C_hat of the fits that are not constant (inf and
    0, flagged constant, when none is).  Returns (fits, row).
    """
    fits = holder_fits(dtp, centers, grid)
    live = [f for f in fits if not f.constant]
    row = {
        "constant": not live,
        "gamma_hat": float(np.median([f.gamma for f in live]))
        if live else float("inf"),
        "C_hat": float(np.median([f.prefactor for f in live]))
        if live else 0.0,
    }
    return fits, row


def regularity_summary(rows):
    """Summary of dtp_regularity rows: the smallest gamma_hat and largest
    C_hat over the rows that are not constant, and whether every row is."""
    active = [r for r in rows if not r["constant"]]
    return {
        "constant": not active,
        "gamma_min": min((r["gamma_hat"] for r in active), default=float("inf")),
        "c_max": max((r["C_hat"] for r in active), default=0.0),
    }


def holder_in_time_report(result, n_centers=5, seed=0):
    """Spatial Holder fits of dP*/dt at sampled centers, per recorded step.

    Each interior record gets its dtp_regularity row and r2_ok, the number
    of fits with R^2 >= 0.8; the summary adds to regularity_summary the
    largest exponent, the number n_fits of fits that are not constant and
    the fraction of those with R^2 >= 0.8.  Constant fits are excluded
    from the fit statistics.
    """
    n_records = len(result.times)
    if n_records < 20:
        raise InsufficientSamples(
            f"time-regularity report needs >= 20 records, got {n_records}"
        )
    rng = np.random.default_rng(seed)
    centers = rng.random((n_centers, 2))
    grid = result.grid

    rows, n_fits = [], 0
    for k in range(1, n_records - 1):
        fits, row = dtp_regularity(result.dtp_field(k), centers, grid)
        n_fits += sum(1 for f in fits if not f.constant)
        row["r2_ok"] = sum(1 for f in fits if not f.constant and f.r2 >= 0.8)
        rows.append(row)

    summary = {
        **regularity_summary(rows),
        "gamma_max": max((r["gamma_hat"] for r in rows
                          if not r["constant"]), default=float("inf")),
        "r2_ok_fraction": (
            sum(r["r2_ok"] for r in rows) / n_fits if n_fits else 1.0
        ),
        "n_fits": n_fits,
        "n_steps": len(rows),
        "n_centers": n_centers,
    }
    return TimeSeriesDiagnostics(summary)


# the certificates.csv columns of sg-run, in order
CERTIFICATE_COLUMNS = ("t", "mass", "min_rho", "max_rho", "u_inf",
                       "ma_residual", "lma_residual", "krylov_iters")
