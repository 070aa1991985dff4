"""End-to-end verification suite.

Each check runs a scaled-down experiment with frozen parameters and a
quantitative pass bound; together they cover the conservation laws, the
solver's convergence order, the time loop's space-time convergence order,
the elliptic machinery (Green's functions, section geometry, oscillation
decay, the maximum principle), the regularity fits, and the polar
factorization pipeline.  Each check has one grid, one step count and one
bound.  A check reads no clock: run_all times each call and fills its
result's elapsed (0.0 for a check called directly).
"""

import dataclasses
import time

import numpy as np

from . import dynamics, polar, presets, regularity
from . import grid as gridmod
from .errors import SGTorusError
from .fitting import dyadic_ladder
from .grid import (
    MAX_DISPLACEMENT_NORM,
    TorusGrid,
    periodic_distance,
    mean_zero,
)
from .krylov import norm
from .lma import apply_stencil, green_integrability_report, solve_dirichlet_lma
from .ma import cofactor, solve_ma_periodic
from .sections import extract_section, section_ladder


@dataclasses.dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict
    elapsed: float = 0.0

    def __post_init__(self):
        self.passed = bool(self.passed)  # a numpy bool is no JSON

    def line(self):
        flag = "PASS" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in self.details.items())
        return f"{flag} {self.name}: {parts}"


def check_steady_state():
    """Uniform density is an exact fixed point of the time loop."""
    n, steps = 64, 100
    dt = 2e-3
    grid = TorusGrid(n)
    res = dynamics.run(np.ones((n, n)), grid, dt=dt, t_end=steps * dt)
    rho_drift = max(float(np.max(np.abs(r - 1.0))) for r in res.rho_history)
    dtp_sup = max(float(np.max(np.abs(res.dtp_field(k))))
                  for k in range(len(res.times)))
    passed = rho_drift <= 1e-6 and dtp_sup <= 1e-6
    return CheckResult("steady_state_fixed_point", passed,
                       {"rho_drift": rho_drift, "dtp_sup": dtp_sup,
                        "steps": steps, "n": n})


def check_ma_convergence_order():
    """Manufactured cosine solution converges at second order in spacing."""
    sizes = (32, 64, 128)
    errors = []
    for n in sizes:
        grid = TorusGrid(n)
        q_exact, rho = presets.manufactured_potential(grid)
        pot = solve_ma_periodic(rho, grid)
        errors.append(float(np.max(np.abs(pot.q - mean_zero(q_exact)))))
    r1 = errors[0] / errors[1]
    r2 = errors[1] / errors[2]
    passed = 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0
    return CheckResult("ma_solver_order", passed,
                       {"ratio_coarse": r1, "ratio_fine": r2,
                        "errors": [f"{e:.3e}" for e in errors]})


def check_conservation():
    """Mass, pinch bounds, and the velocity cap hold along the standard run."""
    n, steps = 128, 200
    dt = 2e-3
    grid = TorusGrid(n)
    rho0, lam, Lam = presets.perturbed_density(grid)
    res = dynamics.run(rho0, grid, dt=dt, t_end=steps * dt, lam=lam, Lam=Lam)
    certs = res.certificates
    mass_drift = max(abs(c["mass"] - 1.0) for c in certs)
    renorm = max(abs(c["renorm_factor"] - 1.0) for c in certs)
    u_max = max(c["u_inf"] for c in certs)
    env_ok = True
    for k, c in enumerate(certs):
        lo = lam * (1.0 - dynamics.RENORM_DRIFT) ** k
        hi = Lam * (1.0 + dynamics.RENORM_DRIFT) ** k
        env_ok &= (c["min_rho"] >= lo - 1e-12) and (c["max_rho"] <= hi + 1e-12)
    violations = sum(len(c["violations"]) for c in certs)
    passed = (mass_drift <= 1e-8 and renorm <= dynamics.RENORM_DRIFT
              and u_max <= MAX_DISPLACEMENT_NORM and env_ok
              and violations == 0)
    return CheckResult("conservation_certificates", passed,
                       {"mass_drift": mass_drift, "renorm_drift": renorm,
                        "u_inf_max": u_max, "envelope_ok": env_ok,
                        "violations": violations, "steps": steps, "n": n})


def check_linearized_identity():
    """Time derivative of the potential solves the linearized equation."""
    levels = ((128, 1e-3), (256, 5e-4))
    bound = 0.15
    residuals = []
    for n, dt in levels:
        grid = TorusGrid(n)
        rho0, lam, Lam = presets.two_mode_density(grid)
        res = dynamics.run(rho0, grid, dt=dt, t_end=4 * dt, lam=lam, Lam=Lam)
        residuals.append(res.certificates[2]["lma_residual"])
    passed = residuals[0] <= bound and residuals[1] < residuals[0]
    return CheckResult("linearized_identity_residual", passed,
                       {"residual_coarse": residuals[0],
                        "residual_fine": residuals[1], "bound": bound})


def _restrict(values):
    """2x2 block means: a cell-centred field onto the grid of half the size."""
    n = values.shape[0] // 2
    return values.reshape(n, 2, n, 2).mean(axis=(1, 3))


def check_space_time_convergence():
    """The time loop converges at second order in space and time together:
    successive sup differences shrink by 4 when N doubles and dt halves."""
    sizes = (32, 64, 128)
    t_end = 0.1
    finals = []
    for n in sizes:
        grid = TorusGrid(n)
        dt = 0.128 / n
        rho0, lam, Lam = presets.two_mode_density(grid)
        state = dynamics.SGState.from_density(rho0, grid, lam=lam, Lam=Lam)
        for _ in range(int(round(t_end / dt))):
            state = dynamics.step(state, dt)
        finals.append((state.pot.q, state.rho))
    ratios = {}
    for k, name in enumerate(("q", "rho")):
        diffs = [float(np.max(np.abs(_restrict(fine[k]) - coarse[k])))
                 for coarse, fine in zip(finals, finals[1:])]
        ratios[f"ratio_{name}"] = diffs[0] / diffs[1]
    passed = all(3.0 <= r <= 5.0 for r in ratios.values())
    return CheckResult("space_time_convergence", passed,
                       {**ratios, "t_end": t_end, "n_max": sizes[-1]})


def check_green_integrability():
    """Green's-function mass scales linearly in height; symmetry, positivity."""
    n = 128
    grid = TorusGrid(n)
    pot = presets.quadratic_potential(grid)
    x0 = (0.5, 0.5)
    heights = dyadic_ladder(0.02, 4)
    report = green_integrability_report(pot, x0, heights, ps=(1.0,),
                                        kappas=(0.2,))
    slope = next(r["slope"] for r in report["rows"] if r["p"] == 1.0)
    grad_norm = next(r["norm"] for r in report["rows"]
                     if r["kappa"] == 0.2 and r["h"] == heights[0])

    n2 = 2 * n
    pot2 = presets.quadratic_potential(TorusGrid(n2))
    report2 = green_integrability_report(pot2, x0, heights[:1], ps=(1.0,),
                                         kappas=(0.2,))
    grad_norm2 = next(r["norm"] for r in report2["rows"]
                      if r["kappa"] == 0.2 and r["h"] == heights[0])
    grad_ratio = grad_norm2 / grad_norm

    passed = (abs(slope - 1.0) <= 0.25
              and 0.9 <= grad_ratio <= 1.1
              and report["symmetry_defect"] <= 1e-6
              and report["positivity_floor"] > 0.0)
    return CheckResult("green_integrability", passed,
                       {"mass_slope": slope, "grad_norm_ratio": grad_ratio,
                        "symmetry_defect": report["symmetry_defect"],
                        "positivity_floor": report["positivity_floor"]})


def check_section_volume():
    """Section area over height stays within one dyadic decade."""
    n = 128
    grid = TorusGrid(n)
    rho0, lam, Lam = presets.perturbed_density(grid)
    pot = solve_ma_periodic(rho0, lam=lam, Lam=Lam)
    rng = np.random.default_rng(7)
    centers = rng.random((5, 2))
    ratios = [sec.area / sec.height for c in centers
              for sec in section_ladder(pot, c, 0.02, 4)]
    spread = max(ratios) / min(ratios)
    return CheckResult("section_volume_ratio", spread <= 10.0,
                       {"spread": spread, "ratio_min": min(ratios),
                        "ratio_max": max(ratios), "n_sections": len(ratios)})


def check_oscillation_decay():
    """Oscillation of homogeneous solutions contracts on every half-height."""
    betas, all_ratios = [], []
    for n in (64, 128):
        pot = presets.perturbed_potential(TorusGrid(n))
        _, rep = regularity.boundary_data_decay(pot, (0.5, 0.5), 0.08)
        betas.append(rep.beta_max)
        all_ratios.extend(rep.ratios())
    spread = abs(betas[0] - betas[1])
    passed = max(all_ratios) < 1.0 and spread <= 0.1
    return CheckResult("oscillation_decay", passed,
                       {"ratio_max": max(all_ratios), "beta_spread": spread,
                        "betas": [f"{b:.3f}" for b in betas]})


def check_holder_calibration():
    """Power-law profiles around a point are recovered at their exponent."""
    n = 128
    grid = TorusGrid(n)
    x0 = (0.31, 0.47)
    x1, x2 = grid.centers()
    x0c = grid.nearest_center(x0)
    dist = periodic_distance(np.stack([x1, x2], axis=-1), x0c)
    worst = 0.0
    fits = {}
    for gamma in (0.25, 0.5, 0.75, 1.0):
        [fit] = regularity.holder_fits(dist**gamma, [x0], grid)
        fits[f"gamma_{gamma:g}"] = round(fit.gamma, 4)
        worst = max(worst, abs(fit.gamma - gamma))
    return CheckResult("holder_fit_calibration", worst <= 0.05,
                       {"max_error": worst, **fits})


def check_time_regularity():
    """dP*/dt stays Holder in space with resolution-stable constants."""
    sizes = (64, 128)
    steps = 25
    summaries = []
    for n in sizes:
        grid = TorusGrid(n)
        rho0, lam, Lam = presets.two_mode_density(grid)
        res = dynamics.run(rho0, grid, dt=2e-3, t_end=steps * 2e-3,
                           lam=lam, Lam=Lam)
        rep = dynamics.holder_in_time_report(res, n_centers=5, seed=11)
        summaries.append(rep.summary)
    gamma_min = min(s["gamma_min"] for s in summaries)
    r2_frac = min(s["r2_ok_fraction"] for s in summaries)
    c_ratio = summaries[0]["c_max"] / summaries[1]["c_max"]
    passed = gamma_min > 0.0 and r2_frac >= 0.8 and 0.7 <= c_ratio <= 1.3
    return CheckResult("time_regularity", passed,
                       {"gamma_min": gamma_min, "r2_ok_fraction": r2_frac,
                        "c_max_ratio": c_ratio})


def check_polar_factorization():
    """Gradient maps factor back to the identity; the analytic family's
    dP*/dt matches the closed form."""
    n = 64
    grid = TorusGrid(n)
    times = [0.1 + 0.08 * k for k in range(6)]
    series = presets.cosine_family_series(grid, times)
    facts = [polar.factorize(m) for m in series.maps]
    g_medians = [float(np.median(f.g.norm())) for f in facts]
    id_ok = max(g_medians) <= 5.0 * grid.spacing

    track_errs = []
    scale = presets.COSINE_FAMILY_SCALE
    for k in (2, 3):
        span = times[k + 1] - times[k - 1]
        dtp = mean_zero((facts[k + 1].pot.q - facts[k - 1].pot.q) / span)
        eps_k = scale * np.sin(times[k])
        x1inv = presets.cosine_inverse_first_coordinate(grid, eps_k)
        pred = mean_zero(-scale * np.cos(times[k])
                         * np.cos(2.0 * np.pi * x1inv))
        track_errs.append(norm(dtp - pred) / norm(pred))
    track = max(track_errs)
    passed = id_ok and track <= 0.10
    return CheckResult("polar_factorization", passed,
                       {"g_identity_median_max": max(g_medians),
                        "tracking_error": track,
                        "bound": 5.0 * grid.spacing})


def check_operator_algebra():
    """Adjointness, cofactor trace identity, Laplacian collapse, maximum
    principle: the exact discrete identities."""
    n = 64
    grid = TorusGrid(n)
    rng = np.random.default_rng(3)
    f = rng.standard_normal((n, n))
    v1 = rng.standard_normal((n, n))
    v2 = rng.standard_normal((n, n))
    g1, g2 = gridmod.periodic_gradient(f, grid)
    lhs = gridmod.integral(g1 * v1 + g2 * v2, grid)
    rhs = -gridmod.integral(f * gridmod.periodic_divergence(v1, v2, grid), grid)
    adjoint_defect = abs(lhs - rhs)

    pot = presets.perturbed_potential(grid)
    cof = cofactor(pot)
    trace_defect = float(np.max(np.abs(
        cof.contract(pot.p11, pot.p12, pot.p22) - 2.0 * pot.det
    )))

    u = rng.standard_normal((n, n))
    lap = -(np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1)
            + np.roll(u, -1, 1) - 4.0 * u) / grid.spacing**2
    identity = cofactor(presets.quadratic_potential(grid))
    laplace_defect = float(np.max(np.abs(apply_stencil(grid, identity, u) - lap)))

    x1, x2 = grid.centers()
    sec = extract_section(pot, (0.5, 0.5), 0.05)
    bdata = np.cos(2.0 * np.pi * x1) * np.sin(2.0 * np.pi * x2)
    max_principle_ok = True
    try:
        solve_dirichlet_lma(cofactor(pot), sec.mask, grid,
                            boundary_values=bdata, tol=1e-12)
    except SGTorusError:
        max_principle_ok = False

    passed = (adjoint_defect <= 1e-12 and trace_defect <= 1e-12
              and laplace_defect <= 1e-8 and max_principle_ok)
    return CheckResult("operator_algebra", passed,
                       {"adjoint_defect": adjoint_defect,
                        "trace_defect": trace_defect,
                        "laplace_defect": laplace_defect,
                        "max_principle_ok": max_principle_ok})


ALL_CHECKS = (
    check_steady_state,
    check_ma_convergence_order,
    check_conservation,
    check_linearized_identity,
    check_green_integrability,
    check_section_volume,
    check_oscillation_decay,
    check_holder_calibration,
    check_time_regularity,
    check_polar_factorization,
    check_operator_algebra,
    check_space_time_convergence,
)


def run_all():
    """Every check's result, its elapsed the wall time of its call."""
    results = []
    for check in ALL_CHECKS:
        t0 = time.perf_counter()
        result = check()
        result.elapsed = time.perf_counter() - t0
        results.append(result)
    return results
