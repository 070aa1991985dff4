import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from sgtorus import dynamics, ma, presets
from sgtorus.errors import (
    BadDensity,
    GridMismatch,
    InvariantViolation,
    LostConvexity,
    NonConvergence,
)
from sgtorus.grid import (
    TorusField,
    TorusGrid,
    mean_zero,
    periodic_distance,
    periodic_divergence,
    second_differences,
    wrap_delta,
)
from sgtorus.ma import (
    ConvexPotential,
    LegendrePotential,
    _conjugate_rows,
    _hessian_and_det,
    _newton_update,
    cofactor,
    legendre,
    solve_ma_periodic,
    validate_density,
)

TWO_PI = 2.0 * np.pi
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def eigen_range(cof):
    """Cellwise (min, max) eigenvalue of a cofactor field over the grid."""
    tr = cof.c11 + cof.c22
    disc = np.sqrt(np.maximum((cof.c11 - cof.c22) ** 2 + 4.0 * cof.c12**2, 0.0))
    return float(np.min(0.5 * (tr - disc))), float(np.max(0.5 * (tr + disc)))


def brute_legendre(pot):
    """Oracle for legendre: both conjugate passes scan every tiled candidate
    for every x, then the same refinement."""
    grid = pot.grid
    n = grid.n
    x = grid.axis_centers()
    y = (np.arange(3 * n) + 0.5) / n - 1.0
    q3 = np.tile(pot.q, (3, 3))

    stage1_vals = np.empty((3 * n, n))
    stage1_arg = np.empty((3 * n, n), dtype=int)
    p_row = 0.5 * y[None, :] ** 2 + q3
    for k in range(3 * n):
        scores = np.outer(x, y) - (0.5 * y[k] ** 2 + p_row[k])[None, :]
        arg = np.argmax(scores, axis=1)
        stage1_arg[k] = arg
        stage1_vals[k] = scores[np.arange(n), arg]

    p_vals = np.empty((n, n))
    arg1 = np.empty((n, n), dtype=int)
    for j in range(n):
        scores = np.outer(x, y) + stage1_vals[:, j][None, :]
        arg = np.argmax(scores, axis=1)
        arg1[:, j] = arg
        p_vals[:, j] = scores[np.arange(n), arg]

    arg2 = stage1_arg[arg1, np.arange(n)[None, :]]
    y1, y2 = y[arg1], y[arg2]
    i, j = arg1 % n, arg2 % n
    r1 = x[:, None] - (y1 + pot.g1[i, j])
    r2 = x[None, :] - (y2 + pot.g2[i, j])
    a, b, c = pot.p11[i, j], pot.p12[i, j], pot.p22[i, j]
    det = a * c - b * b
    y1 = y1 + (c * r1 - b * r2) / det
    y2 = y2 + (-b * r1 + a * r2) / det

    x1, x2 = grid.centers()
    r = mean_zero(p_vals - 0.5 * (x1**2 + x2**2))
    d1, d2 = wrap_delta(y1 - x1), wrap_delta(y2 - x2)
    return LegendrePotential(grid, r, d1, d2)


@st.composite
def trig_potentials(draw, sizes):
    """Discretely convex P* = |x|^2/2 + q, q a sum of up to three small
    Fourier modes of wavenumber at most 2 per axis."""
    grid = TorusGrid(draw(sizes))
    x1, x2 = grid.centers()
    q = np.zeros((grid.n, grid.n))
    for _ in range(draw(st.integers(1, 3))):
        k1, k2 = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        amp = draw(st.floats(-0.004, 0.004))
        phase = draw(st.floats(0.0, TWO_PI))
        q += amp * np.cos(TWO_PI * (k1 * x1 + k2 * x2) + phase)
    try:
        return ConvexPotential(grid, q)
    except LostConvexity:
        reject()


class TestConvexPotential:
    def test_quadratic_has_unit_determinant(self):
        pot = presets.quadratic_potential(TorusGrid(16))
        assert np.array_equal(pot.det, np.ones((16, 16)))
        assert np.array_equal(pot.g1, np.zeros((16, 16)))

    def test_gauge_is_mean_zero(self, rng):
        grid = TorusGrid(16)
        pot = ConvexPotential(grid, 0.3 + 1e-4 * rng.standard_normal((16, 16)))
        assert abs(np.mean(pot.q)) <= 1e-14

    def test_strict_rejects_nonconvex(self):
        grid = TorusGrid(32)
        x1, _ = grid.centers()
        # amplitude far beyond 1/(2 pi)^2, determinant goes negative
        with pytest.raises(LostConvexity):
            ConvexPotential(grid, 0.1 * np.cos(TWO_PI * x1))

    def test_nan_periodic_part_is_rejected(self):
        # a NaN fails every comparison, so the check is written as
        # not (min > 0), which a NaN fails too
        q = np.zeros((16, 16))
        q[3, 4] = np.nan
        with pytest.raises(LostConvexity):
            ConvexPotential(TorusGrid(16), q)

    @pytest.mark.parametrize("name", ["q", "g1", "g2", "p11", "p12", "p22",
                                      "det"])
    def test_arrays_are_read_only(self, name):
        # so the certificates of construction hold for its lifetime
        pot = presets.perturbed_potential(TorusGrid(16))
        with pytest.raises(ValueError, match="read-only"):
            getattr(pot, name)[0, 0] = 1.0

    def test_input_stays_writable(self):
        q = np.zeros((16, 16))
        pot = ConvexPotential(TorusGrid(16), q)
        assert q.flags.writeable and pot.q is not q

    def test_manufactured_determinant_is_second_order(self):
        errs = []
        for n in (32, 64):
            grid = TorusGrid(n)
            q, rho = presets.manufactured_potential(grid)
            pot = ConvexPotential(grid, q)
            errs.append(np.max(np.abs(pot.det - rho.values)))
        assert 3.4 < errs[0] / errs[1] < 4.6

    def test_half_period_gradient_is_typed_error(self):
        grid = TorusGrid(32)
        zero = np.zeros((32, 32))
        # a gradient map that reaches -0.5 in its first component
        leg = LegendrePotential(grid, zero, np.full((32, 32), -0.5), zero)
        with pytest.raises(InvariantViolation) as exc:
            leg.gradient_displacement()
        assert exc.value.name == "displacement_bound"

    def test_header_dict_plain_types(self):
        pot = presets.quadratic_potential(TorusGrid(8))
        head = pot.header_dict()
        assert head["n"] == 8
        assert set(head) >= {"lambda", "Lambda", "residual", "newton_iters"}


class TestValidateDensity:
    def test_rejects_nonpositive(self):
        with pytest.raises(BadDensity):
            validate_density(np.array([[1.0, -0.1], [1.0, 2.1]]))

    def test_rejects_wrong_mass(self):
        with pytest.raises(BadDensity):
            validate_density(np.full((4, 4), 1.5))

    def test_rejects_bound_violations(self):
        rho = np.full((4, 4), 1.0)
        rho[0, 0], rho[1, 1] = 0.5, 1.5
        with pytest.raises(BadDensity):
            validate_density(rho, lam=0.8, Lam=1.6)
        with pytest.raises(BadDensity):
            validate_density(rho, lam=0.4, Lam=1.2)

    def test_rejects_nonfinite(self):
        rho = np.full((4, 4), 1.0)
        rho[2, 3] = np.nan
        with pytest.raises(BadDensity):
            validate_density(rho)

    def test_solver_rejects_nonfinite_bounds_and_tolerance(self):
        # an infinite Lambda or tol would end the solve before its first
        # Newton step, at q = 0
        rho = presets.uniform_density(TorusGrid(8))
        for bounds in (dict(Lam=np.inf), dict(lam=np.nan), dict(Lam=np.nan)):
            with pytest.raises(BadDensity):
                solve_ma_periodic(rho, **bounds)
        for tol in (np.inf, np.nan, 0.0, -1e-8):
            with pytest.raises(ValueError):
                solve_ma_periodic(rho, tol=tol)


class TestSolver:
    def test_uniform_density_yields_identity(self):
        grid = TorusGrid(32)
        pot = solve_ma_periodic(presets.uniform_density(grid))
        assert np.max(np.abs(pot.q)) <= 1e-12
        assert pot.newton_iters == 0

    def test_manufactured_convergence_order(self):
        errs = []
        for n in (16, 32):
            grid = TorusGrid(n)
            q_exact, rho = presets.manufactured_potential(grid)
            pot = solve_ma_periodic(rho, grid)
            errs.append(np.max(np.abs(pot.q - (q_exact - q_exact.mean()))))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_residual_certificate(self):
        grid = TorusGrid(32)
        _, rho = presets.manufactured_potential(grid)
        pot = solve_ma_periodic(rho, grid, tol=1e-10)
        assert pot.residual <= 1e-10
        # the certificate solve_ma_periodic checks before it returns
        slack = abs(pot.gauge) + 10.0 * 1e-10
        assert np.min(pot.det) >= pot.lam - slack
        assert np.max(pot.det) <= pot.Lam + slack

    def test_warm_start_converges_immediately(self):
        grid = TorusGrid(32)
        _, rho = presets.manufactured_potential(grid)
        pot = solve_ma_periodic(rho, grid)
        again = solve_ma_periodic(rho, grid, initial=pot)
        assert again.newton_iters <= 1

    def test_warm_start_reads_initial_hessian(self, monkeypatch):
        # a warm solve that meets tol at once differences q only in the
        # ConvexPotential it returns, not again for the initial Hessian
        grid = TorusGrid(32)
        rho, lam, Lam = presets.two_mode_density(grid)
        pot = solve_ma_periodic(rho, lam=lam, Lam=Lam)
        calls = []
        second = ma.second_differences
        monkeypatch.setattr(
            ma, "second_differences",
            lambda *args: calls.append(1) or second(*args))
        again = solve_ma_periodic(rho, lam=lam, Lam=Lam, initial=pot)
        assert again.newton_iters == 0
        assert len(calls) == 1
        assert np.array_equal(again.q, mean_zero(pot.q))
        # a warm solve that iterates leaves the initial's arrays as they were
        kept = [a.copy() for a in (pot.q, pot.p11, pot.p12, pot.p22, pot.det)]
        other, lo, hi = presets.perturbed_density(grid)
        assert solve_ma_periodic(other, lam=lo, Lam=hi,
                                 initial=pot).newton_iters > 0
        assert all(np.array_equal(a, b) for a, b in zip(
            kept, (pot.q, pot.p11, pot.p12, pot.p22, pot.det)))

    def test_warm_start_on_other_grid_is_grid_mismatch(self):
        rho, lam, Lam = presets.two_bump_density(TorusGrid(64))
        coarse = presets.quadratic_potential(TorusGrid(32))
        with pytest.raises(GridMismatch):
            solve_ma_periodic(rho, lam=lam, Lam=Lam, initial=coarse)

    def test_bad_density_rejected(self):
        grid = TorusGrid(16)
        rho = np.full((16, 16), 1.0)
        rho[0, 0] = -0.5
        rho[1, 0] = 2.5
        with pytest.raises(BadDensity):
            solve_ma_periodic(rho, grid)

    def test_newton_update_matches_dense_oracle(self, rng, monkeypatch):
        # det(I + D^2 q) is quadratic in q, so central differences along
        # unit vectors give its Jacobian exactly up to rounding
        n = 8
        grid = TorusGrid(n)
        h = grid.spacing
        q = 1e-3 * rng.standard_normal((n, n))
        rho = 1.0 + 0.2 * rng.random((n, n))
        rho /= rho.mean()

        def det_of(v):
            return _hessian_and_det(v, h)[3].ravel()

        step = h * h
        jac = np.empty((n * n, n * n))
        for k in range(n * n):
            e = np.zeros(n * n)
            e[k] = step
            e = e.reshape(n, n)
            jac[:, k] = (det_of(q + e) - det_of(q - e)) / (2.0 * step)
        bordered = np.zeros((n * n + 1, n * n + 1))
        bordered[:-1, :-1] = jac
        bordered[:-1, -1] = -1.0  # gauge column
        bordered[-1, :-1] = 1.0 / (n * n)  # mean(delta) = 0
        p11, p12, p22, det = _hessian_and_det(q, h)
        mu = float(np.mean(det - rho))
        rhs = -(det - rho - mu)

        b = np.append(rhs.ravel(), 0.0)
        oracle = np.linalg.solve(bordered, b)

        # at the relative floor the update satisfies the dense system
        delta, dmu, iters = _newton_update(p11, p12, p22, rhs, h, 0.0)
        assert iters >= 1
        update = np.append(delta.ravel(), dmu)
        assert (np.linalg.norm(bordered @ update - b)
                <= ma.GMRES_RTOL * np.linalg.norm(b))
        # an absolute target above it is met in fewer iterations
        atol = 1e-4 * np.linalg.norm(b)
        delta, dmu, loose = _newton_update(p11, p12, p22, rhs, h, atol)
        update = np.append(delta.ravel(), dmu)
        assert np.linalg.norm(bordered @ update - b) <= atol
        assert loose < iters
        # solved to rounding it is the dense solution
        monkeypatch.setattr(ma, "GMRES_RTOL", 1e-14)
        delta, dmu, _ = _newton_update(p11, p12, p22, rhs, h, 0.0)
        update = np.append(delta.ravel(), dmu)
        assert np.max(np.abs(update - oracle)) <= 1e-10 * np.max(np.abs(oracle))

    def test_newton_update_guess_is_only_a_krylov_start(self, rng):
        n = 32
        h = TorusGrid(n).spacing
        q = 1e-5 * rng.standard_normal((n, n))
        p11, p12, p22, _ = _hessian_and_det(q, h)
        # a right-hand side whose exact update (true, 0) is known
        true = mean_zero(rng.standard_normal((n, n)))
        d11, d12, d22 = second_differences(true, h)
        rhs = p22 * d11 + p11 * d22 - 2.0 * p12 * d12
        atol = 1e-6 * np.linalg.norm(rhs)

        def residual(delta, dmu):
            d11, d12, d22 = second_differences(delta, h)
            rows = p22 * d11 + p11 * d22 - 2.0 * p12 * d12 - dmu - rhs
            return np.linalg.norm(np.append(rows.ravel(), delta.mean()))

        _, _, cold = _newton_update(p11, p12, p22, rhs, h, atol)
        assert cold >= 2
        delta, dmu, iters = _newton_update(p11, p12, p22, rhs, h, atol, true)
        assert iters == 0
        assert np.array_equal(delta, true) and dmu == 0.0
        # a guess worse than zero costs iterations, not accuracy: both
        # targets are taken from rhs, not from the shifted residual
        poor = mean_zero(-10.0 * true + rng.standard_normal((n, n)))
        delta, dmu, iters = _newton_update(p11, p12, p22, rhs, h, atol, poor)
        assert iters >= cold
        assert residual(delta, dmu) <= atol * (1.0 + 1e-9)
        delta, dmu, _ = _newton_update(p11, p12, p22, rhs, h, 0.0, poor)
        assert (residual(delta, dmu)
                <= ma.GMRES_RTOL * np.linalg.norm(rhs) * (1.0 + 1e-6))

    def test_gmres_failure_raises(self, monkeypatch):
        def failing_gmres(apply, b, *args):
            return np.zeros_like(b), 7, False

        monkeypatch.setattr(ma, "gmres", failing_gmres)
        rho, lam, Lam = presets.two_bump_density(TorusGrid(16))
        with pytest.raises(NonConvergence, match=r"target .* residual"):
            solve_ma_periodic(rho, lam=lam, Lam=Lam)

    def test_preconditioner_exact_for_constant_normalized_cofactor(self, rng):
        # Phi = t Psi with Psi constant: the trace-scaled preconditioner is
        # the exact inverse, so GMRES converges in one iteration
        n = 32
        h = TorusGrid(n).spacing
        t = 0.2 + rng.random((n, n))
        p11, p12, p22 = 1.3 * t, 0.4 * t, 0.7 * t
        rhs = rng.standard_normal((n, n))
        delta, dmu, iters = _newton_update(p11, p12, p22, rhs, h, 0.0)
        assert iters == 1
        d11, d12, d22 = second_differences(delta, h)
        lhs = p22 * d11 + p11 * d22 - 2.0 * p12 * d12 - dmu
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(rhs))
        assert abs(delta.mean()) <= 1e-12

    def test_pinched_cold_solve_counts(self):
        # pinch 2500 at N=64: exact updates took 9 Newton and 254 Krylov
        # iterations (480 with the mean-cofactor preconditioner), inexact
        # ones 79; the Newton path must not change
        grid = TorusGrid(64)
        rho, lam, Lam = presets.two_bump_density(grid, lo=0.02, hi=50.0)
        pot = solve_ma_periodic(rho, lam=lam, Lam=Lam)
        assert pot.newton_iters == 9
        assert pot.linear_iters <= 120

    @pytest.mark.parametrize("pinch", [4.0, 2500.0])
    def test_inexact_updates_match_exact_ones(self, pinch, monkeypatch):
        # forcing 0 leaves only GMRES_RTOL, the exact-update oracle
        grid = TorusGrid(64)
        rho, lam, Lam = presets.two_bump_density(grid, lo=pinch**-0.5,
                                                 hi=pinch**0.5)
        inexact = solve_ma_periodic(rho, lam=lam, Lam=Lam)
        monkeypatch.setattr(ma, "NEWTON_FORCING", 0.0)
        exact = solve_ma_periodic(rho, lam=lam, Lam=Lam)
        assert inexact.newton_iters == exact.newton_iters
        assert inexact.linear_iters < exact.linear_iters
        assert np.max(np.abs(inexact.q - exact.q)) <= 1e-10

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_krylov_iterations_mesh_independent(self, n):
        grid = TorusGrid(n)
        rho, lam, Lam = presets.two_bump_density(grid)
        state = dynamics.SGState.from_density(rho, grid, lam=lam, Lam=Lam)
        warm = dynamics.step(state, 2.5e-4).pot
        assert warm.newton_iters >= 1
        assert warm.linear_iters <= 12 * warm.newton_iters
        assert "linear_iters" not in warm.header_dict()

    def test_solution_respects_declared_bounds(self):
        grid = TorusGrid(32)
        rho, lam, Lam = presets.perturbed_density(grid)
        pot = solve_ma_periodic(rho, lam=lam, Lam=Lam)
        # the default tolerance is 1e-8 max(1, Lambda)
        slack = abs(pot.gauge) + 10.0 * 1e-8 * max(1.0, Lam)
        assert np.min(pot.det) >= lam - slack
        assert np.max(pot.det) <= Lam + slack


class TestCofactor:
    def test_one_shared_cofactor_per_potential(self):
        # built and checked on the first call, then handed out again; its
        # diagonal entries are the Hessian's own arrays
        pot = presets.perturbed_potential(TorusGrid(16))
        cof = cofactor(pot)
        assert cofactor(pot) is cof
        assert cof.c11 is pot.p22 and cof.c22 is pot.p11
        assert np.array_equal(cof.c12, -pot.p12)
        with pytest.raises(ValueError, match="read-only"):
            cof.c12[0, 0] = 0.0

    @pytest.mark.parametrize("name", ["c11", "c12", "c22"])
    def test_field_is_frozen(self, name):
        cof = cofactor(presets.quadratic_potential(TorusGrid(8)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cof, name, np.ones((8, 8)))

    def test_identity_for_quadratic(self):
        cof = cofactor(presets.quadratic_potential(TorusGrid(16)))
        assert np.array_equal(cof.c11, np.ones((16, 16)))
        assert np.array_equal(cof.c12, np.zeros((16, 16)))

    def test_contract_own_hessian_doubles_determinant(self):
        # 2x2 algebra: cof(H) : H = 2 det H, exactly, stencil for stencil
        grid = TorusGrid(32)
        pot = presets.perturbed_potential(grid)
        cof = cofactor(pot)
        out = cof.contract(pot.p11, pot.p12, pot.p22)
        assert np.max(np.abs(out - 2.0 * pot.det)) <= 1e-13

    def test_divergence_defect_vanishes_quadratically(self):
        # sup norms of the discrete row divergences, O(h^2) for smooth q
        defects = []
        for n in (32, 64):
            grid = TorusGrid(n)
            cof = cofactor(presets.perturbed_potential(grid))
            defects.append(max(
                np.max(np.abs(periodic_divergence(cof.c11, cof.c12, grid))),
                np.max(np.abs(periodic_divergence(cof.c12, cof.c22, grid)))))
        assert 3.4 < defects[0] / defects[1] < 4.6

    def test_eigen_range_positive(self):
        pot = presets.perturbed_potential(TorusGrid(32))
        lo, hi = eigen_range(cofactor(pot))
        assert 0.0 < lo <= hi


class TestLegendre:
    def test_quadratic_is_self_conjugate(self):
        leg = legendre(presets.quadratic_potential(TorusGrid(32)))
        assert np.max(np.abs(leg.q)) <= 1e-12
        assert np.max(np.abs(leg.displacement[0])) <= 1e-12

    def test_inversion_certificate(self):
        # grad P*(grad P(x)) returns to x within 5h, the bound behind
        # factorize's default tol_fact of 10h
        grid = TorusGrid(64)
        _, rho = presets.manufactured_potential(grid)
        pot = solve_ma_periodic(rho, grid)
        leg = legendre(pot)
        x = np.stack(grid.centers(), axis=-1)
        back = pot.sample_gradient(x + np.stack(leg.displacement, axis=-1))
        assert np.max(periodic_distance(back, x)) <= 5.0 * grid.spacing

    def test_involution_returns_to_input(self):
        grid = TorusGrid(64)
        _, rho = presets.manufactured_potential(grid)
        pot = solve_ma_periodic(rho, grid)
        back = legendre(ConvexPotential(grid, legendre(pot).q))
        assert np.max(np.abs(back.q - pot.q)) <= 5e-4

    @PROPERTY
    @given(trig_potentials(st.integers(8, 32)))
    def test_matches_brute_force_bitwise(self, pot):
        leg, ref = legendre(pot), brute_legendre(pot)
        assert np.array_equal(leg.q, ref.q)
        assert np.array_equal(leg.displacement, ref.displacement)

    def test_solved_potential_matches_brute_force_bitwise(self):
        grid = TorusGrid(48)
        rho, lam, Lam = presets.two_bump_density(grid)
        pot = solve_ma_periodic(rho, grid, lam=lam, Lam=Lam)
        leg, ref = legendre(pot), brute_legendre(pot)
        assert np.array_equal(leg.q, ref.q)
        assert np.array_equal(leg.displacement, ref.displacement)

    @staticmethod
    def window_widths(monkeypatch):
        """Record the candidate count of each _conjugate_rows call."""
        widths = []
        conjugate = ma._conjugate_rows

        def recorded(x, y, f):
            widths.append(f.shape)
            return conjugate(x, y, f)

        monkeypatch.setattr(ma, "_conjugate_rows", recorded)
        return widths

    def test_clamped_window_matches_brute_force_bitwise(self, monkeypatch):
        # a separable kinked parabola at N=4 has osc q near 1/8, the most
        # a discretely convex q can have there: the window clamps to the
        # full 3N block
        grid = TorusGrid(4)
        f = -0.99 * 0.5 * (grid.axis_centers() - 0.5) ** 2
        pot = ConvexPotential(grid, f[:, None] + f[None, :])
        widths = self.window_widths(monkeypatch)
        leg, ref = legendre(pot), brute_legendre(pot)
        assert widths == [(12, 12), (4, 12)]
        assert np.array_equal(leg.q, ref.q)
        assert np.array_equal(leg.displacement, ref.displacement)

    def test_pinched_window_matches_brute_force_bitwise(self, monkeypatch):
        # pinch 100 two-bump: the window is well inside the 3N block
        grid = TorusGrid(32)
        rho, lam, Lam = presets.two_bump_density(grid, lo=0.1, hi=10.0)
        pot = solve_ma_periodic(rho, lam=lam, Lam=Lam)
        widths = self.window_widths(monkeypatch)
        leg, ref = legendre(pot), brute_legendre(pot)
        (rows, cols), stage2 = widths
        assert rows == cols <= 2 * grid.n
        assert stage2 == (grid.n, cols)
        assert np.array_equal(leg.q, ref.q)
        assert np.array_equal(leg.displacement, ref.displacement)

    @PROPERTY
    @given(trig_potentials(st.integers(32, 64)))
    def test_involution_on_random_potentials(self, pot):
        # the grid sup misses the true one by O(h^2 / lambda_min), so the
        # Hessian is kept well inside the convex cone
        lo, hi = eigen_range(cofactor(pot))
        assume(lo >= 0.5 and hi <= 2.0)
        back = legendre(ConvexPotential(pot.grid, legendre(pot).q))
        assert np.max(np.abs(back.q - pot.q)) <= 5e-4


class TestConjugateRows:
    @staticmethod
    def brute(x, y, f):
        scores = x[None, :, None] * y[None, None, :] - f[:, None, :]
        return np.argmax(scores, axis=2), np.max(scores, axis=2)

    @pytest.mark.parametrize("seed", range(6))
    def test_nonconvex_rows_match_argmax(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 80))
        y = np.sort(rng.choice(np.linspace(-3.0, 3.0, 2001), size, replace=False))
        x = np.sort(rng.uniform(-6.0, 6.0, int(rng.integers(1, 50))))
        rows = int(rng.integers(1, 3 * ma.CONJUGATE_BLOCK))
        f = [rng.standard_normal((rows, size)),  # no structure
             -y**2 + 0.1 * rng.standard_normal((rows, size)),  # near concave
             y**2 + rng.standard_normal((rows, size))
             * (rng.random((rows, size)) < 0.1)]  # convex with dents
        for fk in f:
            arg, val = _conjugate_rows(x, y, fk)
            ref_arg, ref_val = self.brute(x, y, fk)
            assert np.array_equal(arg, ref_arg)
            assert np.array_equal(val, ref_val)

    def test_hull_needing_many_passes(self):
        # a convex row whose last point dips far down: the vertices before
        # it fall off the hull one per pass, from the right
        y = np.linspace(-1.0, 1.0, 40)
        f = np.stack([y**2, y**2])
        f[0, -1] = -50.0
        x = np.linspace(-30.0, 30.0, 121)
        arg, val = _conjugate_rows(x, y, f)
        ref_arg, ref_val = self.brute(x, y, f)
        assert np.array_equal(arg, ref_arg)
        assert np.array_equal(val, ref_val)

    def test_ties_resolve_to_first_maximizer(self):
        y = np.arange(6.0)
        f = np.zeros((1, 6))  # every point is on one line of slope 0
        arg, val = _conjugate_rows(np.array([-1.0, 0.0, 1.0]), y, f)
        assert arg.tolist() == [[0, 0, 5]]
        assert val.tolist() == [[0.0, 0.0, 5.0]]


class TestPresets:
    def test_manufactured_density_has_unit_mass(self):
        _, rho = presets.manufactured_potential(TorusGrid(32))
        assert np.mean(rho.values) == pytest.approx(1.0, abs=1e-13)

    def test_density_presets_match_declared_bounds(self):
        grid = TorusGrid(64)
        for name, maker in presets.DENSITY_PRESETS.items():
            rho, lam, Lam = maker(grid)
            vals = rho.values if isinstance(rho, TorusField) else rho
            assert vals.min() >= lam - 1e-12, name
            assert vals.max() <= Lam + 1e-12, name
            assert np.mean(vals) == pytest.approx(1.0, abs=1e-10), name

    def test_two_mode_density_exact_range(self):
        # analytic extrema fall between cell centers; the declared bounds
        # must still enclose the samples and be nearly attained
        rho, lam, Lam = presets.two_mode_density(TorusGrid(64))
        assert lam == pytest.approx(0.7, abs=1e-12)
        assert Lam == pytest.approx(1.3, abs=1e-12)
        assert rho.values.min() == pytest.approx(0.7, abs=2e-3)
        assert rho.values.max() == pytest.approx(1.3, abs=2e-3)
