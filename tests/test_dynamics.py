import numpy as np
import pytest

from sgtorus import dynamics, ma, presets
from sgtorus.errors import CFLViolation, InsufficientSamples, InvariantViolation
from sgtorus.grid import (
    PeriodicDisplacement,
    TorusGrid,
    mean_zero,
    periodic_divergence,
)
from sgtorus.krylov import norm
from sgtorus.lma import DivergenceFormOperator, stencil_rows
from sgtorus.ma import cofactor, solve_ma_periodic

TWO_PI = 2.0 * np.pi


class TestVelocity:
    def test_rotated_gradient_structure(self):
        grid = TorusGrid(32)
        rho, lam, Lam = presets.perturbed_density(grid)
        pot = solve_ma_periodic(rho, lam=lam, Lam=Lam)
        vel = dynamics.velocity_from_potential(pot)
        d = pot.gradient_displacement()
        # wrapping is not bit-exact under negation, hence allclose
        assert np.allclose(vel.d1, d.d2, atol=1e-15)
        assert np.allclose(vel.d2, -d.d1, atol=1e-15)

    def test_exactly_divergence_free(self):
        grid = TorusGrid(32)
        rho, lam, Lam = presets.two_mode_density(grid)
        pot = solve_ma_periodic(rho, lam=lam, Lam=Lam)
        vel = dynamics.velocity_from_potential(pot)
        div = periodic_divergence(vel.d1, vel.d2, grid)
        assert np.max(np.abs(div)) <= 1e-10

    def test_uniform_density_is_steady(self):
        grid = TorusGrid(32)
        pot = solve_ma_periodic(presets.uniform_density(grid))
        vel = dynamics.velocity_from_potential(pot)
        assert vel.sup_norm() == 0.0
        assert dynamics.cfl_limit(vel, grid) == np.inf

    def test_cfl_limit_formula(self):
        grid = TorusGrid(16)
        vel = PeriodicDisplacement(grid, np.full((16, 16), 0.25),
                                   np.zeros((16, 16)))
        assert dynamics.cfl_limit(vel, grid) == pytest.approx(
            0.5 * grid.spacing / 0.25
        )


class TestTransport:
    def test_half_cell_shift_is_exact_average(self):
        # departure points halfway between centers make bilinear sampling
        # an exact two-point average, an oracle with no truncation error
        grid = TorusGrid(16)
        rng = np.random.default_rng(5)
        rho = rng.random((16, 16)) + 1.0
        rho /= rho.mean()
        h = grid.spacing
        speed = 0.25 * h
        vel = PeriodicDisplacement(grid, np.full((16, 16), speed),
                                   np.zeros((16, 16)))
        dt = 2.0  # dt * speed = h/2, right at the CFL limit
        new, factor = dynamics.transport_step(rho, vel, dt, grid)
        oracle = 0.5 * (rho + np.roll(rho, 1, axis=0))
        oracle = oracle / oracle.mean()
        assert np.max(np.abs(new - oracle)) <= 1e-13

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1e-3])
    @pytest.mark.parametrize("advance", ["transport_step", "step"])
    def test_rejects_bad_time_step(self, advance, dt):
        grid = TorusGrid(16)
        state = dynamics.SGState.from_density(presets.uniform_density(grid),
                                              grid)
        with pytest.raises(ValueError, match="positive and finite"):
            if advance == "step":
                dynamics.step(state, dt)
            else:
                dynamics.transport_step(state.rho, state.velocity, dt, grid)

    def test_cfl_violation_raised(self):
        grid = TorusGrid(16)
        vel = PeriodicDisplacement(grid, np.full((16, 16), 0.1),
                                   np.zeros((16, 16)))
        with pytest.raises(CFLViolation):
            dynamics.transport_step(np.ones((16, 16)), vel, 1.0, grid)

    def test_range_escape_is_typed_error(self, monkeypatch):
        # bilinear sampling is a convex combination; a sampler that
        # overshoots must surface as a named invariant, not an assert
        grid = TorusGrid(16)
        rho = 1.0 + 0.1 * np.random.default_rng(2).random((16, 16))
        vel = PeriodicDisplacement(grid, np.full((16, 16), 0.01),
                                   np.zeros((16, 16)))
        monkeypatch.setattr(dynamics.gridmod, "sample_bilinear",
                            lambda values, points, grid: 1.5 * values)
        with pytest.raises(InvariantViolation) as exc:
            dynamics.transport_step(rho, vel, 1e-3, grid)
        assert exc.value.name == "transport_range"

    def test_range_and_mass_preserved(self):
        grid = TorusGrid(32)
        rho, lam, Lam = presets.perturbed_density(grid)
        pot = solve_ma_periodic(rho.values, grid, lam=lam, Lam=Lam)
        vel = dynamics.velocity_from_potential(pot)
        dt = min(2e-3, 0.9 * dynamics.cfl_limit(vel, grid))
        new, factor = dynamics.transport_step(rho.values, vel, dt, grid)
        assert abs(factor - 1.0) <= 1e-6
        assert np.mean(new) == pytest.approx(1.0, abs=1e-14)
        assert new.min() >= rho.values.min() * min(factor, 1.0) - 1e-13
        assert new.max() <= rho.values.max() * max(factor, 1.0) + 1e-13


class TestRun:
    def test_uniform_fixed_point_is_exact(self):
        grid = TorusGrid(32)
        res = dynamics.run(presets.uniform_density(grid), dt=2e-3, t_end=0.02)
        assert res.n_steps == 10
        drift = max(np.max(np.abs(r - 1.0)) for r in res.rho_history)
        assert drift == 0.0
        assert all(c["u_inf"] == 0.0 for c in res.certificates)

    def test_certificate_records(self, short_run):
        res = short_run
        assert len(res.times) == len(res.certificates) == 26
        assert res.times[1] - res.times[0] == pytest.approx(2e-3)
        for c in res.certificates:
            assert c["violations"] == []
            assert abs(c["mass"] - 1.0) <= 1e-8
            assert 0.0 < c["min_rho"] <= c["max_rho"]
            assert np.isfinite(c["w2_proxy"])

    def test_envelope_bookkeeping(self):
        # the short_run steps, on the state: each step widens [lam, Lam]
        # by its logged renormalization factor, within the drift allowance
        grid = TorusGrid(32)
        rho0, lam, Lam = presets.two_mode_density(grid)
        state = dynamics.SGState.from_density(rho0, grid, lam=lam, Lam=Lam)
        k = 25
        for _ in range(k):
            state = dynamics.step(state, 2e-3)
            factor = state.certificates["renorm_factor"]
            lam, Lam = lam * min(factor, 1.0), Lam * max(factor, 1.0)
        assert (state.lam_env, state.Lam_env) == (lam, Lam)
        assert state.lam_env <= 0.7 + 1e-12
        assert state.lam_env >= 0.7 * (1.0 - dynamics.RENORM_DRIFT) ** k
        assert state.Lam_env >= 1.3 - 1e-12
        assert state.Lam_env <= 1.3 * (1.0 + dynamics.RENORM_DRIFT) ** k

    def test_linearized_identity_residual_is_small(self, short_run):
        # A dP*/dt = div(rho U): the discrete mismatch at this resolution
        # is interpolation noise, well under the O(1) scale of the rhs
        lmas = [c["lma_residual"] for c in short_run.certificates[1:-1]]
        assert all(np.isfinite(r) for r in lmas)
        assert max(lmas) <= 0.6

    def test_lma_residual_matches_periodic_operator(self, short_run):
        # every record, one-sided ends included, against the periodic
        # operator on a potential rebuilt from the recorded q
        res = short_run
        for k, c in enumerate(res.certificates):
            pot = ma.ConvexPotential(res.grid, res.q_history[k])
            vel = dynamics.velocity_from_potential(pot)
            rho, dtp = res.rho_history[k], res.dtp_field(k)
            op = DivergenceFormOperator(pot.grid, cofactor(pot))
            rhs = op.divergence_rhs(rho * vel.d1, rho * vel.d2)
            ref = (np.linalg.norm((op.apply(dtp) - rhs).ravel())
                   / np.linalg.norm(rhs))
            assert c["lma_residual"] == pytest.approx(ref, rel=1e-13, abs=0)

    def test_lma_residual_is_assembled_row_product(self, monkeypatch):
        # every record, bit for bit, against the product with the
        # assembled rows of all cells on the record's own state
        states = []
        residual = dynamics.lma_residual
        monkeypatch.setattr(
            dynamics, "lma_residual",
            lambda *args: states.append(args) or residual(*args))
        grid = TorusGrid(32)
        rho0, lam, Lam = presets.two_mode_density(grid)
        res = dynamics.run(rho0, grid, dt=2e-3, t_end=0.02, lam=lam, Lam=Lam)
        assert len(states) == len(res.certificates)
        for c, (pot, rho, vel, dtp) in zip(res.certificates, states):
            rows = stencil_rows(grid, cofactor(pot), np.arange(32 * 32))
            rhs = periodic_divergence(rho * vel.d1, rho * vel.d2,
                                      grid).ravel()
            ref = norm(rows @ dtp.ravel() - rhs) / (norm(rhs) or 1.0)
            assert c["lma_residual"] == ref

    def test_one_potential_per_record(self, monkeypatch):
        # the residuals reuse each step's own potential: the solver's
        # ConvexPotential is the only one built
        built = []
        init = ma.ConvexPotential.__init__
        monkeypatch.setattr(
            ma.ConvexPotential, "__init__",
            lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
        grid = TorusGrid(16)
        rho0, lam, Lam = presets.two_mode_density(grid)
        res = dynamics.run(rho0, grid, dt=2e-3, t_end=0.008, lam=lam, Lam=Lam)
        assert len(res.certificates) == 5
        assert len(built) == 5
        assert all(np.isfinite(c["lma_residual"]) for c in res.certificates)

    def test_zero_step_run_has_nan_residual(self):
        grid = TorusGrid(16)
        rho0, lam, Lam = presets.two_mode_density(grid)
        res = dynamics.run(rho0, grid, dt=1.0, t_end=0.1, lam=lam, Lam=Lam)
        assert res.n_steps == 0
        assert len(res.certificates) == 1
        assert np.isnan(res.certificates[0]["lma_residual"])

    @pytest.mark.parametrize("dt, t_end", [
        (0.0, 0.1), (-2e-3, 0.1), (np.nan, 0.1), (np.inf, 0.1),
        (2e-3, 0.0), (2e-3, -0.1), (2e-3, np.nan), (2e-3, np.inf),
    ])
    def test_rejects_bad_time_grid_before_solving(self, dt, t_end,
                                                  monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("cold solve before dt and t_end were checked")

        monkeypatch.setattr(dynamics, "solve_ma_periodic", no_solve)
        grid = TorusGrid(16)
        with pytest.raises(ValueError, match="positive and finite"):
            dynamics.run(presets.uniform_density(grid), grid, dt=dt,
                         t_end=t_end)

    def test_records_are_read_only(self, short_run):
        # q_history holds each potential's own q, not a copy of it
        with pytest.raises(ValueError, match="read-only"):
            short_run.q_history[3][0, 0] = 0.0

    def test_density_records_are_transport_outputs(self, monkeypatch):
        # rho0 is copied once; each later record is the step's own
        # transported density, uncopied and read-only
        outputs = []
        transport_step = dynamics.transport_step

        def capture(*args):
            rho, factor = transport_step(*args)
            outputs.append(rho)
            return rho, factor

        monkeypatch.setattr(dynamics, "transport_step", capture)
        grid = TorusGrid(16)
        field, lam, Lam = presets.two_mode_density(grid)
        rho0, before = field.values, field.values.copy()
        res = dynamics.run(rho0, grid, dt=2e-3, t_end=0.01, lam=lam, Lam=Lam)
        assert len(outputs) == res.n_steps == 5
        for k, rho in enumerate(outputs, 1):
            assert res.rho_history[k] is rho
        assert res.rho_history[0] is not rho0
        assert np.array_equal(res.rho_history[0], before)
        assert rho0.flags.writeable and np.array_equal(rho0, before)
        assert not any(r.flags.writeable for r in res.rho_history)

    def test_dtp_field_matches_centered_difference(self, short_run):
        res = short_run
        k = 5
        oracle = mean_zero((res.q_history[6] - res.q_history[4]) / (2 * res.dt))
        assert np.array_equal(res.dtp_field(k), oracle)
        first = mean_zero((res.q_history[1] - res.q_history[0]) / res.dt)
        assert np.array_equal(res.dtp_field(0), first)
        last = mean_zero((res.q_history[-1] - res.q_history[-2]) / res.dt)
        assert np.array_equal(res.dtp_field(res.n_steps), last)

    def test_one_gradient_displacement_per_state(self, monkeypatch):
        # the velocity and w2_proxy share it, with the bits of separate ones
        grid = TorusGrid(32)
        rho, lam, Lam = presets.two_mode_density(grid)
        built = []
        monkeypatch.setattr(
            ma, "PeriodicDisplacement",
            lambda *args: built.append(args) or PeriodicDisplacement(*args))
        state = dynamics.SGState.from_density(rho, grid, lam=lam, Lam=Lam)
        assert len(built) == 1
        fresh = solve_ma_periodic(rho, lam=lam, Lam=Lam)
        assert state.certificates["w2_proxy"] == dynamics.w2_proxy(
            rho.values, fresh.gradient_displacement())
        assert np.array_equal(state.velocity.d1,
                              dynamics.velocity_from_potential(fresh).d1)

    def test_w2_proxy_zero_only_for_uniform(self):
        grid = TorusGrid(32)
        pot_u = solve_ma_periodic(presets.uniform_density(grid))
        assert dynamics.w2_proxy(np.ones((32, 32)),
                                 pot_u.gradient_displacement()) == 0.0
        rho, lam, Lam = presets.perturbed_density(grid)
        pot = solve_ma_periodic(rho, lam=lam, Lam=Lam)
        assert dynamics.w2_proxy(rho.values, pot.gradient_displacement()) > 0.0


def two_bump_run(dts, monkeypatch=None):
    """States of a two-bump run at N=64 with the given steps; with
    monkeypatch, every step's Krylov guess is switched off."""
    if monkeypatch is not None:
        monkeypatch.setattr(dynamics, "extrapolated_update",
                            lambda records, t: None)
    grid = TorusGrid(64)
    rho0, lam, Lam = presets.two_bump_density(grid)
    states = [dynamics.SGState.from_density(rho0, grid, lam=lam, Lam=Lam)]
    for dt in dts:
        states.append(dynamics.step(states[-1], dt))
    return states


class TestKrylovGuess:
    """Each warm step starts its first GMRES at the update extrapolated
    from the records before it; the Newton path must not notice."""

    def test_extrapolation_is_exact_on_quadratics(self, rng):
        a, b, c = rng.standard_normal((3, 4, 4))

        def q(t):
            return a + b * t + c * t * t

        times = [0.1, 0.13, 0.2]
        records = [(t, q(t)) for t in times]
        exact = q(0.26) - q(0.2)
        assert dynamics.extrapolated_update(records[-1:], 0.26) is None
        linear = dynamics.extrapolated_update(records[1:], 0.26)
        assert np.allclose(linear, (b + c * (0.13 + 0.2)) * 0.06,
                           rtol=1e-12, atol=1e-14)
        assert np.allclose(dynamics.extrapolated_update(records, 0.26),
                           exact, rtol=1e-11, atol=1e-13)

    def test_history_window(self):
        states = two_bump_run([2.5e-4] * 3)
        assert [len(s.history) for s in states] == [0, 1, 2, 2]
        assert [t for t, _ in states[-1].history] == [states[1].t, states[2].t]
        assert states[-1].history[-1][1] is states[2].pot.q

    @pytest.fixture(scope="class")
    def guessed(self):
        return two_bump_run([2.5e-4] * 8)

    def test_same_newton_path_as_cold_krylov_starts(self, guessed,
                                                    monkeypatch):
        plain = two_bump_run([2.5e-4] * 8, monkeypatch)
        assert ([s.pot.newton_iters for s in guessed]
                == [s.pot.newton_iters for s in plain])
        for a, b in zip(guessed, plain):
            assert np.max(np.abs(a.pot.q - b.pot.q)) <= 1e-10
        saved = [b.pot.linear_iters - a.pot.linear_iters
                 for a, b in zip(guessed, plain)]
        assert saved[:2] == [0, 0] and min(saved[3:]) > 0

    def test_krylov_iterations_from_the_third_step(self, guessed):
        krylov = [s.pot.linear_iters for s in guessed[3:]]
        assert max(krylov) <= 3

    def test_unequal_steps(self, monkeypatch):
        dts = [2.5e-4, 1e-4, 4e-4, 2e-4, 3e-4, 1.5e-4]
        guessed = two_bump_run(dts)
        plain = two_bump_run(dts, monkeypatch)
        assert ([s.pot.newton_iters for s in guessed]
                == [s.pot.newton_iters for s in plain])
        for a, b in zip(guessed, plain):
            assert np.max(np.abs(a.pot.q - b.pot.q)) <= 1e-10
        assert max(s.pot.linear_iters for s in guessed[3:]) <= 3


class TestTimeRegularity:
    def test_report_summary(self, short_run):
        rep = dynamics.holder_in_time_report(short_run)
        s = rep.summary
        # the keys that verify and the benchmark read, and no others
        assert set(s) == {"constant", "gamma_min", "c_max", "r2_ok_fraction"}
        assert not s["constant"]
        assert 0.0 < s["gamma_min"] < 2.0
        assert s["c_max"] > 0.0
        assert 0.0 <= s["r2_ok_fraction"] <= 1.0

    def test_needs_enough_records(self):
        grid = TorusGrid(32)
        rho0, lam, Lam = presets.two_mode_density(grid)
        res = dynamics.run(rho0, grid, dt=2e-3, t_end=0.01, lam=lam, Lam=Lam)
        with pytest.raises(InsufficientSamples):
            dynamics.holder_in_time_report(res)

    def test_seeded_centers_reproducible(self, short_run):
        a = dynamics.holder_in_time_report(short_run, seed=4)
        b = dynamics.holder_in_time_report(short_run, seed=4)
        assert a.summary == b.summary
