import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgtorus import polar, presets
from sgtorus.ma import solve_ma_periodic
from sgtorus.errors import (
    DegenerateMap,
    FactorizationResidualTooLarge,
    InsufficientSamples,
)
from sgtorus.grid import (
    PeriodicDisplacement,
    TorusGrid,
    integral,
    mean_zero,
    periodic_distance,
    periodic_gradient,
)

TWO_PI = 2.0 * np.pi


def identity_map(grid):
    z = np.zeros((grid.n, grid.n))
    return PeriodicDisplacement(grid, z, z.copy())


class TestPushforward:
    def test_identity_gives_uniform_exactly(self):
        grid = TorusGrid(32)
        rho, factor = polar.pushforward_density(identity_map(grid))
        assert np.array_equal(rho.values, np.ones((32, 32)))
        assert factor == 1.0

    def test_translation_gives_uniform(self):
        grid = TorusGrid(32)
        d = PeriodicDisplacement(grid, np.full((32, 32), 0.3),
                                 np.full((32, 32), -0.2))
        rho, _ = polar.pushforward_density(d)
        assert np.max(np.abs(rho.values - 1.0)) <= 1e-12

    def test_gradient_map_matches_change_of_variables(self):
        # X = grad potential pushes uniform to 1/det(D^2 potential) o X^{-1};
        # deposition aliasing is h-independent and proportional to eps,
        # so a small amplitude keeps the relative L1 gap tight
        grid = TorusGrid(64)
        eps = 0.003
        mapping = presets.cosine_gradient_map(grid, eps)
        rho, _ = polar.pushforward_density(mapping)

        x1inv = presets.cosine_inverse_first_coordinate(grid, eps)
        det_at_inv = 1.0 - eps * TWO_PI**2 * np.cos(TWO_PI * x1inv)
        oracle = 1.0 / det_at_inv
        oracle = oracle / oracle.mean()
        rel_l1 = np.mean(np.abs(rho.values - oracle)) / np.mean(np.abs(oracle))
        assert rel_l1 <= 0.02

    def test_mass_renormalization_near_one(self):
        grid = TorusGrid(64)
        rho, factor = polar.pushforward_density(presets.shear_map(grid, 0.05))
        assert abs(factor - 1.0) <= 1e-12
        assert np.mean(rho.values) == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.integers(8, 48), st.integers(0, 2**32 - 1))
    def test_unit_mass_for_smooth_displacements(self, n, seed):
        # up to three modes per component, each with gradient at most
        # 0.05 sqrt 2, so the map stays a small perturbation of the identity
        rng = np.random.default_rng(seed)
        grid = TorusGrid(n)
        x1, x2 = grid.centers()
        d = []
        for _ in range(2):
            comp = np.zeros((n, n))
            for _ in range(rng.integers(1, 4)):
                k = rng.integers(-2, 3, 2)
                amp = 0.05 * rng.uniform(-1.0, 1.0) / (TWO_PI * max(1, np.abs(k).max()))
                comp += amp * np.sin(TWO_PI * (k[0] * x1 + k[1] * x2) + TWO_PI * rng.random())
            d.append(comp + rng.uniform(-0.5, 0.5))  # plus a translation
        rho, factor = polar.pushforward_density(PeriodicDisplacement(grid, *d))
        assert np.mean(rho.values) == pytest.approx(1.0, abs=1e-13)
        assert abs(factor - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [16, 33, 64])
    def test_deposit_matches_four_pass_oracle_bitwise(self, n):
        # np.add.at corner by corner, the accumulation order of the one
        # bincount over the concatenated corners
        grid = TorusGrid(n)
        shear = presets.shear_map(grid, 0.05)
        maps = [shear, presets.compose_maps(
            presets.cosine_gradient_map(grid, 0.01), shear)]
        x1, x2 = grid.centers()
        for seed in range(2):
            # one smooth mode per component plus a translation
            rng = np.random.default_rng(seed)
            amp = rng.uniform(-0.02, 0.02, 2)
            phase, shift = rng.random(2), rng.random(2)
            maps.append(PeriodicDisplacement(grid, *(
                a * np.sin(TWO_PI * (x1 + 2.0 * x2 + p)) + s
                for a, p, s in zip(amp, phase, shift))))
        for mapping in maps:
            coords = mapping.apply() * n - 0.5
            base = np.floor(coords).astype(int)
            frac = coords - base
            accum = np.zeros((n, n))
            for di in (0, 1):
                for dj in (0, 1):
                    w1 = frac[..., 0] if di else 1.0 - frac[..., 0]
                    w2 = frac[..., 1] if dj else 1.0 - frac[..., 1]
                    np.add.at(accum, ((base[..., 0] + di) % n,
                                      (base[..., 1] + dj) % n), w1 * w2)
            rho, factor = polar.pushforward_density(mapping)
            assert factor == 1.0 / float(np.mean(accum))
            assert np.array_equal(rho.values, accum * factor)

    def test_collapsing_map_rejected(self):
        grid = TorusGrid(32)
        x1, x2 = grid.centers()
        # send every cell to the same point
        d = PeriodicDisplacement(grid, 0.5 - x1, 0.5 - x2)
        with pytest.raises(DegenerateMap):
            polar.pushforward_density(d)


class TestFactorize:
    def test_identity_factors_trivially(self):
        grid = TorusGrid(32)
        fact = polar.factorize(identity_map(grid))
        assert fact.residual_median <= 1e-10
        assert fact.defect <= 1e-10
        assert float(np.max(fact.g.norm())) <= 1e-10
        assert np.max(np.abs(fact.pot.q)) <= 1e-10

    def test_gradient_map_has_trivial_rotation_factor(self):
        # X already a gradient: P recovers it and g stays near the identity
        grid = TorusGrid(64)
        mapping = presets.cosine_gradient_map(grid, 0.01)
        fact = polar.factorize(mapping)
        assert fact.residual_median <= 10.0 * grid.spacing
        assert float(np.median(fact.g.norm())) <= 5.0 * grid.spacing

    def test_shear_composition_recovers_both_factors(self):
        # X = grad potential o shear: the measure factor is the shear itself
        grid = TorusGrid(64)
        shear = presets.shear_map(grid, 0.05)
        outer = presets.cosine_gradient_map(grid, 0.005)
        fact = polar.factorize(presets.compose_maps(outer, shear))
        x1, x2 = grid.centers()
        g_pts = fact.g.apply()
        s_pts = shear.apply()
        err = periodic_distance(g_pts, s_pts)
        assert float(np.median(err)) <= 5.0 * grid.spacing
        assert fact.defect <= 0.05

    def test_unreachable_tolerance_raises(self):
        grid = TorusGrid(32)
        mapping = presets.cosine_gradient_map(grid, 0.01)
        with pytest.raises(FactorizationResidualTooLarge):
            polar.factorize(mapping, tol_fact=1e-14)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_nonfinite_or_nonpositive_tolerance_rejected(self, tol):
        # a NaN tolerance would pass every residual, as res > nan is False
        with pytest.raises(ValueError, match="positive and finite"):
            polar.factorize(presets.shear_map(TorusGrid(32)), tol_fact=tol)


class TestSeries:
    def test_validation(self):
        grid = TorusGrid(16)
        m = identity_map(grid)
        with pytest.raises(ValueError):
            polar.MapTimeSeries(grid, [0.0, 0.0], [m, m])
        with pytest.raises(ValueError):
            polar.MapTimeSeries(grid, [0.0], [m, m])

    def test_write_read_roundtrip(self, tmp_path):
        grid = TorusGrid(16)
        series = presets.cosine_family_series(grid, [0.1, 0.4, 0.7])
        manifest = polar.write_series(series, tmp_path / "series")
        assert len(manifest["entries"]) == 3
        back = polar.read_series(tmp_path / "series")
        assert back.times == series.times
        for a, b in zip(back.maps, series.maps):
            assert np.array_equal(a.d1, b.d1)
            assert np.array_equal(a.d2, b.d2)


FACTORIZE = polar.factorize


def run_series(monkeypatch, series, cold=False):
    """polar_time_regularity with polar.factorize wrapped: returns the
    report and the initial potential of each call; cold=True drops it
    before the call, which gives the cold series."""
    starts = []

    def spy(*args, **kwargs):
        starts.append(kwargs.get("initial"))
        if cold:
            kwargs["initial"] = None
        return FACTORIZE(*args, **kwargs)

    monkeypatch.setattr(polar, "factorize", spy)
    return polar.polar_time_regularity(series, seed=1), starts


class TestTimeRegularity:
    def test_needs_three_timestamps(self):
        grid = TorusGrid(32)
        series = presets.cosine_family_series(grid, [0.1, 0.2])
        with pytest.raises(InsufficientSamples):
            polar.polar_time_regularity(series)

    def test_report_rows_and_summary(self):
        grid = TorusGrid(32)
        series = presets.cosine_family_series(grid, [0.1, 0.2, 0.3, 0.4])
        out = polar.polar_time_regularity(series, seed=1)
        assert len(out["rows"]) == 2  # interior timestamps only
        assert len(out["factorizations"]) == 4
        row = out["rows"][0]
        assert {"t", "defect", "residual", "gamma_hat", "C_hat"} <= set(row)
        s = out["summary"]
        assert s["n_timestamps"] == 4
        assert s["defect_max"] < 0.05
        assert s["residual_max"] <= 2.0 * 5.0 * grid.spacing
        assert np.isfinite(s["gamma_min"])

    def test_gradient_norms_match_oracle(self):
        # the rho-weighted L^(1+kappa) norms of d(grad P*)/dt, recomputed
        # from the returned factorizations, bit for bit
        grid = TorusGrid(16)
        series = presets.cosine_family_series(grid, [0.1, 0.25, 0.4, 0.55])
        out = polar.polar_time_regularity(series, seed=2)
        facts, times = out["factorizations"], series.times
        for k, row in enumerate(out["rows"], start=1):
            dtp = mean_zero((facts[k + 1].pot.q - facts[k - 1].pot.q)
                            / (times[k + 1] - times[k - 1]))
            g1, g2 = periodic_gradient(dtp, grid)
            mag = np.hypot(g1, g2)
            rho = facts[k].density.values
            for kappa, key in ((0.1, "l1.1_dt_grad"), (0.2, "l1.2_dt_grad")):
                p = 1.0 + kappa
                assert row[key] == float(integral(rho * mag ** p, grid)) \
                    ** (1.0 / p)
            # rho has unit mass, so the norm grows with the exponent
            assert 0.0 < row["l1.1_dt_grad"] < row["l1.2_dt_grad"]

    def test_series_warm_starts_from_predecessor(self, monkeypatch):
        # X_t = id + t grad q of a solved two-bump potential: its first,
        # cold solve takes several Newton iterations, so every later one
        # starts from its predecessor's potential, and saves some
        grid = TorusGrid(32)
        rho, lam, Lam = presets.two_bump_density(grid)
        pot = solve_ma_periodic(rho, lam=lam, Lam=Lam)
        times = [0.7, 0.8, 0.9, 1.0]
        series = polar.MapTimeSeries(grid, times, [
            PeriodicDisplacement(grid, t * pot.g1, t * pot.g2) for t in times])
        warm, starts = run_series(monkeypatch, series)
        cold, _ = run_series(monkeypatch, series, cold=True)
        facts, cold_facts = warm["factorizations"], cold["factorizations"]
        assert len(starts) == len(times)
        assert starts[0] is None
        assert all(s is f.pot for s, f in zip(starts[1:], facts))
        assert facts[0].pot.newton_iters > 1
        assert sum(f.pot.newton_iters for f in facts) \
            < sum(f.pot.newton_iters for f in cold_facts)
        for f, ref in zip(facts, cold_facts):
            assert np.max(np.abs(f.pot.q - ref.pot.q)) <= 1e-9
        for row, ref in zip(warm["rows"], cold["rows"]):
            assert row.keys() == ref.keys()
            for key, value in ref.items():
                assert row[key] == pytest.approx(value, rel=1e-6)

    def test_one_newton_series_stays_cold(self, monkeypatch):
        # on the cosine family the cold start's preconditioner is exact,
        # one Newton iteration, so no timestamp is warm-started
        grid = TorusGrid(32)
        series = presets.cosine_family_series(grid, [0.1, 0.2, 0.3, 0.4])
        out, starts = run_series(monkeypatch, series)
        assert starts == [None] * 4
        assert out["factorizations"][0].pot.newton_iters == 1
        for fact, mapping in zip(out["factorizations"], series.maps):
            assert np.array_equal(fact.pot.q, FACTORIZE(mapping).pot.q)
        cold, _ = run_series(monkeypatch, series, cold=True)
        assert out["rows"] == cold["rows"]
