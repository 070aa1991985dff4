import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from sgtorus import grid as gridmod
from sgtorus import fitting, presets, regularity
from sgtorus.errors import GridMismatch, InsufficientSamples, ResidualTooLarge
from sgtorus.fitting import CONSTANT_SENTINEL, loglog_fit
from sgtorus.grid import TorusGrid, periodic_distance
from sgtorus.lma import DivergenceFormOperator, solve_dirichlet_lma
from sgtorus.ma import cofactor
from sgtorus.sections import extract_section

TWO_PI = 2.0 * np.pi
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)


def brute_holder_fit(u, x0, grid, radii=None, min_points=4):
    """Oracle for holder_fits at one centre: the N x N wrapped distances,
    every shell mask and the scale rebuilt on each call."""
    u = np.asarray(u, dtype=float)
    h = grid.spacing
    i0, j0 = grid.index_of(np.asarray(x0, dtype=float))
    x0c = np.array([(i0 + 0.5) * h, (j0 + 0.5) * h])
    x1, x2 = grid.centers()
    dist = np.hypot((x1 - x0c[0] + 0.5) % 1.0 - 0.5,
                    (x2 - x0c[1] + 0.5) % 1.0 - 0.5)
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
        shells[r_achieved] = max(m, shells.get(r_achieved, 0.0))
    shells = sorted(shells.items())

    scale = max(float(np.max(np.abs(u))), 1.0)
    if not shells or max(m for _, m in shells) <= regularity._CONSTANT_FLOOR * scale:
        return regularity.HolderFit(CONSTANT_SENTINEL, 0.0, 1.0, shells, True)
    fit = loglog_fit([r for r, _ in shells], [m for _, m in shells],
                     min_points=min_points)
    return regularity.HolderFit(fit.slope, fit.prefactor, fit.r2, shells, False)


def bits(fit):
    """Every bit of a Holder fit."""
    values = np.array([fit.gamma, fit.prefactor, fit.r2]).view(np.int64)
    shells = np.array(fit.shells, dtype=float).view(np.int64)
    return values.tolist(), shells.tolist(), fit.constant


def fit_bits(fit_fn, *args, **kwargs):
    """Every bit of a Holder fit, or the failure it raises."""
    try:
        return bits(fit_fn(*args, **kwargs))
    except InsufficientSamples as exc:
        return "raises", str(exc)


def holder_fit(u, x0, grid, **kwargs):
    [fit] = regularity.holder_fits(u, [x0], grid, **kwargs)
    return fit


def assert_matches_brute(*args, **kwargs):
    got = fit_bits(holder_fit, *args, **kwargs)
    assert got == fit_bits(brute_holder_fit, *args, **kwargs)
    return got


@pytest.fixture(scope="module")
def harmonic_problem():
    """Homogeneous solution of the linearized operator on a section."""
    grid = TorusGrid(64)
    pot = presets.perturbed_potential(grid)
    x1, x2 = grid.centers()
    bdata = np.sin(TWO_PI * x1) + np.cos(2 * TWO_PI * x2)
    sec = extract_section(pot, (0.5, 0.5), 0.08)
    u, _ = solve_dirichlet_lma(cofactor(pot), sec.mask, grid,
                               boundary_values=bdata, tol=1e-12)
    return grid, pot, sec, u


class TestBasics:
    def test_oscillation_hand_value(self):
        vals = np.array([[1.0, 5.0], [2.0, 8.0]])
        mask = np.array([[True, True], [True, False]])
        assert regularity.oscillation(vals, mask) == 4.0
        assert regularity.oscillation(vals, np.ones((2, 2), bool)) == 7.0

    def test_interior_cells_erodes_one_ring(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[4:9, 5:10] = True
        interior = regularity.interior_cells(mask)
        oracle = ndimage.binary_erosion(mask, structure=np.ones((3, 3)))
        assert np.array_equal(interior, oracle)
        assert np.count_nonzero(interior) == 9

    def test_interior_cells_wrap_across_seam(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[4:9, 14:] = True
        mask[4:9, :3] = True  # one 5x5 block split by the seam
        interior = regularity.interior_cells(mask)
        rolled = ndimage.binary_erosion(np.roll(mask, 5, axis=1),
                                        structure=np.ones((3, 3)))
        assert np.array_equal(interior, np.roll(rolled, -5, axis=1))
        assert np.count_nonzero(interior) == 9

    @pytest.mark.parametrize("n", [5, 7, 33])
    @pytest.mark.parametrize("density", [0.3, 0.7, 0.95])
    def test_interior_cells_equals_minimum_filter(self, n, density, rng):
        mask = rng.random((n, n)) < density
        mask[0, :] = True  # a full row along the seam
        assert np.array_equal(
            regularity.interior_cells(mask),
            ndimage.minimum_filter(mask, size=3, mode="wrap"))

    def test_homogeneity_residual_separates(self, harmonic_problem, rng):
        grid, pot, sec, u = harmonic_problem
        good = regularity.homogeneity_residual(u, pot, sec.mask)
        noise = u + 0.01 * rng.standard_normal(u.shape)
        bad = regularity.homogeneity_residual(noise, pot, sec.mask)
        assert good <= 1e-8
        assert bad > 1e3 * max(good, 1e-300)

    def test_homogeneity_residual_matches_periodic_operator(
            self, harmonic_problem):
        # only the interior rows are assembled; the periodic operator
        # applied to the whole grid is the bitwise reference.  Dropping
        # the ring data leaves L u large next to the ring only, so a row
        # set wider than the interior would read a larger residual.
        grid, pot, sec, u = harmonic_problem
        op = DivergenceFormOperator(grid, cofactor(pot))
        core = regularity.interior_cells(sec.mask)
        for v in (u, np.where(sec.mask, u, 0.0)):
            ref = float(np.max(np.abs(op.apply(v)[core])))
            assert ref > 0.0
            assert regularity.homogeneity_residual(v, pot, sec.mask) == ref


class TestOscillationDecay:
    def test_harmonic_oscillation_contracts(self, harmonic_problem):
        grid, pot, sec, u = harmonic_problem
        report = regularity.oscillation_decay(u, pot, (0.5, 0.5), 0.08,
                                              rungs=4)
        assert len(report.rows) == 3
        assert not report.constant
        ratios = report.ratios()
        assert len(ratios) == 3
        assert all(0.0 < r < 1.0 for r in ratios)
        assert report.beta_max == max(ratios)
        heights = [row.h for row in report.rows]
        assert heights == [0.08, 0.04, 0.02]

    def test_boundary_data_decay_is_the_written_out_pipeline(
            self, harmonic_problem):
        # harmonic_problem is the experiment written out; a fresh
        # potential shares no cofactor or cache with it
        grid, pot, sec, u = harmonic_problem
        ref = regularity.oscillation_decay(u, pot, (0.5, 0.5), 0.08)
        got_u, got = regularity.boundary_data_decay(
            presets.perturbed_potential(TorusGrid(64)), (0.5, 0.5), 0.08)
        assert got_u.tobytes() == u.tobytes()
        assert got == ref

    def test_rejects_inhomogeneous_field(self, harmonic_problem, rng):
        grid, pot, sec, u = harmonic_problem
        with pytest.raises(ResidualTooLarge):
            regularity.oscillation_decay(
                u + 0.05 * rng.standard_normal(u.shape), pot, (0.5, 0.5), 0.08
            )

    def test_constant_field_flagged(self, harmonic_problem):
        grid, pot, sec, u = harmonic_problem
        report = regularity.oscillation_decay(
            np.full(u.shape, 2.5), pot, (0.5, 0.5), 0.08
        )
        assert report.constant
        assert report.ratios() == []
        assert all(np.isinf(row.ratio) for row in report.rows)


class TestHolderFit:
    def grid_distance_power(self, n, x0, gamma, scale=1.0):
        # profile centered on the snapped cell center, matching how the
        # fit measures its shells
        grid = TorusGrid(n)
        x1, x2 = grid.centers()
        pts = np.stack([x1, x2], axis=-1)
        x0c = grid.nearest_center(x0)
        return grid, scale * periodic_distance(pts, x0c) ** gamma

    def test_recovers_exact_exponent(self):
        x0 = (0.31, 0.47)
        for gamma in (0.25, 0.5, 1.0):
            grid, u = self.grid_distance_power(64, x0, gamma)
            fit = holder_fit(u, x0, grid)
            assert fit.gamma == pytest.approx(gamma, abs=1e-9)
            assert fit.r2 == pytest.approx(1.0, abs=1e-12)
            assert not fit.constant

    def test_prefactor_tracks_scale(self):
        x0 = (0.31, 0.47)
        grid, u = self.grid_distance_power(64, x0, 0.5, scale=3.0)
        fit = holder_fit(u, x0, grid)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-6)

    def test_constant_field_sentinel(self):
        grid = TorusGrid(64)
        fit = holder_fit(np.zeros((64, 64)), (0.5, 0.5), grid)
        assert fit.constant
        assert np.isinf(fit.gamma)

    def test_too_few_shells_raises(self):
        grid, u = self.grid_distance_power(64, (0.5, 0.5), 0.5)
        with pytest.raises(InsufficientSamples):
            holder_fit(u, (0.5, 0.5), grid, radii=[0.1, 0.2])

    @pytest.mark.parametrize("center", [(np.nan, 0.5), (0.5, np.inf),
                                        (-np.inf, np.nan)])
    def test_nonfinite_center_rejected(self, center):
        # a NaN once cast to cell 0 and fitted there; a finite centre
        # next to it does not hide it
        grid, u = self.grid_distance_power(64, (0.5, 0.5), 0.5)
        with pytest.raises(ValueError, match="not finite"):
            regularity.holder_fits(u, [(0.3, 0.3), center], grid)

    @pytest.mark.parametrize("shape", [(10, 10), (64,), (8, 9)],
                             ids=["larger-grid", "flat", "rectangle"])
    def test_field_on_other_grid_is_grid_mismatch(self, shape):
        # a 10 x 10 field on the 8 x 8 grid once fitted gamma 0, R^2 1
        u = np.random.default_rng(0).standard_normal(shape)
        with pytest.raises(GridMismatch):
            regularity.holder_fits(u, [(0.3, 0.3)], TorusGrid(8))


class TestHolderFitOracle:
    """holder_fits reads cached shell tables of many centres at once;
    every bit of each result must be the brute-force fit's."""

    @PROPERTY
    @given(st.integers(16, 64), seeds, st.integers(1, 12))
    def test_many_centres(self, n, seed, n_centres):
        # a repeated centre and a seam corner included
        rng = np.random.default_rng(seed)
        grid = TorusGrid(n)
        u = rng.standard_normal((n, n)) * rng.uniform(1e-3, 1e3)
        centres = rng.random((n_centres, 2))
        centres[0] = centres[-1]
        centres[n_centres // 2] = (0.0, 1.0 - 1e-12)
        got = regularity.holder_fits(u, centres, grid, min_points=2)
        assert len(got) == n_centres
        for fit, x0 in zip(got, centres):
            assert bits(fit) == fit_bits(brute_holder_fit, u, x0, grid,
                                         min_points=2)

    @PROPERTY
    @given(st.integers(8, 64), seeds)
    def test_random_fields(self, n, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((n, n)) * rng.uniform(1e-3, 1e3)
        assert_matches_brute(u, rng.random(2), TorusGrid(n))

    @PROPERTY
    @given(st.integers(8, 64), seeds, st.sampled_from(["seam", "corner"]))
    def test_seam_and_corner_centres(self, n, seed, where):
        rng = np.random.default_rng(seed)
        grid = TorusGrid(n)
        edge = [0, n - 1]
        i0 = edge[rng.integers(2)]
        j0 = edge[rng.integers(2)] if where == "corner" else rng.integers(n)
        # any point of the cell, its lower edge on the seam included
        x0 = (np.array([i0, j0]) + rng.choice([0.0, 0.5, 0.999], 2)) / n
        u = gridmod.periodic_distance(
            np.stack(grid.centers(), axis=-1), rng.random(2)
        ) ** 0.5 + 0.1 * rng.standard_normal((n, n))
        assert_matches_brute(u, x0, grid)

    @PROPERTY
    @given(st.integers(8, 64), seeds)
    def test_colliding_radii(self, n, seed):
        # windows a fraction of a spacing apart share their farthest sample
        rng = np.random.default_rng(seed)
        h = 1.0 / n
        radii = list(2.0 * h + np.cumsum(rng.uniform(0.1, 0.6, 10) * h))
        u = rng.standard_normal((n, n))
        assert_matches_brute(u, rng.random(2), TorusGrid(n), radii=radii,
                             min_points=2)

    def test_colliding_radii_do_collide(self):
        grid = TorusGrid(32)
        h = grid.spacing
        radii = tuple(3.0 * h + k * h / 4.0 for k in range(8))
        table = regularity._shell_cells(grid, 5, 7, radii)
        assert len({r for _, r in table}) < len(table)
        u = np.random.default_rng(3).standard_normal((32, 32))
        _, shells, _ = assert_matches_brute(u, (0.17, 0.23), grid,
                                            radii=list(radii), min_points=2)
        assert len(shells) < len(table)

    @PROPERTY
    @given(st.integers(8, 64), seeds, st.floats(-1e6, 1e6))
    def test_constant_field_sentinel(self, n, seed, level):
        rng = np.random.default_rng(seed)
        u = np.full((n, n), level)
        u += 1e-16 * max(abs(level), 1.0) * rng.standard_normal((n, n))
        bits = assert_matches_brute(u, rng.random(2), TorusGrid(n))
        assert bits[2] is True

    def test_cached_cells_are_read_only(self):
        grid = TorusGrid(16)
        table = regularity._shell_cells(grid, 3, 15, (0.2, 0.25, 0.3))
        assert table
        for cells, _ in table:
            assert not cells.flags.writeable
            with pytest.raises(ValueError):
                cells[0] = 0


def bump_field():
    """u > 0 only within 0.15 of (0.25, 0.25) on the 64 x 64 grid, so a
    centre's inner shells can lie where u is flat (shell maximum 0) and
    a far centre sees no change within its shells (constant)."""
    grid = TorusGrid(64)
    d = periodic_distance(np.stack(grid.centers(), axis=-1),
                          np.array([0.25, 0.25]))
    return grid, np.maximum(0.0, 0.15**2 - d**2)


# centre: shells with a positive maximum (None: constant), on bump_field
BUMP_CENTRES = {(0.25, 0.62): 2, (0.55, 0.25): 3, (0.75, 0.75): None,
                (0.5, 0.3): 5, (0.25, 0.25): 8, (0.3, 0.2): 8}


def usable(fit):
    return None if fit.constant else sum(m > 0 for _, m in fit.shells)


class TestBatchedFits:
    """holder_fits fits the centres with the same number of usable shells
    in one pass; each fit must keep the bits of its centre fitted alone."""

    def test_mixed_counts_match_single_centre_and_brute(self):
        grid, u = bump_field()
        centres = list(BUMP_CENTRES)
        fits = regularity.holder_fits(u, centres, grid, min_points=2)
        assert [usable(f) for f in fits] == list(BUMP_CENTRES.values())
        for fit, x0 in zip(fits, centres):
            assert bits(fit) == bits(holder_fit(u, x0, grid, min_points=2))
            assert bits(fit) == fit_bits(brute_holder_fit, u, x0, grid,
                                         min_points=2)

    def test_first_centre_short_of_points_raises_its_message(self):
        # the two centres short of 4 usable shells have different counts;
        # the first of them in order names its own count
        grid, u = bump_field()
        centres = [(0.25, 0.25), (0.75, 0.75), (0.55, 0.25), (0.25, 0.62)]
        with pytest.raises(InsufficientSamples) as raised:
            regularity.holder_fits(u, centres, grid)
        assert str(raised.value) == "fit needs 4 usable samples, got 3"
        assert fit_bits(brute_holder_fit, u, centres[2], grid) == (
            "raises", str(raised.value))

    def test_equal_counts_fit_in_one_pass(self, monkeypatch):
        calls = {"loglog_fit": 0, "linear_fit": 0, "_line": 0}

        def counted(name):
            fn = getattr(fitting, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(fitting, name, counted(name))
        rng = np.random.default_rng(5)
        grid = TorusGrid(64)
        fits = regularity.holder_fits(rng.standard_normal((64, 64)),
                                      rng.random((20, 2)), grid)
        assert len({usable(f) for f in fits}) == 1
        assert calls == {"loglog_fit": 0, "linear_fit": 0, "_line": 1}
