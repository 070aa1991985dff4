import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from sgtorus import grid as gridmod
from sgtorus import presets
from sgtorus.errors import GridMismatch, InvariantViolation
from sgtorus.grid import PeriodicDisplacement, TorusField, TorusGrid
from sgtorus.sections import extract_section

TWO_PI = 2.0 * np.pi
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)
finite = st.floats(allow_nan=False, allow_infinity=False)


def edge_values():
    """Signed zeros, halves, integers, their float neighbours, huge and
    tiny magnitudes: where a floor-based wrap could part from float mod."""
    base = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 1e300, 1e-20, 1e-300, 5e-324,
                     0.25, 0.75, 2.0**52, 2.0**53 + 2.0])
    base = np.concatenate([base, -base])
    return np.concatenate([base, np.nextafter(base, np.inf),
                           np.nextafter(base, -np.inf)])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def trig_field(grid):
    x1, x2 = grid.centers()
    return (np.sin(TWO_PI * x1) + 0.5 * np.cos(2 * TWO_PI * x2)
            + 0.25 * np.sin(TWO_PI * x1) * np.cos(TWO_PI * x2))


class TestWrapping:
    def test_wrap_into_unit_square(self):
        out = gridmod.wrap([[1.25, -0.25], [0.5, 3.0]])
        assert np.allclose(out, [[0.25, 0.75], [0.5, 0.0]])

    def test_wrap_delta_shortest_representative(self):
        assert gridmod.wrap_delta(0.8) == pytest.approx(-0.2)
        assert gridmod.wrap_delta(-0.6) == pytest.approx(0.4)
        assert np.all(gridmod.wrap_delta(np.linspace(-3, 3, 101)) >= -0.5)
        assert np.all(gridmod.wrap_delta(np.linspace(-3, 3, 101)) < 0.5)

    def test_periodic_distance_crosses_seam(self):
        d = gridmod.periodic_distance([0.05, 0.05], [0.95, 0.95])
        assert d == pytest.approx(np.hypot(0.1, 0.1))
        assert gridmod.periodic_distance([0.3, 0.4], [0.3, 0.4]) == 0.0

    def test_wrap_matches_float_mod_on_edge_values(self):
        x = edge_values()
        assert same_bits(gridmod.wrap(x), x % 1.0)
        assert same_bits(gridmod.wrap_delta(x), (x + 0.5) % 1.0 - 0.5)
        # both forms round a tiny negative coordinate up to the period
        assert gridmod.wrap(-1e-20) == 1.0
        assert np.float64(-1e-20) % 1.0 == 1.0

    @PROPERTY
    @given(st.lists(finite, min_size=1, max_size=64), seeds)
    def test_wrap_matches_float_mod(self, values, seed):
        rng = np.random.default_rng(seed)
        x = np.concatenate([values, rng.uniform(-3.0, 3.0, 64),
                            1e-17 * rng.standard_normal(16)])
        assert same_bits(gridmod.wrap(x), x % 1.0)
        assert same_bits(gridmod.wrap_delta(x), (x + 0.5) % 1.0 - 0.5)

    def test_periodic_delta_antisymmetric(self, rng):
        a, b = rng.random((2, 7, 2))
        assert np.allclose(gridmod.periodic_delta(a, b),
                           gridmod.wrap_delta(-gridmod.periodic_delta(b, a)))


class TestGrid:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            TorusGrid(3)

    def test_centers_and_spacing(self):
        grid = TorusGrid(4)
        assert grid.spacing == 0.25
        assert grid.cell_area == 0.0625
        assert np.allclose(grid.axis_centers(), [0.125, 0.375, 0.625, 0.875])

    def test_index_of_floors_to_cell(self):
        grid = TorusGrid(10)
        i, j = grid.index_of([0.999, 0.0])
        assert (i, j) == (9, 0)
        assert np.allclose(grid.nearest_center([0.999, 0.0]), [0.95, 0.05])

    @PROPERTY
    @given(st.integers(4, 64), seeds)
    def test_offsets_from_broadcasts_to_wrapped_meshgrid(self, n, seed):
        rng = np.random.default_rng(seed)
        grid = TorusGrid(n)
        i0, j0 = (int(k) for k in rng.integers(0, n, 2))
        h = grid.spacing
        x1, x2 = grid.centers()
        d1, d2 = grid.offsets_from(i0, j0)
        assert d1.shape == (n, 1) and d2.shape == (1, n)
        assert same_bits(np.broadcast_to(d1, (n, n)),
                         gridmod.wrap_delta(x1 - (i0 + 0.5) * h))
        assert same_bits(np.broadcast_to(d2, (n, n)),
                         gridmod.wrap_delta(x2 - (j0 + 0.5) * h))

    def test_section_offsets_match_meshgrid_gather(self):
        # a section across both seams: its offsets are the wrapped N x N
        # meshgrid gathered at the mask
        grid = TorusGrid(64)
        pot = presets.perturbed_potential(grid)
        sec = extract_section(pot, (0.99, 0.01), 0.02)
        assert sec.mask[0].any() and sec.mask[-1].any()
        assert sec.mask[:, 0].any() and sec.mask[:, -1].any()
        x1, x2 = grid.centers()
        d1 = (x1 - sec.center[0] + 0.5) % 1.0 - 0.5
        d2 = (x2 - sec.center[1] + 0.5) % 1.0 - 0.5
        assert same_bits(sec.offsets,
                         np.column_stack([d1[sec.mask], d2[sec.mask]]))

    def test_field_shape_guard(self):
        with pytest.raises(GridMismatch):
            TorusField(TorusGrid(8), np.zeros((4, 4)))

    def test_check_same_grid(self):
        with pytest.raises(GridMismatch):
            gridmod.check_same_grid(TorusGrid(8), TorusGrid(16))


def rolled_differences(values, spacing):
    """Test oracle of the difference stencils: the np.roll forms of the
    first differences along each axis and of second_differences, with
    their operands in the same order."""
    def dx(axis):
        return ((np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis))
                / (2.0 * spacing))

    h2 = spacing * spacing
    f11 = (np.roll(values, -1, 0) + np.roll(values, 1, 0) - 2.0 * values) / h2
    f22 = (np.roll(values, -1, 1) + np.roll(values, 1, 1) - 2.0 * values) / h2
    f12 = (
        np.roll(values, (-1, -1), (0, 1))
        + np.roll(values, (1, 1), (0, 1))
        - np.roll(values, (-1, 1), (0, 1))
        - np.roll(values, (1, -1), (0, 1))
    ) / (4.0 * h2)
    return dx(0), dx(1), f11, f12, f22


class TestDifferenceOperators:
    def test_gradient_second_order(self):
        errs = []
        for n in (32, 64):
            grid = TorusGrid(n)
            x1, x2 = grid.centers()
            f = np.sin(TWO_PI * x1) + np.cos(2 * TWO_PI * x2)
            g1, g2 = gridmod.periodic_gradient(f, grid)
            e1 = np.max(np.abs(g1 - TWO_PI * np.cos(TWO_PI * x1)))
            e2 = np.max(np.abs(g2 + 2 * TWO_PI * np.sin(2 * TWO_PI * x2)))
            errs.append(max(e1, e2))
        assert 3.5 < errs[0] / errs[1] < 4.5

    @PROPERTY
    @given(st.integers(4, 40), seeds)
    def test_gradient_divergence_adjoint(self, n, seed):
        # <grad u, v> = -<u, div v> in the midpoint inner product
        rng = np.random.default_rng(seed)
        grid = TorusGrid(n)
        u, v1, v2 = rng.standard_normal((3, n, n))
        g1, g2 = gridmod.periodic_gradient(u, grid)
        lhs = gridmod.integral(g1 * v1 + g2 * v2, grid)
        rhs = -gridmod.integral(u * gridmod.periodic_divergence(v1, v2, grid), grid)
        scale = np.sqrt(np.sum(g1**2 + g2**2) * np.sum(v1**2 + v2**2)) * grid.cell_area
        assert abs(lhs - rhs) <= 1e-12 * scale

    @PROPERTY
    @given(st.integers(1, 40), seeds)
    @example(1, 0)
    @example(2, 0)
    @example(3, 0)
    @example(39, 0)
    def test_stencils_match_rolled_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-8, 9)
        h = 1.0 / n
        got = (gridmod._dx(values, 0, h), gridmod._dx(values, 1, h),
               *gridmod.second_differences(values, h))
        for a, b in zip(got, rolled_differences(values, h)):
            assert same_bits(a, b)

    def test_perp_gradient_is_divergence_free(self):
        # centered stencils commute, so the rotated gradient has exactly
        # zero discrete divergence; the transport scheme leans on this
        grid = TorusGrid(32)
        g1, g2 = gridmod.periodic_gradient(trig_field(grid), grid)
        div = gridmod.periodic_divergence(g2, -g1, grid)
        assert np.max(np.abs(div)) <= 1e-10

    def test_second_differences_discrete_eigenvalue(self):
        grid = TorusGrid(32)
        h = grid.spacing
        x1, x2 = grid.centers()
        f = np.cos(TWO_PI * x1)
        f11, f12, f22 = gridmod.second_differences(f, h)
        eig = 2.0 * (np.cos(TWO_PI * h) - 1.0) / h**2
        assert np.max(np.abs(f11 - eig * f)) <= 1e-11
        assert np.max(np.abs(f22)) <= 1e-11
        assert np.max(np.abs(f12)) <= 1e-11

    def test_second_differences_mixed_eigenvalue(self):
        grid = TorusGrid(32)
        h = grid.spacing
        x1, x2 = grid.centers()
        f = np.cos(TWO_PI * x1) * np.cos(TWO_PI * x2)
        _, f12, _ = gridmod.second_differences(f, h)
        factor = (np.sin(TWO_PI * h) / h) ** 2
        expected = factor * np.sin(TWO_PI * x1) * np.sin(TWO_PI * x2)
        assert np.max(np.abs(f12 - expected)) <= 1e-11

    @pytest.mark.parametrize("n", [8, 9])
    def test_spectral_inverse_inverts_constant_coefficients(self, n, rng):
        c11, c12, c22 = 1.3, -0.4, 0.8
        u = gridmod.mean_zero(rng.standard_normal((n, n)))
        f11, f12, f22 = gridmod.second_differences(u, 1.0 / n)
        r = c11 * f11 + 2.0 * c12 * f12 + c22 * f22 + 5.0  # mean is dropped
        back = gridmod.spectral_inverse(c11, c12, c22, n)(r)
        assert np.max(np.abs(back - u)) <= 1e-12 * np.max(np.abs(u))
        # trace scaling is exact on constant coefficient fields
        inv_t, inverse = gridmod.trace_scaled_inverse(
            *(np.full((n, n), c) for c in (c11, c12, c22)))
        assert np.all(inv_t == 2.0 / (c11 + c22))
        back = inverse(r * inv_t)
        assert np.max(np.abs(back - u)) <= 1e-12 * np.max(np.abs(u))


class TestQuadrature:
    def test_integral_and_mean(self):
        assert gridmod.integral(np.full((8, 8), 3.0),
                                TorusGrid(8)) == pytest.approx(3.0)

    def test_mean_zero(self, rng):
        vals = rng.standard_normal((8, 8)) + 5.0
        out = gridmod.mean_zero(vals)
        assert abs(np.mean(out)) <= 1e-14


class TestSampling:
    def test_exact_at_cell_centers(self, rng):
        grid = TorusGrid(16)
        vals = rng.standard_normal((16, 16))
        x1, x2 = grid.centers()
        pts = np.stack([x1, x2], axis=-1)
        out = gridmod.sample_bilinear(vals, pts, grid)
        assert np.max(np.abs(out - vals)) <= 1e-13

    @PROPERTY
    @given(st.integers(4, 40), seeds, st.floats(1e-3, 1e3))
    def test_convex_combination_bounds(self, n, seed, scale):
        # anywhere in the plane, seam and far copies included
        rng = np.random.default_rng(seed)
        vals = scale * rng.standard_normal((n, n))
        pts = rng.uniform(-3.0, 4.0, (300, 2))
        pts[:20] = rng.integers(-3, 4, (20, 2))  # exactly on the seam
        out = gridmod.sample_bilinear(vals, pts, TorusGrid(n))
        slack = 1e-14 * np.max(np.abs(vals))
        assert np.min(out) >= vals.min() - slack
        assert np.max(out) <= vals.max() + slack

    def test_linear_reproduction_away_from_seam(self, rng):
        grid = TorusGrid(32)
        x1, x2 = grid.centers()
        vals = 0.3 + 1.7 * x1 - 0.9 * x2
        pts = 0.1 + 0.8 * rng.random((100, 2))
        out = gridmod.sample_bilinear(vals, pts, grid)
        expected = 0.3 + 1.7 * pts[:, 0] - 0.9 * pts[:, 1]
        assert np.max(np.abs(out - expected)) <= 1e-12

    @staticmethod
    def map_coordinates(values, pts, n):
        # the scipy.ndimage call sample_bilinear replaces, as the reference
        c = pts * n - 0.5
        out = ndimage.map_coordinates(
            values, np.stack([c[..., 0].ravel(), c[..., 1].ravel()]),
            order=1, mode="grid-wrap")
        return out.reshape(pts.shape[:-1])

    @staticmethod
    def oracle_points(n, rng):
        k = np.arange(-3 * 2 * n, 4 * 2 * n)
        lines = k / (2 * n)  # cell centres and cell edges, +-3 periods
        near = np.concatenate([lines, lines + 1e-18, lines - 1e-18,
                               np.nextafter(lines, np.inf),
                               np.nextafter(lines, -np.inf)])
        edges = np.array([-1e-20, 1.0, 1.0 - 1e-17, 0.0, -0.0, 3.0, -3.0,
                          1e-20, 3.0 - 1e-16, -3.0 + 1e-16])
        xs = np.concatenate([near, edges, rng.uniform(-3.0, 4.0, 500)])
        ys = rng.permutation(xs)
        return np.concatenate([np.stack([xs, ys], axis=-1),
                               np.stack([ys, xs], axis=-1),
                               np.stack([xs, xs], axis=-1)])

    @pytest.mark.parametrize("n", [5, 16, 33])
    def test_equals_map_coordinates_bitwise(self, n, rng):
        pts = self.oracle_points(n, rng)
        grid = TorusGrid(n)
        centres = np.stack(grid.centers(), axis=-1)
        for vals in (rng.standard_normal((n, n)), -np.zeros((n, n)),
                     np.where(rng.random((n, n)) < 0.5, -0.0, 1e-300)):
            out = gridmod.sample_bilinear(vals, pts, grid)
            assert same_bits(out, self.map_coordinates(vals, pts, n))
            assert same_bits(gridmod.sample_bilinear(vals, centres, grid),
                             self.map_coordinates(vals, centres, n))
        # ndimage returns +0.0 on an all-(-0.0) field
        zero = gridmod.sample_bilinear(-np.zeros((n, n)), pts, grid)
        assert not np.any(np.signbit(zero))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_point_rejected(self, bad):
        grid = TorusGrid(8)
        vals = np.ones((8, 8))
        pts = np.full((3, 2), 0.25)
        pts[1, 1] = bad
        with pytest.raises(ValueError, match="not finite"):
            gridmod.sample_bilinear(vals, pts, grid)
        with pytest.raises(ValueError, match="not finite"):
            gridmod.sample_vector_bilinear(vals, vals, pts, grid)

    def test_vector_sampling_matches_componentwise(self, rng):
        grid = TorusGrid(16)
        v1, v2 = rng.standard_normal((2, 16, 16))
        pts = rng.random((50, 2))
        s1, s2 = gridmod.sample_vector_bilinear(v1, v2, pts, grid)
        assert np.array_equal(s1, gridmod.sample_bilinear(v1, pts, grid))
        assert np.array_equal(s2, gridmod.sample_bilinear(v2, pts, grid))


@pytest.mark.parametrize("n", [5, 7, 33])
@pytest.mark.parametrize("density", [0.05, 0.3, 0.7])
def test_dilate_equals_maximum_filter(n, density, rng):
    mask = rng.random((n, n)) < density
    mask[0, 0] = mask[n - 1, n // 2] = True  # members on the seam
    assert np.array_equal(gridmod.dilate(mask),
                          ndimage.maximum_filter(mask, size=3, mode="wrap"))


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (5, 4), (16, 16)])
def test_wrap_pad_equals_np_pad(shape, rng):
    values = rng.standard_normal(shape)
    values.flat[0] = -0.0
    assert same_bits(gridmod.wrap_pad(values),
                     np.pad(values, 1, mode="wrap"))


class TestDisplacement:
    def test_components_wrapped_to_shortest(self):
        grid = TorusGrid(8)
        d = PeriodicDisplacement(grid, np.full((8, 8), 0.75), np.zeros((8, 8)))
        assert np.allclose(d.d1, -0.25)
        assert d.sup_norm() <= gridmod.MAX_DISPLACEMENT_NORM

    def test_sup_norm_is_max_of_norm(self, rng):
        # the bound check's sup is kept; -0.5 is the wrapped edge
        grid = TorusGrid(8)
        d1, d2 = rng.uniform(-0.5, 0.5, (2, 8, 8))
        d1[0, :3] = -0.5
        d2[1:3, 4] = -0.5
        d2[0, 0] = -0.5
        d = PeriodicDisplacement(grid, d1, d2)
        assert d.d1[0, 0] == d.d2[0, 0] == -0.5
        assert d.sup_norm() == float(np.max(d.norm()))

    def test_apply_wraps_targets(self):
        grid = TorusGrid(8)
        d = PeriodicDisplacement(grid, np.full((8, 8), 0.4), np.zeros((8, 8)))
        pts = d.apply()
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)
        x1, _ = grid.centers()
        assert np.allclose(pts[..., 0], (x1 + 0.4) % 1.0)

    def test_nonfinite_component_is_typed_error(self):
        grid = TorusGrid(8)
        d1 = np.zeros((8, 8))
        d1[2, 3] = np.nan
        with pytest.raises(InvariantViolation) as exc:
            PeriodicDisplacement(grid, d1, np.zeros((8, 8)))
        assert exc.value.name == "displacement_bound"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("component", [0, 1])
    def test_nonfinite_anywhere_is_typed_error(self, rng, bad, component):
        grid = TorusGrid(8)
        d = rng.uniform(-0.5, 0.5, (2, 8, 8))
        d[component, 5, 1] = bad
        with pytest.raises(InvariantViolation) as exc, \
                np.errstate(invalid="ignore"):  # the wrap of inf is NaN
            PeriodicDisplacement(grid, *d)
        assert exc.value.name == "displacement_bound"

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 2.0**-30, 1e-12])
    def test_sup_norm_bits_of_full_hypot(self, scale):
        grid = TorusGrid(32)
        for seed in range(4):
            d1, d2 = np.random.default_rng(seed).uniform(-0.5, 0.5,
                                                         (2, 32, 32)) * scale
            d = PeriodicDisplacement(grid, d1, d2)
            assert same_bits(d.sup_norm(), np.max(np.hypot(d.d1, d.d2)))

    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e-150, 1e-160, 1e-170,
                                       1e-300, 5e-324, 0.0])
    def test_max_norm_bits_at_every_scale(self, scale):
        # from about 1e-154 on, the squares are subnormal or zero
        for seed in range(4):
            d1, d2 = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                                         (2, 16, 16)) * scale
            assert same_bits(gridmod._max_norm(d1, d2),
                             np.max(np.hypot(d1, d2)))

    def test_max_norm_bits_with_subnormal_squares_below_the_top(self, rng):
        d1, d2 = rng.uniform(-1.0, 1.0, (2, 16, 16)) * 1e-160
        d1[3, 4], d2[3, 4] = 0.3, -0.2
        assert same_bits(gridmod._max_norm(d1, d2), np.hypot(0.3, -0.2))

    @pytest.mark.parametrize("larger, smaller", [
        ((0.2999999999999834, 0.3999999999999834),
         (0.29999999999998345, 0.39999999999998337)),
        ((5.0000914527397195e-161, 3.8640685412069714e-162),
         (4.6492540693813e-161, 1.879726841880245e-161))])
    def test_max_norm_where_rounded_squares_invert_the_order(self, larger,
                                                            smaller):
        # the cell of the larger hypot has the smaller rounded square
        d1, d2 = np.zeros((2, 4, 4))
        (d1[1, 2], d2[1, 2]), (d1[3, 0], d2[3, 0]) = larger, smaller
        assert d1[1, 2]**2 + d2[1, 2]**2 < d1[3, 0]**2 + d2[3, 0]**2
        assert same_bits(gridmod._max_norm(d1, d2), np.hypot(*larger))
        assert np.hypot(*larger) > np.hypot(*smaller)

    def test_max_norm_bits_on_ties_and_near_ties(self, rng):
        d1, d2 = rng.uniform(-0.25, 0.25, (2, 16, 16))
        # equal norms at several cells, and norms a few ulps apart whose
        # squares round alike
        top = [(0.3, 0.4), (0.4, 0.3), (-0.3, 0.4), (0.4, -0.3)]
        for k, (a, b) in enumerate(top):
            d1[k, 0], d2[k, 0] = a, b
        for k in range(8):
            d1[k, 1] = np.nextafter(0.3, 1.0) if k % 2 else 0.3
            d2[k, 1] = 0.4 + (k - 4) * np.spacing(0.4)
        assert same_bits(gridmod._max_norm(d1, d2), np.max(np.hypot(d1, d2)))
        grid = TorusGrid(16)
        d = PeriodicDisplacement(grid, d1, d2)
        assert same_bits(d.sup_norm(), np.max(d.norm()))


def field_to_csv_string(field):
    """The density-file CSV layout: header i,j,value, then one row per
    cell in row-major order with repr floats."""
    rows = [f"{i},{j},{float(v)!r}\n"
            for (i, j), v in np.ndenumerate(field.values)]
    return "i,j,value\n" + "".join(rows)


class TestSerialization:
    def test_binary_roundtrip(self, tmp_path, rng):
        values = rng.standard_normal((16, 16))
        path = tmp_path / "field.bin"
        gridmod.field_to_binary(values, path)
        back = gridmod.field_from_binary(path)
        assert back.grid.n == 16
        assert np.array_equal(back.values, values)

    def test_binary_truncated_raises(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(np.array([8.0, 1.0, 2.0], dtype="<f8").tobytes())
        with pytest.raises(ValueError):
            gridmod.field_from_binary(path)

    def test_csv_roundtrip_full_precision(self, tmp_path, rng):
        grid = TorusGrid(8)
        field = TorusField(grid, rng.standard_normal((8, 8)) / 3.0)
        path = tmp_path / "field.csv"
        path.write_text(field_to_csv_string(field))
        back = gridmod.field_from_csv(path)
        assert np.array_equal(back.values, field.values)

    def test_csv_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("a,b,c\n0,0,1.0\n")
        with pytest.raises(ValueError):
            gridmod.field_from_csv(path)
