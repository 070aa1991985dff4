import dataclasses
import types

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from sgtorus import grid as gridmod
from sgtorus import lma, presets
from sgtorus.errors import GridMismatch, IndefiniteOperator, SolverStall
from sgtorus.grid import TorusGrid, periodic_gradient
from sgtorus.krylov import cg, dot, norm
from sgtorus.lma import (
    DivergenceFormOperator,
    apply_stencil,
    boundary_ring,
    green_function,
    green_integrability_report,
    level_set_decay,
    solve_dirichlet_lma,
    solve_periodic_lma,
    stencil_rows,
)
from sgtorus.ma import CofactorField, cofactor, solve_ma_periodic
from sgtorus.sections import extract_section

TWO_PI = 2.0 * np.pi


def identity_cofactor(grid):
    one = np.ones((grid.n, grid.n))
    return CofactorField(one, np.zeros_like(one), one.copy())


def identity_operator(n):
    grid = TorusGrid(n)
    return grid, DivergenceFormOperator(grid, identity_cofactor(grid))


class TestOperator:
    def test_identity_coefficients_give_five_point_laplacian(self):
        grid, op = identity_operator(32)
        h = grid.spacing
        x1, _ = grid.centers()
        u = np.cos(TWO_PI * x1)
        # -div(grad u) for the face-flux stencil has the exact discrete
        # eigenvalue 2 (1 - cos(2 pi h)) / h^2 on this mode
        eig = 2.0 * (1.0 - np.cos(TWO_PI * h)) / h**2
        assert np.max(np.abs(op.apply(u) - eig * u)) <= 1e-10 * eig

    def test_annihilates_constants(self):
        _, op = identity_operator(16)
        assert np.max(np.abs(op.apply(np.full((16, 16), 7.0)))) <= 1e-12

    def test_symmetry_and_semidefiniteness(self, rng):
        grid = TorusGrid(32)
        pot = presets.perturbed_potential(grid)
        op = DivergenceFormOperator(grid, cofactor(pot))
        d = op.matrix - op.matrix.T
        assert d.nnz == 0 or np.max(np.abs(d.data)) == 0.0
        # semidefinite: seeded mean-zero probes have nonnegative Ritz
        # values, and the spectrum is the constants' roundoff-sized
        # eigenvalue followed by positive ones
        probes = rng.standard_normal((4, 32 * 32))
        probes -= probes.mean(axis=1, keepdims=True)
        for x in probes:
            assert x @ (op.matrix @ x) / (x @ x) >= -1e-12
        eig = np.linalg.eigvalsh(op.matrix.toarray())
        assert abs(eig[0]) <= 1e-12 * eig[-1]
        assert eig[1] > 0.0
        u, v = rng.standard_normal((2, 32, 32))
        lhs = np.sum(v * op.apply(u))
        rhs = np.sum(u * op.apply(v))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)

    def test_rejects_indefinite_coefficients(self):
        # positive definiteness is checked where the coefficients are
        # made, so no operator or residual path checks it again
        c11 = np.ones((16, 16))
        c22 = np.ones((16, 16))
        c12 = np.full((16, 16), 1.5)  # det = 1 - 2.25 < 0
        with pytest.raises(IndefiniteOperator):
            CofactorField(c11, c12, c22)

    @pytest.mark.parametrize("entry", ["c11", "c12", "c22"])
    def test_rejects_nan_coefficients(self, entry):
        one = np.ones((8, 8))
        coeffs = {"c11": one, "c12": np.zeros((8, 8)), "c22": one.copy()}
        coeffs[entry] = coeffs[entry].copy()
        coeffs[entry][3, 5] = np.nan
        with pytest.raises(IndefiniteOperator):
            CofactorField(**coeffs)

    @pytest.mark.parametrize("shapes", [((8, 8), (8, 8), (8, 9)),
                                        ((8, 9), (8, 9), (8, 9)),
                                        ((64,), (64,), (64,))],
                             ids=["unequal", "rectangle", "flat"])
    def test_rejects_coefficients_of_no_square_grid(self, shapes):
        with pytest.raises(GridMismatch):
            CofactorField(*(np.ones(s) for s in shapes))

    def test_divergence_of_rotated_gradient_vanishes(self):
        grid, op = identity_operator(32)
        x1, x2 = grid.centers()
        q = 0.1 * np.cos(TWO_PI * x1) * np.sin(TWO_PI * x2)
        g1, g2 = periodic_gradient(q, grid)
        div = op.divergence_rhs(g2, -g1)
        assert np.max(np.abs(div)) <= 1e-10


def pinched_potential(grid):
    # two-bump density at pinch 2500 before the mass normalization
    rho, lam, Lam = presets.two_bump_density(grid, lo=0.02, hi=50.0)
    return solve_ma_periodic(rho, lam=lam, Lam=Lam)


def rough_flux(grid):
    # bounded and discontinuous, the flux of the paper's estimate
    x1, x2 = grid.centers()
    return (np.sign(np.sin(TWO_PI * (3.0 * x1 + 2.0 * x2))),
            (x1 + x2 / 2.0 < 0.62).astype(float))


class TestPeriodicSolve:
    @pytest.mark.parametrize("potential", [
        lambda grid: presets.perturbed_potential(grid),
        pinched_potential,
    ], ids=["perturbed", "pinch-2500"])
    def test_manufactured_solution(self, potential, rng):
        grid = TorusGrid(32)
        pot = potential(grid)
        op = DivergenceFormOperator(grid, cofactor(pot))
        u_true = 0.3 * np.cos(TWO_PI * grid.centers()[0])
        u_true -= u_true.mean()
        rhs = op.apply(u_true)
        u = op.solve(rhs, tol=1e-12)
        assert np.max(np.abs(u - u_true)) <= 1e-8

    def test_flux_form_entry_point(self):
        grid = TorusGrid(32)
        pot = presets.perturbed_potential(grid)
        x1, x2 = grid.centers()
        F = (np.sin(TWO_PI * x1), np.cos(TWO_PI * x2))
        u, info = solve_periodic_lma(cofactor(pot), F, grid, tol=1e-12)
        assert abs(np.mean(u)) <= 1e-12
        assert info["relative_residual"] <= 1e-10

    def test_pinched_rough_flux_cg_count(self, monkeypatch):
        # the trace-scaled preconditioner took 38 CG iterations here, the
        # mean-coefficient one 89
        grid = TorusGrid(64)
        iters = []

        def counted_cg(*args, **kwargs):
            x, k, converged = cg(*args, **kwargs)
            iters.append(k)
            return x, k, converged

        cof = cofactor(pinched_potential(grid))
        monkeypatch.setattr(lma, "cg", counted_cg)
        _, info = solve_periodic_lma(cof, rough_flux(grid), grid)
        assert info["relative_residual"] <= 1e-8
        assert len(iters) == 1 and iters[0] <= 50

    def test_unreachable_tolerance_stalls(self, rng):
        grid, op = identity_operator(16)
        rhs = op.apply(rng.standard_normal((16, 16)))
        with pytest.raises(SolverStall):
            op.solve(rhs, tol=1e-300)


@pytest.fixture(scope="module")
def problem():
    grid = TorusGrid(64)
    pot = presets.perturbed_potential(grid)
    sec = extract_section(pot, (0.5, 0.5), 0.04)
    return grid, pot, sec


@pytest.fixture(scope="module")
def green():
    grid = TorusGrid(64)
    pot = presets.quadratic_potential(grid)
    sec = extract_section(pot, (0.5, 0.5), 0.02)
    g = green_function(cofactor(pot), sec.mask, sec.center_index, grid)
    return grid, sec, g


class TestDirichletSolve:

    def test_boundary_data_reproduced_and_max_principle(self, problem):
        grid, pot, sec = problem
        x1, x2 = grid.centers()
        bdata = np.cos(TWO_PI * x1) * np.sin(TWO_PI * x2)
        u, info = solve_dirichlet_lma(cofactor(pot), sec.mask, grid,
                                      boundary_values=bdata, tol=1e-12)
        assert info["relative_residual"] <= 1e-10
        ring = boundary_ring(sec.mask)
        assert np.array_equal(u[ring], bdata[ring])
        # no interior source: interior values sit inside the boundary range
        assert u[sec.mask].max() <= bdata[ring].max() + 1e-10
        assert u[sec.mask].min() >= bdata[ring].min() - 1e-10

    def test_zero_data_zero_solution(self, problem):
        grid, pot, sec = problem
        u, _ = solve_dirichlet_lma(cofactor(pot), sec.mask, grid, tol=1e-12)
        assert np.max(np.abs(u)) == 0.0

    def test_flux_drives_nonzero_solution(self, problem):
        grid, pot, sec = problem
        x1, x2 = grid.centers()
        u, info = solve_dirichlet_lma(
            cofactor(pot), sec.mask, grid,
            F=(np.sin(TWO_PI * x2), np.cos(TWO_PI * x1)), tol=1e-12,
        )
        assert info["cells"] == sec.n_cells
        assert np.max(np.abs(u[sec.mask])) > 0.0
        assert np.all(u[~sec.mask & ~boundary_ring(sec.mask)] == 0.0)


def foreign_operator(pot, sec, case):
    """A masked operator built on another mask, or on a grid of another N,
    than S = sec of pot on the N=64 grid."""
    if case == "mask":
        other = np.roll(sec.mask, 1, axis=0)
        return DivergenceFormOperator(pot.grid, cofactor(pot), mask=other)
    grid = TorusGrid(32)
    other = extract_section(presets.perturbed_potential(grid), (0.5, 0.5),
                            0.04)
    return DivergenceFormOperator(grid, identity_cofactor(grid),
                                  mask=other.mask)


class TestForeignOperator:
    """A passed operator must be the masked operator of the same grid and
    mask: its cells give the right-hand side, the mask the ring and the
    result."""

    @pytest.mark.parametrize("case", ["mask", "n"])
    def test_dirichlet_solve_rejects_it(self, problem, case):
        grid, pot, sec = problem
        op = foreign_operator(pot, sec, case)
        with pytest.raises(GridMismatch):
            solve_dirichlet_lma(cofactor(pot), sec.mask, grid,
                                boundary_values=np.ones((64, 64)),
                                operator=op)

    @pytest.mark.parametrize("case", ["mask", "n"])
    def test_green_function_rejects_it(self, problem, case):
        grid, pot, sec = problem
        op = foreign_operator(pot, sec, case)
        with pytest.raises(GridMismatch):
            green_function(cofactor(pot), sec.mask, sec.center_index, grid,
                           operator=op)

    def test_equal_mask_copy_is_accepted(self, problem):
        grid, pot, sec = problem
        op = DivergenceFormOperator(grid, cofactor(pot), mask=sec.mask.copy())
        g = green_function(cofactor(pot), sec.mask, sec.center_index, grid,
                           operator=op)
        assert g.mask is sec.mask
        assert g.values[sec.center_index] == g.max_value()


class TestGreenFunction:
    def test_positive_inside_zero_outside(self, green):
        _, sec, g = green
        inside = sec.mask.copy()
        inside[sec.center_index] = False
        assert np.all(g.values[inside] > 0.0)
        assert np.all(g.values[~sec.mask] == 0.0)

    def test_peak_at_pole(self, green):
        _, sec, g = green
        assert g.values[sec.center_index] == g.max_value()

    def test_symmetry_of_source_and_observer(self, green):
        grid, sec, g = green
        other = (sec.center_index[0] + 3, sec.center_index[1] - 2)
        g2 = green_function(cofactor(presets.quadratic_potential(grid)),
                            sec.mask, other, grid)
        a = g.values[other]
        b = g2.values[sec.center_index]
        assert abs(a - b) <= 1e-10 * max(a, 1.0)

    def test_mass_scales_linearly_in_height(self):
        grid = TorusGrid(64)
        pot = presets.quadratic_potential(grid)
        masses = []
        for h in (0.02, 0.01):
            sec = extract_section(pot, (0.5, 0.5), h)
            g = green_function(cofactor(pot), sec.mask, sec.center_index,
                               grid)
            masses.append(g.integral_p(1.0))
        assert 1.5 < masses[0] / masses[1] < 2.6

    def test_level_area_decreases(self, green):
        _, _, g = green
        taus = np.linspace(0.1, 0.9, 5) * g.max_value()
        areas = [g.level_area(t) for t in taus]
        assert all(a >= b for a, b in zip(areas, areas[1:]))

    def test_level_set_decay_is_exponential(self, green):
        _, _, g = green
        fit = level_set_decay(g)
        assert fit["tau0"] > 0.0
        assert fit["r2"] >= 0.9

    def test_report_slope_and_certificates(self):
        grid = TorusGrid(64)
        pot = presets.quadratic_potential(grid)
        rep = green_integrability_report(pot, (0.5, 0.5),
                                         [0.02, 0.01, 0.005, 0.0025],
                                         ps=(1.0,), kappas=(0.2,))
        slope = next(r["slope"] for r in rep["rows"] if r["p"] == 1.0)
        assert slope == pytest.approx(1.0, abs=0.25)
        assert rep["symmetry_defect"] <= 1e-10
        assert rep["positivity_floor"] > 0.0
        grads = [r["norm"] for r in rep["rows"] if r["kappa"] == 0.2]
        assert all(n > 0 for n in grads)

    def test_gradient_norms_are_the_written_out_formula(self, green):
        grid, sec, g = green
        g1, g2 = periodic_gradient(g.values, grid)
        mag = np.hypot(g1[sec.mask], g2[sec.mask])
        for kappa in (0.1, 0.2):
            p = 1.0 + kappa
            assert g.gradient_norm(kappa) == \
                float(np.sum(mag**p) * grid.cell_area) ** (1.0 / p)

    def test_report_takes_one_gradient_per_green_function(self, monkeypatch):
        grid = TorusGrid(32)
        pot = presets.quadratic_potential(grid)
        calls = []

        def counted_gradient(f, grid):
            calls.append(f)
            return periodic_gradient(f, grid)

        monkeypatch.setattr(gridmod, "periodic_gradient", counted_gradient)
        green_integrability_report(pot, (0.5, 0.5), [0.04, 0.02, 0.01],
                                   kappas=(0.1, 0.2))
        assert len(calls) == 3


class TestBoundaryRing:
    def test_ring_is_disjoint_and_adjacent(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[5:9, 6:10] = True
        ring = boundary_ring(mask)
        assert not np.any(ring & mask)
        # 4x4 block dilates to 6x6, leaving a 20-cell 8-connected ring
        assert np.count_nonzero(ring) == 20

    def test_ring_wraps_across_seam(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[5:9, 0:2] = True  # touches column 0
        ring = boundary_ring(mask)
        # the ring of a translate is the translate of the ring
        assert np.array_equal(np.roll(ring, 4, axis=1),
                              boundary_ring(np.roll(mask, 4, axis=1)))
        assert np.count_nonzero(ring) == 16
        assert np.all(ring[4:10, 15])

    def test_seam_section_keeps_maximum_principle(self):
        # regression: a non-periodic ring dropped the ring cells across
        # the seam and held them at 0, so one-signed boundary data broke
        # the maximum principle (InvariantViolation "maximum_principle")
        grid = TorusGrid(64)
        rho, lam, Lam = presets.two_bump_density(grid)
        pot = solve_ma_periodic(rho, lam=lam, Lam=Lam)
        sec = extract_section(pot, (0.3, 0.98), 0.02)
        assert sec.mask[:, 0].any() and sec.mask[:, -1].any()
        _, x2 = grid.centers()
        bdata = -(0.1 + 0.05 * np.cos(TWO_PI * x2))
        u, info = solve_dirichlet_lma(cofactor(pot), sec.mask, grid,
                                      boundary_values=bdata, tol=1e-12)
        assert info["relative_residual"] <= 1e-10
        ring = boundary_ring(sec.mask)
        assert np.array_equal(u[ring], bdata[ring])
        assert bdata[ring].min() <= u[sec.mask].min()
        assert u[sec.mask].max() <= bdata[ring].max()


@pytest.fixture(scope="module")
def two_bump():
    grid = TorusGrid(64)
    rho, lam, Lam = presets.two_bump_density(grid)
    pot = solve_ma_periodic(rho, lam=lam, Lam=Lam)
    return grid, pot, cofactor(pot)


def assert_same_csr(a, b):
    """The same (row, column, value bits) entries, whatever order each
    row stores its columns in."""
    assert a.shape == b.shape
    a, b = a.sorted_indices(), b.sorted_indices()
    assert np.array_equal(a.data.view(np.int64), b.data.view(np.int64))
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.indptr, b.indptr)


def rolled_rows(grid, c11, c12, c22):
    """Test oracle of stencil_rows: the whole periodic 9-point matrix, its
    weights computed on the whole grid with rolls and assembled through
    COO, whose conversion sorts each row's columns."""
    n, h = grid.n, grid.spacing

    def at(a, di, dj):  # a at (i + di, j + dj)
        return np.roll(a, (-di, -dj), (0, 1))

    wx = 2.0 * c11 * at(c11, 1, 0) / (c11 + at(c11, 1, 0)) / h**2
    wy = 2.0 * c22 * at(c22, 0, 1) / (c22 + at(c22, 0, 1)) / h**2
    wc = (c12 + at(c12, 1, 0) + at(c12, 0, 1) + at(c12, 1, 1)) / 4.0 / (2.0 * h**2)
    diag = (wx + at(wx, -1, 0) + wy + at(wy, 0, -1) + wc + at(wc, -1, -1)
            - at(wc, -1, 0) - at(wc, 0, -1))
    entries = {(0, 0): diag, (1, 0): -wx, (-1, 0): -at(wx, -1, 0),
               (0, 1): -wy, (0, -1): -at(wy, 0, -1), (1, 1): -wc,
               (-1, -1): -at(wc, -1, -1), (-1, 1): at(wc, -1, 0),
               (1, -1): at(wc, 0, -1)}
    ids = np.arange(n * n).reshape(n, n)
    rows = np.concatenate([ids.ravel()] * 9)
    cols = np.concatenate([at(ids, *o).ravel() for o in entries])
    data = np.concatenate([v.ravel() for v in entries.values()])
    return sparse.coo_matrix((data, (rows, cols)), shape=(n * n, n * n)).tocsr()


class TestRowAssembly:
    """Masked operators assemble only their own rows; the periodic
    operator's matrix is the bitwise reference."""

    @pytest.mark.parametrize("n", [4, 5, 16, 33])
    def test_rows_match_rolled_oracle(self, n):
        rng = np.random.default_rng(n)
        grid = TorusGrid(n)
        c11, c22 = 0.5 + rng.random((2, n, n))
        c12 = 0.4 * (rng.random((n, n)) - 0.5)
        cof = CofactorField(c11, c12, c22)
        oracle = rolled_rows(grid, c11, c12, c22)
        assert_same_csr(stencil_rows(grid, cof, np.arange(n * n)), oracle)
        # seam and corner cells among a random subset, in ascending order
        cells = np.union1d(rng.choice(n * n, n, replace=False),
                           [0, n - 1, n * (n - 1), n * n - 1])
        assert_same_csr(stencil_rows(grid, cof, cells),
                        oracle[cells])

    @pytest.mark.parametrize("n", [4, 5, 16, 33])
    def test_rows_store_columns_in_offset_order(self, n):
        grid = TorusGrid(n)
        # the four corners and a cell on each array seam
        cells = np.array([0, n - 1, n * (n - 1), n * n - 1, n // 2,
                          n * (n // 2)])
        columns = stencil_rows(grid, identity_cofactor(grid),
                               cells).indices.reshape(-1, 9)
        i, j = np.divmod(cells, n)
        expected = np.stack([(i + di) % n * n + (j + dj) % n
                             for di, dj in lma._OFFSETS], axis=-1)
        assert np.array_equal(columns, expected)
        if n == 4:  # cell (0, 0): its neighbours wrap over both seams
            assert list(columns[0]) == [15, 12, 13, 3, 0, 1, 7, 4, 5]

    @pytest.mark.parametrize("n", [4, 5, 16, 33])
    def test_applied_stencil_is_row_product(self, n):
        # the bitwise guard between the two weight paths: apply_stencil
        # reads whole-grid weight views (_grid_weights), stencil_rows
        # gathers each cell's neighbourhood (_cell_weights)
        rng = np.random.default_rng(n)
        grid = TorusGrid(n)
        c11, c22 = 0.5 + rng.random((2, n, n))
        c12 = 0.4 * (rng.random((n, n)) - 0.5)
        cof = CofactorField(c11, c12, c22)
        u = rng.standard_normal((n, n))
        product = stencil_rows(grid, cof, np.arange(n * n)) @ u.ravel()
        assert np.array_equal(apply_stencil(grid, cof, u),
                              product.reshape(n, n))

    def test_two_bump_applied_stencil_is_row_product(self, two_bump, rng):
        grid, pot, cof = two_bump
        u = rng.standard_normal((grid.n, grid.n))
        product = stencil_rows(grid, cof, np.arange(grid.n**2)) @ u.ravel()
        assert np.array_equal(apply_stencil(grid, cof, u),
                              product.reshape(grid.n, grid.n))

    @pytest.mark.parametrize("n", [4, 5, 16, 33])
    def test_every_cell_out_of_order_matches_rolled_oracle(self, n):
        # rows come out in the order the cells are given, each gathered
        # from its own neighbourhood, seam cells included
        rng = np.random.default_rng(n)
        grid = TorusGrid(n)
        c11, c22 = 0.5 + rng.random((2, n, n))
        c12 = 0.4 * (rng.random((n, n)) - 0.5)
        cells = rng.permutation(n * n)
        cof = CofactorField(c11, c12, c22)
        assert_same_csr(stencil_rows(grid, cof, cells),
                        rolled_rows(grid, c11, c12, c22)[cells])

    @pytest.mark.parametrize("shape", [(10, 10), (64,), (8, 9)],
                             ids=["larger-grid", "flat", "rectangle"])
    def test_applied_stencil_on_other_grid_is_grid_mismatch(self, shape):
        grid = TorusGrid(8)
        with pytest.raises(GridMismatch):
            apply_stencil(grid, identity_cofactor(grid), np.ones(shape))

    @pytest.mark.parametrize("wrong", ["c11", "c12", "c22"])
    @pytest.mark.parametrize("shape", [(10, 10), (8, 9)],
                             ids=["larger-grid", "rectangle"])
    def test_coefficients_of_other_shape_are_grid_mismatch(self, wrong,
                                                           shape):
        # a field holds one square shape: no entry of another shape gets
        # in, not even through replace, which runs the check again
        cof = identity_cofactor(TorusGrid(8))
        with pytest.raises(GridMismatch):
            dataclasses.replace(
                cof, **{wrong: np.full(shape, 0.5 if wrong != "c12" else 0.0)})

    def test_field_of_other_grid_is_grid_mismatch(self):
        grid = TorusGrid(8)
        cof = identity_cofactor(TorusGrid(10))
        with pytest.raises(GridMismatch):
            stencil_rows(grid, cof, np.array([0, 9, 63]))
        with pytest.raises(GridMismatch):
            apply_stencil(grid, cof, np.ones((8, 8)))

    def test_two_bump_rows_match_rolled_oracle(self, two_bump):
        grid, pot, cof = two_bump
        assert_same_csr(DivergenceFormOperator(grid, cof).matrix,
                        rolled_rows(grid, cof.c11, cof.c12, cof.c22))

    @pytest.mark.parametrize("center", [(0.3, 0.3), (0.3, 0.98)],
                             ids=["interior", "seam"])
    def test_masked_matrix_is_periodic_submatrix(self, two_bump, center):
        grid, pot, cof = two_bump
        sec = extract_section(pot, center, 0.02)
        op = DivergenceFormOperator(grid, cof, mask=sec.mask)
        full = DivergenceFormOperator(grid, cof).matrix
        assert_same_csr(op.rows, full[op.cells])
        assert_same_csr(op.matrix, full[op.cells][:, op.cells])

    def test_masked_operator_reads_only_its_neighbourhood(self, two_bump):
        # a masked operator is O(cells): a coefficient outside the 3 x 3
        # dilation of its section is never read, not even to be checked
        grid, pot, shared = two_bump
        # the potential's cofactor is read-only; this one has its own c11
        cof = CofactorField(shared.c11.copy(), shared.c12, shared.c22)
        sec = extract_section(pot, (0.3, 0.3), 0.02)
        first = DivergenceFormOperator(grid, cof, mask=sec.mask).matrix
        far = np.argwhere(~gridmod.dilate(sec.mask))[0]
        cof.c11[tuple(far)] = -1.0
        assert_same_csr(DivergenceFormOperator(grid, cof, mask=sec.mask).matrix,
                        first)

    def test_seam_lift_matches_periodic_rows(self, two_bump):
        grid, pot, cof = two_bump
        sec = extract_section(pot, (0.3, 0.98), 0.02)
        assert sec.mask[:, 0].any() and sec.mask[:, -1].any()
        _, x2 = grid.centers()
        bdata = -(0.1 + 0.05 * np.cos(TWO_PI * x2))
        op = DivergenceFormOperator(grid, cof, mask=sec.mask)
        u, _ = solve_dirichlet_lma(cof, sec.mask, grid, boundary_values=bdata,
                                   tol=1e-12, operator=op)
        ring = boundary_ring(sec.mask)
        bvals = np.where(ring, bdata, 0.0)
        full = DivergenceFormOperator(grid, cof).matrix
        lifted = op.solve(-(full[op.cells] @ bvals.ravel()), tol=1e-12)
        assert np.array_equal(u, np.where(ring, bvals, op.scatter(lifted)))


@pytest.fixture(scope="module")
def two_bump_128():
    """Cofactors at N=128 of the two-bump potentials at pinch 4 and 2500."""
    grid = TorusGrid(128)
    pots = {}
    for pinch in (4.0, 2500.0):
        rho, lam, Lam = presets.two_bump_density(grid, lo=pinch**-0.5,
                                                 hi=pinch**0.5)
        pots[pinch] = solve_ma_periodic(rho, lam=lam, Lam=Lam)
    return grid, pots


def solve_iterations(monkeypatch, op, b):
    """CG iterations of op.solve(b) at rtol 1e-12."""
    counts = []

    def counted_cg(*args, **kwargs):
        x, iters, converged = cg(*args, **kwargs)
        counts.append(iters)
        return x, iters, converged

    monkeypatch.setattr(lma, "cg", counted_cg)
    op.solve(b, tol=1e-12)
    return counts[-1]


def jacobi_iterations(op, b):
    """Test oracle: CG iterations at rtol 1e-12 with the diagonal
    (Jacobi) preconditioner."""
    diag = op.matrix.diagonal()
    _, iters, converged = cg(lambda v: op.matrix @ v, b, lambda v: v / diag,
                             1e-12, 10 * b.size)
    assert converged
    return iters


# interior section, one across both array seams, one at pinch 2500
MULTIGRID_SECTIONS = {"interior": (4.0, (0.3, 0.3)),
                      "seams": (4.0, (0.02, 0.98)),
                      "pinch2500": (2500.0, (0.99, 0.99))}


def rough_section(grid):
    """A coefficient that jumps by 100 across a circle, and a disc mask that
    crosses the jump: (a section-like mask and pole, the cofactor field).
    c11 = c22 = 100 on the disc of radius 0.2 around (0.4, 0.5) and 1
    outside, c12 = 0; the mask is the disc of radius 0.2 around
    (0.6, 0.5), with its pole at its middle cell."""
    x1, x2 = grid.centers()
    c = np.where(np.hypot(x1 - 0.4, x2 - 0.5) < 0.2, 100.0, 1.0)
    mask = np.hypot(x1 - 0.6, x2 - 0.5) < 0.2
    inside = np.argwhere(mask)
    sec = types.SimpleNamespace(mask=mask,
                                center_index=tuple(inside[len(inside) // 2]))
    return sec, CofactorField(c, np.zeros_like(c), c.copy())


class TestMultigrid:
    """The Dirichlet CG preconditioner is one aggregation V-cycle."""

    @pytest.fixture(scope="class", params=[*MULTIGRID_SECTIONS, "rough"])
    def section_op(self, request, two_bump_128):
        grid, pots = two_bump_128
        if request.param == "rough":
            sec, coeffs = rough_section(grid)
        else:
            pinch, center = MULTIGRID_SECTIONS[request.param]
            sec = extract_section(pots[pinch], center, 0.02)
            coeffs = cofactor(pots[pinch])
        op = DivergenceFormOperator(grid, coeffs, mask=sec.mask)
        return request.param, sec, op

    def test_vcycle_symmetric_and_positive(self, section_op):
        name, sec, op = section_op
        if name == "seams":
            for axis in (0, 1):
                edges = np.take(sec.mask, [0, -1], axis=axis)
                assert edges.any(axis=1 - axis).all()
        if name == "rough":
            jump = rough_section(op.grid)[1].c11[sec.mask]
            assert jump.min() == 1.0 and jump.max() == 100.0
        assert len(op.precondition.levels) >= 2
        rng = np.random.default_rng(1)
        for _ in range(4):
            x, y = rng.standard_normal((2, op.cells.size))
            mx, my = op.precondition(x), op.precondition(y)
            # relative to the Cauchy-Schwarz scale of the products
            assert abs(dot(mx, y) - dot(x, my)) <= 1e-14 * norm(mx) * norm(y)
            assert dot(mx, x) > 0.0

    def test_green_iterations_far_below_jacobi(self, section_op, monkeypatch):
        _, sec, op = section_op
        b = op.point_source(sec.center_index)
        assert 4 * solve_iterations(monkeypatch, op, b) <= jacobi_iterations(op, b)

    def test_solve_matches_direct_oracle(self, section_op, two_bump_128):
        _, sec, op = section_op
        grid, _ = two_bump_128
        x1, x2 = grid.centers()
        bdata = np.cos(TWO_PI * x1) * np.sin(TWO_PI * x2)
        F = (np.sin(TWO_PI * x2), np.cos(TWO_PI * x1))
        u, info = solve_dirichlet_lma(None, sec.mask, grid, F=F,
                                      boundary_values=bdata, tol=1e-12,
                                      operator=op)
        assert info["relative_residual"] <= 1e-12
        ring = boundary_ring(sec.mask)
        b = -op.divergence_rhs(*F) - op.rows @ np.where(ring, bdata, 0.0).ravel()
        oracle = spsolve(op.matrix.tocsc(), b)
        err = np.max(np.abs(u.ravel()[op.cells] - oracle))
        assert err <= 1e-10 * np.max(np.abs(oracle))

    def test_green_iterations_grow_slowly_in_n(self, monkeypatch):
        counts = []
        for n in (32, 64, 128):
            grid = TorusGrid(n)
            rho, lam, Lam = presets.two_bump_density(grid)
            pot = solve_ma_periodic(rho, lam=lam, Lam=Lam)
            sec = extract_section(pot, (0.3, 0.3), 0.08)
            op = DivergenceFormOperator(grid, cofactor(pot), mask=sec.mask)
            b = op.point_source(sec.center_index)
            counts.append(solve_iterations(monkeypatch, op, b))
        assert all(b <= 1.3 * a for a, b in zip(counts, counts[1:])), counts
        assert 4 * counts[-1] < jacobi_iterations(op, b)

    def test_weight_saves_iterations(self, two_bump_128, monkeypatch):
        # the interior h = 0.08 section: 36 CG iterations at (4/3)/rho_G,
        # 28 at the module's weight
        grid, pots = two_bump_128
        sec = extract_section(pots[4.0], (0.3, 0.3), 0.08)
        counts = []
        for weight in (lma.SMOOTHING, 4.0 / 3.0):
            monkeypatch.setattr(lma, "SMOOTHING", weight)
            op = DivergenceFormOperator(grid, cofactor(pots[4.0]),
                                        mask=sec.mask)
            b = op.point_source(sec.center_index)
            counts.append(solve_iterations(monkeypatch, op, b))
        assert counts[0] <= 0.85 * counts[1], counts

    def test_unreachable_tolerance_stalls(self):
        grid = TorusGrid(32)
        pot = presets.perturbed_potential(grid)
        sec = extract_section(pot, (0.5, 0.5), 0.04)
        op = DivergenceFormOperator(grid, cofactor(pot), mask=sec.mask)
        with pytest.raises(SolverStall):
            op.solve(op.point_source(sec.center_index), tol=1e-300)

    def test_coarsest_level_is_small_and_exact(self):
        # a mask of at most COARSEST_CELLS cells is solved directly
        grid = TorusGrid(16)
        mask = np.zeros((16, 16), dtype=bool)
        mask[3:9, 14:] = mask[3:9, :4] = True  # 48 cells across the seam
        op = DivergenceFormOperator(grid, identity_cofactor(grid), mask=mask)
        assert op.precondition.levels == []
        b = np.random.default_rng(2).standard_normal(op.cells.size)
        x = op.precondition(b)
        assert norm(op.matrix @ x - b) <= 1e-12 * norm(b)
