"""Divergence-form linearized Monge-Ampere operator and Green's functions.

The operator L u = -div(Phi grad u) is assembled from the discrete energy

    E(u, v) = sum_faces  Phi_f (Du)_f (Dv)_f h^2
            + sum_corners Phi12_c [(D1 u)(D2 v) + (D2 u)(D1 v)]_c h^2,

with harmonic face averages for the diagonal coefficients and arithmetic
corner averages for the off-diagonal one (a symmetric 9-point stencil).
The matrix is symmetric by construction, has exactly the constants in its
periodic kernel, and collapses to the standard 5-point Laplacian when
Phi is the identity.  Dirichlet problems live on a cell mask with the
one-cell ring outside held at zero (or at supplied boundary values).
Phi, a CofactorField, is positive definite by construction: assembly
checks only its N x N shape, and a masked operator costs O(cells).
Every operator and masked residual assembles only the rows it reads
(stencil_rows), each row's nine entries in _OFFSETS order and its
weights computed from the cell's own neighbourhood (_cell_weights); the
periodic residual of the time loop applies the stencil in that order
without assembling it (apply_stencil), from whole-grid weight arrays
in which each face and corner weight is computed once and read by its
rows as views (_grid_weights).  Both paths evaluate the same formulas
(_face, _corner, _row) on the same operands, so the applied stencil is
bit for bit the product with the assembled rows.  Both modes solve by
preconditioned CG with a preconditioner built once per operator:
periodic ones with the trace-scaled FFT inverse that the Newton update
of the Monge-Ampere solve also uses (grid.trace_scaled_inverse),
Dirichlet ones with one aggregation-multigrid V-cycle
(AggregationVCycle), so the CG iteration count grows only slowly with N
and the Green's-function ladders stay near linear in the number of
cells.  The V-cycle's damped-Jacobi sweeps have weight SMOOTHING = 1.8
over each level's Gershgorin bound of D^-1 A, which bounds the top of
its spectrum: omega lambda <= 1.8 < 2, so every sweep contracts in the
A-norm and the cycle is symmetric positive definite, as CG needs.

The rows are CSR matrices of scipy.sparse, imported inside _csr, the one
function that builds them: the time loop and the polar factorization
never assemble a matrix, so they and `import sgtorus` run on numpy
alone, and a process pays the scipy.sparse import only with its first
assembled operator.
"""

import dataclasses
import functools

import numpy as np

from . import grid as gridmod
from . import sections
from .errors import (
    GridMismatch,
    IndefiniteOperator,
    InvariantViolation,
    SolverStall,
)
from .fitting import PowerLawFit, linear_fit, loglog_fit
from .krylov import cg, dot, norm
from .ma import cofactor

DEFAULT_CG_TOL = 1e-10


# (di, dj) of the nine stencil entries of a row, in their stored order
_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
            (1, -1), (1, 0), (1, 1))


def _neighbours(n, cells):
    """{(di, dj): flat index of (i + di, j + dj)} for the cells (i, j)."""
    i, j = np.divmod(cells, n)
    rows = {d: (i + d) % n * n for d in (-1, 0, 1)}
    cols = {d: (j + d) % n for d in (-1, 0, 1)}
    return {(di, dj): rows[di] + cols[dj] for di, dj in _OFFSETS}


def _face(a, b, h):
    """Face weight: the harmonic mean of two diagonal coefficients / h^2."""
    return 2.0 * a * b / (a + b) / h**2


def _corner(a, b, c, d, h):
    """Corner weight: the mean of a 2x2 block's c12 / (2 h^2)."""
    return (a + b + c + d) / 4.0 / (2.0 * h**2)


def _row(wx_0, wx_m, wy_0, wy_m, wc_0, wc_mm, wc_m0, wc_0m):
    """The nine stencil weights of the energy at cells (i, j), in _OFFSETS
    order, from wx at (i, j) and (i-1, j), wy at (i, j) and (i, j-1), and
    wc of the blocks whose first cells are (i, j), (i-1, j-1), (i-1, j)
    and (i, j-1).

    Faces: cells (i,j),(i+1,j) with harmonic c11 weight wx, cells
    (i,j),(i,j+1) with harmonic c22 weight wy.  Corners: cells a=(i,j),
    b=(i+1,j), c=(i,j+1), d=(i+1,j+1) with the averaged c12 weight wc,
    which adds +wc on a-a, d-d, b-c and -wc on b-b, c-c, a-d.
    """
    diag = wx_0 + wx_m + wy_0 + wy_m + wc_0 + wc_mm - wc_m0 - wc_0m
    return [-wc_mm, -wx_m, wc_m0, -wy_m, diag, -wy_0, wc_0m, -wx_0, -wc_0]


def _check_coefficients(grid, coeffs):
    """Raise GridMismatch unless the coefficients are N x N: one shape, since
    a CofactorField is frozen, square and positive definite by construction."""
    if coeffs.c11.shape != (grid.n, grid.n):
        raise GridMismatch("coefficient shape does not match grid")


def _row_sums(weights, values):
    """sum_k weights[k] * values[k], added left to right as a CSR row
    product adds a row's entries in their stored order."""
    total = weights[0] * values[0]
    for w, v in zip(weights[1:], values[1:]):
        total += w * v
    return total


def _csr(arg, shape):
    """scipy.sparse.csr_matrix(arg, shape=shape), the one place the package
    builds a sparse matrix.  The import is here and not at the top: the
    time loop and the polar factorization never build one, and importing
    scipy.sparse takes a fresh process about twice as long as numpy."""
    from scipy import sparse
    return sparse.csr_matrix(arg, shape=shape)


def _cell_weights(grid, coeffs, where):
    """_row at the cells whose stencil neighbours `where` lists
    (_neighbours), from their coefficients gathered once per offset that
    a row reads: c11 at the three (i + d, j), c22 at the three (i, j + d)
    and c12 at all nine neighbours; a CofactorField needs no other check
    than _check_coefficients' O(1) one, so the cost is O(cells)."""
    _check_coefficients(grid, coeffs)
    h = grid.spacing
    c11, c12, c22 = (c.ravel() for c in (coeffs.c11, coeffs.c12, coeffs.c22))
    a_m, a_0, a_p = (c11[where[d, 0]] for d in (-1, 0, 1))
    b_m, b_0, b_p = (c22[where[0, d]] for d in (-1, 0, 1))
    c = {o: c12[where[o]] for o in _OFFSETS}
    return _row(_face(a_0, a_p, h), _face(a_m, a_0, h),
                _face(b_0, b_p, h), _face(b_m, b_0, h),
                _corner(c[0, 0], c[1, 0], c[0, 1], c[1, 1], h),
                _corner(c[-1, -1], c[0, -1], c[-1, 0], c[0, 0], h),
                _corner(c[-1, 0], c[0, 0], c[-1, 1], c[0, 1], h),
                _corner(c[0, -1], c[1, -1], c[0, 0], c[1, 0], h))


def _shift(a, n, di, dj):
    """The N x N cells (i + di, j + dj) of an array whose first row and
    column hold cell -1."""
    return a[1 + di:n + 1 + di, 1 + dj:n + 1 + dj]


def _grid_weights(grid, coeffs):
    """_row at every cell, as N x N views.  Each coefficient is wrap-padded
    once, and each of wx, wy and wc is computed once, on the (N+1) x (N+1)
    cells from -1 to N - 1; a row's nine weights are views of these three
    arrays: wx one row up is the wx of the cell before, and the four
    corners of a cell are one corner array shifted."""
    _check_coefficients(grid, coeffs)
    n, h = grid.n, grid.spacing
    p11, p12, p22 = (gridmod.wrap_pad(c)
                     for c in (coeffs.c11, coeffs.c12, coeffs.c22))
    lo, hi = slice(0, n + 1), slice(1, n + 2)  # cells -1..N-1 and 0..N
    wx = _face(p11[lo, lo], p11[hi, lo], h)
    wy = _face(p22[lo, lo], p22[lo, hi], h)
    wc = _corner(p12[lo, lo], p12[hi, lo], p12[lo, hi], p12[hi, hi], h)
    return _row(_shift(wx, n, 0, 0), _shift(wx, n, -1, 0),
                _shift(wy, n, 0, 0), _shift(wy, n, 0, -1),
                _shift(wc, n, 0, 0), _shift(wc, n, -1, -1),
                _shift(wc, n, -1, 0), _shift(wc, n, 0, -1))


def stencil_rows(grid, coeffs, cells):
    """Rows `cells` (flat indices) of the periodic 9-point matrix of the
    energy (_row), in CSR with global column indices and each row's nine
    entries in _OFFSETS order.  The weights come from the cells' own
    coefficients and their stencil neighbours' only (_cell_weights), in
    O(cells) for any set of cells: no other coefficient is read, not even
    to check it (a CofactorField is positive definite by construction)."""
    n = grid.n
    where = _neighbours(n, cells)
    return _csr(
        (np.stack(_cell_weights(grid, coeffs, where), axis=-1).ravel(),
         np.stack(list(where.values()), axis=-1).ravel(),
         np.arange(0, 9 * cells.size + 1, 9)),
        shape=(cells.size, n * n),
    )


def apply_stencil(grid, coeffs, u):
    """stencil_rows(grid, coeffs, every cell) @ u bit for bit, as an N x N
    array, without assembling the matrix: the nine weights of every row
    are views of the three whole-grid weight arrays (_grid_weights), the
    same formulas on the same operands as the rows', and the nine
    products are summed in _OFFSETS order, the order of every row's
    entries.  Raises GridMismatch unless u is N x N."""
    n = grid.n
    u = np.asarray(u, dtype=float)
    if u.shape != (n, n):
        raise GridMismatch(f"field shape {u.shape} does not match the "
                           f"{n} x {n} grid")
    u = gridmod.wrap_pad(u)
    return _row_sums(_grid_weights(grid, coeffs),
                     [_shift(u, n, *o) for o in _OFFSETS])


# --- aggregation multigrid -----------------------------------------------------

# more levels cost more in fixed per-level overhead than a dense solve of
# this many cells does
COARSEST_CELLS = 64
# damped-Jacobi weight over the Gershgorin bound rho_G of D^-1 A: a sweep
# is x = (SMOOTHING / rho_G) D^-1 b.  rho_G >= lambda_max(D^-1 A), so
# omega lambda <= SMOOTHING < 2 on every level and each sweep contracts in
# the A-norm.  Of the weights 4/3, 1.6, 1.7, 1.8 and 1.9, 1.9 took the
# fewest CG iterations on large sections but more than 4/3 on some of a few
# hundred cells; 1.8 took the fewest of the rest on sections of a thousand
# cells or more (BENCH_smoother_weight.json)
SMOOTHING = 1.8
# over-corrected coarse step of plain aggregation (Braess, 1995)
OVERCORRECTION = 1.5


def _spd_inverse(a):
    """Inverse of a small symmetric positive definite matrix by
    Gauss-Jordan elimination without pivoting, in numpy alone (no LAPACK),
    symmetrized."""
    m = a.shape[0]
    work = np.hstack([a, np.eye(m)])
    for k in range(m):
        work[k] /= work[k, k]
        column = work[:, k].copy()
        column[k] = 0.0
        work -= column[:, None] * work[k]
    inverse = work[:, m:]
    return (inverse + inverse.T) / 2.0


def _galerkin(matrix, agg, size):
    """T^T A T for the piecewise-constant T of the aggregates agg: the
    entries of A summed by (aggregate of row, aggregate of column).  Its
    entry-sized index arrays die on return, before the next level."""
    rows = np.repeat(agg, np.diff(matrix.indptr))
    return _csr((matrix.data, (rows, agg[matrix.indices])), shape=(size, size))


class AggregationVCycle:
    """One symmetric V-cycle of plain aggregation multigrid (Vanek, Mandel
    and Brezina, 1996) for a masked operator: an SPD preconditioner.

    The aggregates of a level are the 2x2 blocks of its array cells that
    meet its cells, starting from the mask on the N x N grid; the coarse
    operator is the Galerkin T^T A T of the piecewise-constant T, summed
    entry by entry, so it stays a 9-point stencil.  Each level smooths by
    one damped-Jacobi sweep x = (SMOOTHING / rho_G) D^-1 b before and one
    after the coarse step, which is over-corrected by OVERCORRECTION;
    rho_G is the level's Gershgorin bound of D^-1 A.  Coarsening stops at
    COARSEST_CELLS cells, applied through their exact inverse by a
    fixed-order reduction.

    The cycle is SPD.  It is symmetric, since the two sweeps are the same
    and the coarse operators are Galerkin.  It is positive since
    rho_G >= lambda_max(D^-1 A) gives omega lambda <= SMOOTHING < 2 for
    every eigenvalue lambda > 0: each sweep strictly contracts the error
    in the A-norm, and a coarse step through an SPD coarse cycle, at any
    positive over-correction, only subtracts from the A-energy of the
    error.  So <(I - BA) e, e>_A < <e, e>_A for every e != 0, and B is
    positive definite; CG's breakdown checks still stand behind that.
    No step reaches the BLAS, so the cycle does not depend on its threads.
    Raises IndefiniteOperator on a diagonal entry that is not positive.
    """

    def __init__(self, matrix, n, cells):
        # per level: A, the weighted inverse diagonal, the aggregate of
        # each cell and the number of aggregates
        self.levels = []
        while matrix.shape[0] > COARSEST_CELLS:
            diag = matrix.diagonal()
            if np.min(diag) <= 0.0:
                raise IndefiniteOperator(
                    f"non-positive diagonal entry {np.min(diag):.3e}")
            gershgorin = np.max(
                np.add.reduceat(np.abs(matrix.data), matrix.indptr[:-1]) / diag)
            i, j = np.divmod(cells, n)
            n = (n + 1) // 2
            cells, agg = np.unique(i // 2 * n + j // 2, return_inverse=True)
            agg = agg.astype(matrix.indices.dtype)
            self.levels.append((matrix, SMOOTHING / gershgorin / diag, agg,
                                cells.size))
            matrix = _galerkin(matrix, agg, cells.size)
        self.inverse = _spd_inverse(matrix.toarray())

    def __call__(self, b):
        down = []
        for matrix, smooth, agg, size in self.levels:
            x = smooth * b
            down.append((b, x))
            b = np.bincount(agg, weights=b - matrix @ x, minlength=size)
        e = np.add.reduce(self.inverse * b, axis=1)
        for (matrix, smooth, agg, _), (b, x) in zip(self.levels[::-1],
                                                   down[::-1]):
            x += OVERCORRECTION * e[agg]
            x += smooth * (b - matrix @ x)
            e = x
        return e


class DivergenceFormOperator:
    """Sparse symmetric assembly of L u = -div(Phi grad u).

    Only the operator's own rows are assembled (stencil_rows): all N^2 in
    periodic mode, the masked cells' rows in Dirichlet mode.  The
    constructor also builds the preconditioner that every solve with
    this operator reuses: the trace-scaled FFT inverse in periodic mode,
    the multigrid hierarchy (AggregationVCycle) in Dirichlet mode.

    Parameters
    ----------
    grid : TorusGrid
    coeffs : CofactorField
        Cellwise symmetric positive coefficient tensor.
    mask : (N, N) bool array, optional
        None for the periodic operator on the whole torus; otherwise the
        Dirichlet operator on the masked cells with u = 0 outside.
    """

    def __init__(self, grid, coeffs, mask=None):
        self.grid = grid
        self.mask = None
        self.cells = np.arange(grid.n**2)
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (grid.n, grid.n):
                raise GridMismatch("mask shape does not match grid")
            self.mask = mask
            self.cells = np.flatnonzero(mask.ravel())
        # the cells' rows with every column; Dirichlet solves lift the
        # boundary ring's data with them
        self.rows = stencil_rows(grid, coeffs, self.cells)
        self.matrix = (self.rows if mask is None
                       else self.rows[:, self.cells].tocsr())
        self._min_ritz()
        # the preconditioner, reused by every right-hand side
        if mask is None:
            # L ~ -t S, S the FFT operator of mean(Phi / t), inverted as
            # -t^-1/2 S^-1 t^-1/2 to keep CG's preconditioner symmetric
            inv_t, inverse = gridmod.trace_scaled_inverse(
                coeffs.c11, coeffs.c12, coeffs.c22)
            s = np.sqrt(inv_t)
            self.precondition = lambda v: -(
                s * inverse(s * v.reshape(s.shape))).ravel()
        else:
            self.precondition = AggregationVCycle(
                self.matrix, grid.n, self.cells)

    # -- structure checks ----------------------------------------------------

    def _min_ritz(self):
        """Raise IndefiniteOperator if one of four seeded random probes
        has a negative Ritz value."""
        rng = np.random.default_rng(0)
        size = self.matrix.shape[0]
        scale = float(np.max(np.abs(self.matrix.diagonal()))) or 1.0
        for _ in range(4):
            x = rng.standard_normal(size)
            if self.mask is None:
                x -= x.mean()  # probe orthogonal to the periodic kernel
            ritz = dot(x, self.matrix @ x) / dot(x, x)
            if ritz < -1e-10 * scale:
                raise IndefiniteOperator(
                    f"negative Ritz value {ritz:.3e} on random probe"
                )

    # -- actions ---------------------------------------------------------

    def apply(self, u):
        """L u of a full-grid array; periodic mode only."""
        u = np.asarray(u, dtype=float)
        return (self.matrix @ u.ravel()).reshape(self.grid.n, self.grid.n)

    def solve(self, rhs, tol=DEFAULT_CG_TOL):
        """Preconditioned conjugate gradients (krylov.cg), at most ten
        iterations per unknown.

        Periodic mode solves in the mean-zero complement of the kernel,
        preconditioned by v -> -t^-1/2 S^-1(t^-1/2 v), with t = tr Phi / 2
        and S the exact FFT-diagonal operator of the grid mean of Phi / t
        (grid.trace_scaled_inverse), positive definite on mean-zero v and
        exact when Phi / tr Phi is constant; Dirichlet mode is
        preconditioned by one aggregation-multigrid V-cycle, which
        keeps the iteration count nearly flat in N.  Every reduction has a
        fixed order, so the result does not depend on the BLAS thread
        count.
        Raises SolverStall if the Krylov iteration does not converge.
        """
        b = np.asarray(rhs, dtype=float).ravel()
        n = self.grid.n
        if self.mask is None:
            b = b - b.mean()
        x, iters, converged = cg(lambda v: self.matrix @ v, b,
                                 self.precondition, tol, 10 * b.size)
        if not converged:
            raise SolverStall(f"CG failed to reach rtol={tol} "
                              f"({iters} iterations)")
        if self.mask is None:
            x = x - x.mean()
            return x.reshape(n, n)
        return x

    # -- right-hand sides --------------------------------------------------

    def divergence_rhs(self, F1, F2):
        """Centered discrete div F of a cell-centered flux; in Dirichlet
        mode F is zeroed outside the mask and div F restricted to it."""
        F1 = np.asarray(F1, dtype=float)
        F2 = np.asarray(F2, dtype=float)
        if self.mask is None:
            return gridmod.periodic_divergence(F1, F2, self.grid)
        F1 = np.where(self.mask, F1, 0.0)
        F2 = np.where(self.mask, F2, 0.0)
        return gridmod.periodic_divergence(F1, F2, self.grid).ravel()[self.cells]

    def point_source(self, pole_index):
        """Discrete delta at a cell: 1/h^2 scaled unit vector."""
        flat = pole_index[0] * self.grid.n + pole_index[1]
        b = np.zeros(self.cells.size)
        where = np.nonzero(self.cells == flat)[0]
        if where.size == 0:
            raise ValueError("pole cell is not inside the mask")
        b[where[0]] = 1.0 / self.grid.cell_area
        return b

    def scatter(self, vec):
        """Mask vector -> full grid array with zeros outside."""
        out = np.zeros(self.grid.n**2)
        out[self.cells] = vec
        return out.reshape(self.grid.n, self.grid.n)


def boundary_ring(mask):
    """One-cell ring outside the mask (8-connected, matching the stencil),
    wrapping across the periodic seam as the operator does."""
    mask = np.asarray(mask, bool)
    return gridmod.dilate(mask) & ~mask


def solve_periodic_lma(coeffs, F, grid, tol=DEFAULT_CG_TOL):
    """Solve div(Phi grad u) = div F on the torus, mean-zero u.

    Returns (u, info) with info carrying the relative residual.
    """
    op = DivergenceFormOperator(grid, coeffs)
    div = op.divergence_rhs(F[0], F[1])
    rhs = -np.asarray(div, dtype=float)
    rhs = rhs - rhs.mean()  # compatibility with the constant kernel
    u = op.solve(rhs, tol=tol)
    scale = norm(rhs) or 1.0
    rel = norm(op.apply(u) - rhs) / scale
    info = {"relative_residual": rel, "rhs_norm": scale}
    if rel > max(100.0 * tol, 1e-8):
        raise SolverStall(f"periodic solve residual {rel:.3e} above tolerance")
    return u, info


def _dirichlet_operator(coeffs, mask, grid, operator):
    """The Dirichlet operator on a bool mask: `operator` if one is given,
    else a new DivergenceFormOperator.  Raises GridMismatch unless a
    given operator was built on this grid and this mask, since a solve
    reads its right-hand side from the operator's cells and its boundary
    ring and result mask from `mask`."""
    if operator is None:
        return DivergenceFormOperator(grid, coeffs, mask=mask)
    if operator.grid != grid or not (operator.mask is mask or
                                     np.array_equal(operator.mask, mask)):
        raise GridMismatch("operator was built on another grid or mask")
    return operator


def solve_dirichlet_lma(coeffs, mask, grid, F=None, boundary_values=None,
                        tol=DEFAULT_CG_TOL, operator=None):
    """Solve L u = div F (or 0 without F) on a mask, u = ring values.

    The Dirichlet boundary is the one-cell ring outside the mask, held at
    zero unless boundary_values (a full-grid array) is given.  Returns
    (u_full, info) with u zero-extended outside the mask.  For homogeneous
    interiors with boundary data the discrete maximum principle
    min b <= u <= max b is asserted.  A given operator must be the
    masked operator of this grid and mask (GridMismatch otherwise).
    """
    mask = np.asarray(mask, dtype=bool)
    op = _dirichlet_operator(coeffs, mask, grid, operator)
    homogeneous = F is None
    b = (np.zeros(op.cells.size) if homogeneous
         else -op.divergence_rhs(F[0], F[1]))
    bring = None
    if boundary_values is not None:
        ring = boundary_ring(mask)
        bvals = np.where(ring, np.asarray(boundary_values, dtype=float), 0.0)
        bring = bvals[ring]
        # lift: move known ring values to the right-hand side
        b = b - op.rows @ bvals.ravel()

    u = op.solve(b, tol=tol)
    res = norm(op.matrix @ u - b)
    scale = norm(b) or 1.0
    info = {"relative_residual": res / scale, "cells": int(op.cells.size)}

    if homogeneous and bring is not None and bring.size:
        lo, hi = float(np.min(bring)), float(np.max(bring))
        slack = 1e-8 * (hi - lo + 1e-30)
        if np.min(u) < lo - slack or np.max(u) > hi + slack:
            raise InvariantViolation(
                "maximum_principle",
                f"homogeneous solution range [{np.min(u):.6e}, {np.max(u):.6e}] "
                f"escapes boundary range [{lo:.6e}, {hi:.6e}]",
            )
    full = op.scatter(u)
    if boundary_values is not None:
        full = np.where(ring, bvals, full)
    return full, info


# --- Green's functions -------------------------------------------------------

@dataclasses.dataclass
class GreenFunction:
    """Green's function of the Dirichlet operator on a section mask."""

    grid: gridmod.TorusGrid
    mask: np.ndarray
    values: np.ndarray  # full grid, zero outside mask

    def integral_p(self, p):
        """integral over the mask of g^p (midpoint quadrature)."""
        g = self.values[self.mask]
        return float(np.sum(np.abs(g) ** p)) * self.grid.cell_area

    @functools.cached_property
    def gradient_magnitude(self):
        """|grad g| at the masked cells (zero extension), computed on first
        use and shared by every gradient_norm."""
        g1, g2 = gridmod.periodic_gradient(self.values, self.grid)
        return np.hypot(g1[self.mask], g2[self.mask])

    def gradient_norm(self, kappa):
        """L^(1+kappa) norm of grad g over the mask (zero extension)."""
        p = 1.0 + kappa
        return float(np.sum(self.gradient_magnitude**p)
                     * self.grid.cell_area) ** (1.0 / p)

    def min_value(self):
        return float(np.min(self.values[self.mask]))

    def max_value(self):
        return float(np.max(self.values[self.mask]))

    def level_area(self, tau):
        return float(np.count_nonzero(self.values > tau)) * self.grid.cell_area


def green_function(coeffs, mask, pole_index, grid, operator=None):
    """Green's function with pole at a cell: L g = delta, g = 0 on the ring,
    solved to a relative residual of 1e-12.  A given operator must be the
    masked operator of this grid and mask (GridMismatch otherwise)."""
    mask = np.asarray(mask, dtype=bool)
    op = _dirichlet_operator(coeffs, mask, grid, operator)
    rhs = op.point_source(pole_index)
    g = op.solve(rhs, tol=1e-12)
    return GreenFunction(grid, mask, op.scatter(g))


def level_set_decay(green):
    """Fit area{g > tau} = K 2^(-tau/tau0).

    An initial fit over 30 mid-range level sets estimates tau0; the final
    fit runs over tau in [tau0, min(5 tau0, 0.95 max g)].
    """
    gmax = green.max_value()
    taus = np.linspace(0.05, 0.9, 30) * gmax
    areas = np.array([green.level_area(t) for t in taus])
    keep = areas > 0
    first = linear_fit(taus[keep], np.log2(areas[keep]))
    tau0 = -1.0 / first.slope if first.slope < 0 else float("nan")
    lo, hi = tau0, min(5.0 * tau0, 0.95 * gmax)
    window = keep & (taus >= lo) & (taus <= hi)
    if np.count_nonzero(window) >= 4:
        fit = linear_fit(taus[window], np.log2(areas[window]))
        tau0 = -1.0 / fit.slope if fit.slope < 0 else float("nan")
    else:
        fit = first
    return {
        "tau0": tau0,
        "K": float(2.0 ** fit.intercept),
        "r2": fit.r2,
        "n_points": fit.n_points,
    }


def green_integrability_report(pot, x0, heights, ps=(1.0, 2.0),
                               kappas=(0.1, 0.2)):
    """Green's-function integrability ladder on sections of a potential.

    For each section height h computes integral g^p (expected to scale
    linearly in h) and the L^(1+kappa) norms of grad g, plus a symmetry
    defect, a positivity floor, and the level-set decay fit at the top
    height.  Returns a dict with per-(h, p) and per-(h, kappa) rows (slope
    and R^2 of the h-ladder fits repeated on each row of a group).
    """
    cof = cofactor(pot)
    grid = pot.grid
    secs = [sections.extract_section(pot, x0, h) for h in heights]
    sec = secs[0]
    # the top rung's operator also serves the symmetry probe below
    top_op = DivergenceFormOperator(grid, cof, mask=sec.mask)
    greens = [green_function(cof, s.mask, s.center_index, grid,
                             operator=top_op if s is sec else None)
              for s in secs]

    def ladder_fit(norms):
        # a single rung carries no slope information
        if len(heights) < 2:
            return PowerLawFit(float("nan"), float("nan"), float("nan"),
                               len(heights))
        return loglog_fit(heights, norms, min_points=min(4, len(heights)))

    rows = []
    for p in ps:
        norms = [g.integral_p(p) for g in greens]
        fit = ladder_fit(norms)
        for h, nm in zip(heights, norms):
            rows.append({"h": h, "p": p, "kappa": None, "norm": nm,
                         "slope": fit.slope, "r2": fit.r2})
    for kappa in kappas:
        norms = [g.gradient_norm(kappa) for g in greens]
        fit = ladder_fit(norms)
        for h, nm in zip(heights, norms):
            rows.append({"h": h, "p": None, "kappa": kappa, "norm": nm,
                         "slope": fit.slope, "r2": fit.r2})

    top = greens[0]
    # symmetry: swap pole with an interior cell a few cells away
    offset = max(2, int(np.sqrt(np.count_nonzero(sec.mask)) / 4))
    i0, j0 = sec.center_index
    cand = ((i0 + offset) % grid.n, j0)
    if not sec.mask[cand]:
        inside = np.argwhere(sec.mask)
        k = len(inside) // 3
        cand = tuple(inside[k])
    other = green_function(cof, sec.mask, cand, grid, operator=top_op)
    sym_defect = abs(top.values[cand] - other.values[i0, j0])
    positivity_floor = min(g.min_value() for g in greens)
    decay = level_set_decay(top)
    return {
        "rows": rows,
        "heights": list(heights),
        "symmetry_defect": float(sym_defect),
        "positivity_floor": float(positivity_floor),
        "level_set_decay": decay,
    }
