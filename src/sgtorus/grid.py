"""Periodic grid core: cell-centered fields on the unit torus.

The domain is [0,1)^2 with N x N square cells; all fields are sampled at
cell centers ((i+1/2)/N, (j+1/2)/N) and stored as (N, N) float arrays with
axis 0 along x1 and axis 1 along x2.  Difference operators are centered
and wrap periodically, so the discrete gradient and (minus) divergence are
exact adjoints and every gradient integrates to zero exactly.

Everything here is numpy alone.  Bilinear sampling equals SciPy's
map_coordinates(order=1, mode="grid-wrap") bit for bit, and the tests use
it as the reference: the fractional index c = x N - 0.5 is reduced mod N
only where it lies outside [0, N), the weights are (1 - t, t) with
t = c - floor(c), and the four corner terms (value * w0) * w1 are summed
from 0.0 in SciPy's order.  The periodic 3 x 3 dilation of a cell mask (dilate) gives the
Dirichlet ring (lma.boundary_ring) and, complemented, the erosion
(regularity.interior_cells).
"""

import csv
import dataclasses
import functools

import numpy as np

from .errors import GridMismatch, InvariantViolation

# Tight bound for a wrapped displacement: both components live in
# [-1/2, 1/2), so the Euclidean norm never exceeds sqrt(2)/2.
MAX_DISPLACEMENT_NORM = np.sqrt(2.0) / 2.0


@dataclasses.dataclass(frozen=True)
class TorusGrid:
    """Uniform N x N cell-centered grid on the unit torus."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"grid needs at least 4 cells per axis, got {self.n}")

    @property
    def spacing(self):
        return 1.0 / self.n

    @property
    def cell_area(self):
        return 1.0 / self.n**2

    def axis_centers(self):
        return (np.arange(self.n) + 0.5) / self.n

    def centers(self):
        """Cell-center coordinate arrays (x1, x2), each (N, N)."""
        c = self.axis_centers()
        return np.meshgrid(c, c, indexing="ij")

    def offsets_from(self, i0, j0):
        """Wrapped offsets of every cell center from the center of cell
        (i0, j0): d1 of shape (N, 1) and d2 of shape (1, N).

        Broadcast together they are wrap_delta(centers() - center) bit for
        bit, since every element goes through the same subtraction and
        wrap; only N values per axis are computed instead of N^2.
        """
        c = self.axis_centers()
        h = self.spacing
        d1 = wrap_delta(c - (i0 + 0.5) * h)
        d2 = wrap_delta(c - (j0 + 0.5) * h)
        return d1[:, None], d2[None, :]

    def index_of(self, points):
        """Indices (i, j) of the cells containing ``points`` (..., 2);
        ValueError on a point that is not finite, which no cell contains."""
        pts = np.asarray(points, dtype=float)
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"point not finite: {pts.tolist()}")
        idx = np.floor(pts * self.n).astype(int) % self.n
        return idx[..., 0], idx[..., 1]

    def nearest_center(self, point):
        """Snap a point to the center of its cell."""
        i, j = self.index_of(np.asarray(point, dtype=float))
        return np.array([(i + 0.5) * self.spacing, (j + 0.5) * self.spacing])


def check_same_grid(ga, gb):
    if ga.n != gb.n:
        raise GridMismatch(f"grids differ: {ga.n} vs {gb.n}")


@dataclasses.dataclass
class TorusField:
    """Scalar field sampled at cell centers."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n, self.grid.n):
            raise GridMismatch(
                f"field shape {self.values.shape} does not match grid {self.grid.n}"
            )


def wrap(points):
    """Map points back to the fundamental domain: every coordinate lands in
    [0, 1], 1.0 only for negative inputs that round up (wrap(-1e-20) is 1.0).

    x - floor(x) is numpy's x % 1.0 bit for bit: the float modulo is fmod
    plus a +1 correction for negative x, which rounds the same exact value
    x - floor(x) once, at several times the cost.
    """
    x = np.asarray(points, dtype=float)
    return x - np.floor(x)


def wrap_delta(delta):
    """Reduce coordinate differences to the representative in [-1/2, 1/2),
    1/2 only where the wrap rounds up as in wrap.

    Equal bit for bit to (delta + 0.5) % 1.0 - 0.5, through wrap.
    """
    return wrap(np.asarray(delta, dtype=float) + 0.5) - 0.5


def periodic_delta(a, b):
    """Shortest vector from b to a on the torus, components in [-1/2, 1/2)."""
    return wrap_delta(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))


def periodic_distance(a, b):
    """Geodesic (flat) distance between points on the torus."""
    d = periodic_delta(a, b)
    return np.sqrt(np.sum(d * d, axis=-1))


@dataclasses.dataclass
class PeriodicDisplacement:
    """Vector field of shortest-representative displacements.

    Components are wrapped into [-1/2, 1/2) at construction, which caps the
    pointwise Euclidean norm at sqrt(2)/2; that bound is checked (it fails
    only on non-finite input) because every consumer (velocities,
    transport maps) relies on it.
    """

    grid: TorusGrid
    d1: np.ndarray
    d2: np.ndarray

    def __post_init__(self):
        self.d1 = wrap_delta(np.ascontiguousarray(self.d1, dtype=float))
        self.d2 = wrap_delta(np.ascontiguousarray(self.d2, dtype=float))
        for d in (self.d1, self.d2):
            if d.shape != (self.grid.n, self.grid.n):
                raise GridMismatch("displacement shape does not match grid")
        self._sup = _max_norm(self.d1, self.d2)
        if not self._sup <= MAX_DISPLACEMENT_NORM + 1e-15:
            raise InvariantViolation(
                "displacement_bound",
                f"wrapped displacement norm {self._sup!r} exceeds sqrt(2)/2",
            )

    def norm(self):
        return np.hypot(self.d1, self.d2)

    def sup_norm(self):
        return self._sup

    def apply(self):
        """Target points x + d(x) of every cell center, wrapped to [0,1)^2."""
        x1, x2 = self.grid.centers()
        return wrap(np.stack([x1 + self.d1, x2 + self.d2], axis=-1))


def _max_norm(d1, d2):
    """np.max(np.hypot(d1, d2)) bit for bit, with hypot taken only at the
    cells whose d1^2 + d2^2 is within a relative 2^-40 of the largest.

    A rounded square is within a few ulps of the true one, so a cell
    outside that set has a true norm below the largest by far more than
    hypot's rounding, even where its own square is subnormal.  Where the
    largest square is below 2^-900 (or NaN) every cell is taken.
    """
    sq = d1 * d1
    sq += d2 * d2
    top = sq.max()
    if top >= 2.0**-900:
        near = sq >= top * (1.0 - 2.0**-40)
        d1, d2 = d1[near], d2[near]
    return float(np.max(np.hypot(d1, d2)))


# --- difference operators --------------------------------------------------

def _dx(values, axis, spacing):
    """Centred difference along axis, read off one copy of values with a
    periodic ghost layer on each side of that axis."""
    if axis == 0:
        padded = np.concatenate([values[-1:], values, values[:1]], axis=0)
        return (padded[2:] - padded[:-2]) / (2.0 * spacing)
    padded = np.concatenate([values[:, -1:], values, values[:, :1]], axis=1)
    return (padded[:, 2:] - padded[:, :-2]) / (2.0 * spacing)


def periodic_gradient(values, grid):
    """Centered-difference gradient of cell-centered values; returns a
    pair of (N, N) arrays.

    The stencil is antisymmetric under the periodic shift, so the pair
    (periodic_gradient, -periodic_divergence) is exactly adjoint in the
    midpoint inner product.
    """
    h = grid.spacing
    values = np.asarray(values, dtype=float)
    return _dx(values, 0, h), _dx(values, 1, h)


def periodic_divergence(v1, v2, grid):
    """Centered-difference divergence of a cell-centered vector field."""
    h = grid.spacing
    return _dx(np.asarray(v1, dtype=float), 0, h) + _dx(np.asarray(v2, dtype=float), 1, h)


def wrap_pad(values):
    """values with one periodic ghost layer on each side,
    p[i + 1, j + 1] = values[i mod N0, j mod N1]: np.pad(values, 1,
    mode="wrap") by five slice copies, without np.pad's overhead."""
    n0, n1 = values.shape
    p = np.empty((n0 + 2, n1 + 2), dtype=values.dtype)
    p[1:-1, 1:-1] = values
    p[0, 1:-1] = values[-1]
    p[-1, 1:-1] = values[0]
    p[:, 0] = p[:, -2]
    p[:, -1] = p[:, 1]
    return p


def second_differences(values, spacing):
    """Compact Hessian stencils: 5-point pure, 4-corner mixed.

    Returns (f11, f12, f22).  Exact on quadratics and cubics.
    """
    h2 = spacing * spacing
    p = wrap_pad(values)  # each neighbour is a slice
    twice = 2.0 * values
    # in place, in the order of (a + b - c) / h2: the same bits
    f11 = np.add(p[2:, 1:-1], p[:-2, 1:-1])
    f11 -= twice
    f11 /= h2
    f22 = np.add(p[1:-1, 2:], p[1:-1, :-2])
    f22 -= twice
    f22 /= h2
    f12 = np.add(p[2:, 2:], p[:-2, :-2])
    f12 -= p[2:, :-2]
    f12 -= p[:-2, 2:]
    f12 /= 4.0 * h2
    return f11, f12, f22


@functools.lru_cache(maxsize=8)
def _second_difference_symbols(n):
    """Fourier symbols of second_differences on the rfft2 half-spectrum:
    -4 sin^2(t1/2)/h^2, -sin t1 sin t2/h^2, -4 sin^2(t2/2)/h^2."""
    t1 = 2.0 * np.pi * np.fft.fftfreq(n)[:, None]
    t2 = 2.0 * np.pi * np.fft.rfftfreq(n)[None, :]
    h2 = (1.0 / n) ** 2
    symbols = (-4.0 * np.sin(t1 / 2.0) ** 2 / h2,
               -np.sin(t1) * np.sin(t2) / h2,
               -4.0 * np.sin(t2 / 2.0) ** 2 / h2)
    for s in symbols:
        s.flags.writeable = False
    return symbols


def spectral_inverse(c11, c12, c22, n):
    """Exact inverse of u -> c11 u11 + 2 c12 u12 + c22 u22 on mean-zero fields.

    The coefficients are constants of a positive definite tensor and the
    derivatives the second_differences stencils, so the operator is a
    Fourier multiplier whose symbol vanishes only at the zero mode.
    Returns r -> the mean-zero u solving the equation for r - mean(r).
    """
    s11, s12, s22 = _second_difference_symbols(n)
    symbol = c11 * s11 + 2.0 * c12 * s12 + c22 * s22
    symbol[0, 0] = np.inf  # drops the mean of r

    def inverse(r):
        return np.fft.irfft2(np.fft.rfft2(r) / symbol, s=(n, n))

    return inverse


def trace_scaled_inverse(c11, c12, c22):
    """(1 / t, spectral_inverse of mean(Phi / t)) for a coefficient field
    Phi with t = tr Phi / 2: Phi^{ij} u_ij = r is then approximately
    u = inverse(r / t), exactly when Phi / tr Phi is constant."""
    inv_t = 2.0 / (c11 + c22)
    return inv_t, spectral_inverse(
        *(float(np.mean(c * inv_t)) for c in (c11, c12, c22)), c11.shape[0])


def integral(values, grid):
    """Midpoint quadrature over the torus (exact for the stored samples)."""
    return float(np.sum(values)) * grid.cell_area


def mean_zero(values):
    """Subtract the grid mean."""
    values = np.asarray(values, dtype=float)
    return values - values.mean()


# --- interpolation ----------------------------------------------------------

def _bilinear_cells(points, n):
    """Where SciPy's map_coordinates(order=1, mode="grid-wrap") reads the
    (N, N) values at ``points`` (..., 2): the flat index of each point's
    cell in the (N + 2)-wide wrap-padded values of _bilinear_sum, and
    the weights (1 - t, t) of each axis.  ValueError on a point that is
    not finite."""
    pts = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("sampling point not finite")
    index, weights = [], []
    for axis in (0, 1):
        c = pts[..., axis] * n  # a new array, updated in place below
        c -= 0.5  # fractional index
        c = c.ravel()
        if c.min() < 0.0 or c.max() >= n:
            # reduced only where outside [0, N): reducing in-range
            # entries too costs time, and so would a % N on the indices
            out = (c < 0.0) | (c >= n)
            r = np.mod(c[out], n)
            r[r == n] = 0.0  # a tiny negative c rounds up to N: cell 0
            c[out] = r
        f = np.floor(c)
        index.append(f.astype(np.intp))
        t = np.subtract(c, f, out=c)
        weights.append((1.0 - t, t))
    flat = index[0]
    flat *= n + 2
    flat += index[1]
    return flat, weights


def _bilinear_sum(values, n, flat, weights):
    """The four corner terms (value * w0) * w1 summed from 0.0 in the order
    (0, 0), (0, 1), (1, 0), (1, 1), as map_coordinates sums them; the 0.0
    start makes an all-(-0.0) field sample to +0.0 as there."""
    # from cell (0, 0) of the wrap-padded values on: the neighbours
    # (i + 1, j), (i, j + 1) and (i + 1, j + 1) of every cell (i, j) are
    # n + 2, 1 and n + 3 flat steps away, without a % N
    p = wrap_pad(np.asarray(values, dtype=float)).ravel()[n + 3:]
    (a0, a1), (b0, b1) = weights
    out = np.zeros(flat.shape)
    for shift, wa, wb in ((0, a0, b0), (1, a0, b1), (n + 2, a1, b0),
                          (n + 3, a1, b1)):
        term = np.take(p[shift:], flat)
        term *= wa
        term *= wb
        out += term
    return out


def sample_bilinear(values, points, grid):
    """Periodic bilinear interpolation at arbitrary points.

    Bilinear weights are convex, so sampled values stay inside
    [min(values), max(values)]; transport relies on that monotonicity.
    Bit for bit SciPy's map_coordinates(order=1, mode="grid-wrap") at the
    fractional indices points * N - 0.5, in numpy alone; ValueError on a
    point that is not finite.

    Parameters
    ----------
    values : (N, N) array
        Cell-centered samples of a periodic field (unwrapped values).
    points : (..., 2) array
        Query points anywhere in the plane (wrapped internally).
    """
    flat, weights = _bilinear_cells(points, grid.n)
    out = _bilinear_sum(values, grid.n, flat, weights)
    return out.reshape(np.shape(points)[:-1])


def sample_vector_bilinear(v1, v2, points, grid):
    """sample_bilinear of v1 and of v2 at the same points, bit for bit,
    with the cells and weights computed once for both."""
    flat, weights = _bilinear_cells(points, grid.n)
    shape = np.shape(points)[:-1]
    return tuple(_bilinear_sum(v, grid.n, flat, weights).reshape(shape)
                 for v in (v1, v2))


def dilate(mask):
    """Periodic 3 x 3 dilation of a bool mask: the OR of its shifted
    copies, one axis after the other, as slices of one wrap_pad copy."""
    p = wrap_pad(np.asarray(mask, dtype=bool))
    rows = p[:-2] | p[1:-1] | p[2:]
    return rows[:, :-2] | rows[:, 1:-1] | rows[:, 2:]


# --- serialization ----------------------------------------------------------

# Binary layout: little-endian float64 throughout, first the grid size N
# (as a float), then the N*N values row-major.  CSV mirrors the same
# row-major order with full round-trip precision.

def field_to_binary(values, path):
    """Write an (N, N) array of cell values, N taken from its shape."""
    values = np.asarray(values, dtype="<f8")
    header = np.array([float(values.shape[0])], dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(values.tobytes())


def field_from_binary(path):
    raw = np.fromfile(path, dtype="<f8")
    if raw.size < 1 or not np.isfinite(raw[0]) or raw[0] != int(raw[0]):
        raise ValueError(f"{path}: no whole grid size in the header")
    n = int(raw[0])
    if raw.size != 1 + n * n:
        raise ValueError(f"{path}: expected {n * n} values, found {raw.size - 1}")
    grid = TorusGrid(n)
    return TorusField(grid, raw[1:].reshape(n, n))


def field_from_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if [c.strip() for c in header] != ["i", "j", "value"]:
            raise ValueError(f"unexpected field CSV header: {header}")
        rows = [(int(i), int(j), float(v)) for i, j, v in reader]
    n = max(i for i, _, _ in rows) + 1
    # the row count bounds n first, so the cell list below is file-sized
    if (len(rows) != n * n or sorted((i, j) for i, j, _ in rows)
            != [(i, j) for i in range(n) for j in range(n)]):
        raise ValueError(f"field CSV rows are not the {n}x{n} cells, each once")
    values = np.empty((n, n), dtype=float)
    for i, j, v in rows:
        values[i, j] = v
    return TorusField(TorusGrid(n), values)

