"""Sections of convex potentials and their affine normalization.

A section S(x0, h) is the sublevel set of the potential under its tangent
plane at x0 raised by h.  Everything is computed on the periodic lift
around x0: a member cell is represented by the periodic copy of its
center nearest to x0, which is unambiguous while the section diameter
stays below half a period (otherwise SectionWrapsTorus).

John normalization produces T z = A z + b with B_1 inside T^{-1}(S)
inside B_2 up to one cell width: A comes from the second-moment ellipse
of the member cells, outer-calibrated so the farthest member sits exactly
on the radius-2 sphere, and is verified constructively.  The moments
alone suffice: a planar convex body in isotropic position lies between
the balls of radius sqrt(2) and sqrt(8) (Kannan, Lovasz & Simonovits,
Discrete Comput. Geom. 13, 1995), which is John's factor 2.

The section keeps the 4-connected component of the center, found through
row runs.  Inside the half-period window the tangent deficit along a row
has second difference h^2 p22, and p22 > 0 because a ConvexPotential has
p11 > 0 and p11 p22 - p12^2 > 0; so each row of the sublevel set is one
run of cells, and the component is the block of rows around the center
row whose consecutive runs share a column.  A row of several runs
(rounding could only cause one where p22 is near zero) is an
InvariantViolation, never a silently different mask.
"""

import dataclasses

import numpy as np

from . import grid as gridmod
from .errors import (
    DegenerateSection,
    EmptySection,
    InvariantViolation,
    SectionWrapsTorus,
)
from .fitting import dyadic_ladder


@dataclasses.dataclass
class Section:
    """Connected cell mask of a potential sublevel set around a center."""

    grid: gridmod.TorusGrid
    center: np.ndarray  # snapped cell center, shape (2,)
    center_index: tuple
    height: float
    mask: np.ndarray  # (N, N) bool
    offsets: np.ndarray  # (M, 2) lifted member offsets from the center

    @property
    def n_cells(self):
        return int(np.count_nonzero(self.mask))

    @property
    def area(self):
        return self.n_cells * self.grid.cell_area

    def diameter(self):
        ext1 = self.offsets[:, 0].max() - self.offsets[:, 0].min()
        ext2 = self.offsets[:, 1].max() - self.offsets[:, 1].min()
        return float(np.hypot(ext1, ext2))


def extract_section(pot, x0, height):
    """Cells of S(x0, h) = {phi < tangent_at_x0 + h}, connected around x0.

    The tangent deficit at the lifted representative y = x0 + delta is
    |delta|^2/2 + q(y) - q(x0) - grad q(x0) . delta, so only the periodic
    part of the potential enters.  The offsets delta come from
    grid.offsets_from as one row and one column (O(N) wrapped values);
    broadcasting them gives the N x N wrapped meshgrid bit for bit, so
    masks and offsets do not depend on the form.

    Raises
    ------
    EmptySection
        Height below one-cell resolution (only the center cell qualifies).
    SectionWrapsTorus
        The sublevel set reaches half a period from the center.
    ValueError
        x0 is not finite (grid.index_of).
    """
    if height <= 0.0:
        raise EmptySection(f"section height must be positive, got {height}")
    grid = pot.grid
    h = grid.spacing
    i0, j0 = grid.index_of(np.asarray(x0, dtype=float))
    x0c = np.array([(i0 + 0.5) * h, (j0 + 0.5) * h])

    d1, d2 = grid.offsets_from(i0, j0)
    deficit = (
        0.5 * (d1**2 + d2**2)
        + pot.q
        - pot.q[i0, j0]
        - pot.g1[i0, j0] * d1
        - pot.g2[i0, j0] * d2
    )
    raw = deficit < height
    if not raw[i0, j0]:
        raise EmptySection("center cell fails its own tangent test")

    # if the sublevel reaches the edge of the half-period window the lift
    # is ambiguous
    edge = 0.5 - 1.5 * h
    if np.any(raw & ((np.abs(d1) >= edge) | (np.abs(d2) >= edge))):
        raise SectionWrapsTorus(
            f"section at height {height} reaches half a period from {x0c}"
        )

    mask = raw & _component_rows(raw, i0, j0)[:, None]

    count = int(np.count_nonzero(mask))
    if count < 2:
        raise EmptySection(
            f"height {height} is below one-cell resolution at spacing {h}"
        )
    offsets = np.column_stack([np.broadcast_to(d, mask.shape)[mask]
                               for d in (d1, d2)])
    return Section(grid, x0c, (int(i0), int(j0)), float(height), mask,
                   offsets)


def _component_rows(raw, i0, j0):
    """Rows of the 4-connected component of raw around cell (i0, j0),
    as an (N,) bool array, for a raw mask with one run per row.

    Rolled so the center sits at (N // 2, N // 2), raw stays clear of the
    array edges (the half-period window), so no run or row straddles the
    seam.  With one run per row the component is the block of rows around
    the center row whose consecutive runs share a column.  Raises
    InvariantViolation on a row of raw with more than one run.
    """
    n = raw.shape[0]
    shift = (n // 2 - i0, n // 2 - j0)
    rolled = np.roll(raw, shift, axis=(0, 1))
    first = np.argmax(rolled, axis=1)
    last = n - 1 - np.argmax(rolled[:, ::-1], axis=1)
    count = np.count_nonzero(rolled, axis=1)
    if np.any((count > 0) & (count != last - first + 1)):
        raise InvariantViolation(
            "section_row_runs",
            "a row of the sublevel set splits into several runs, which a "
            "discretely convex potential rules out")
    # link[k]: rows k and k + 1 both have runs and they share a column;
    # rows 0 and N - 1 are empty, so there is a break on either side
    link = ((count[:-1] > 0) & (count[1:] > 0)
            & (first[1:] <= last[:-1]) & (first[:-1] <= last[1:]))
    c = n // 2
    lo = np.flatnonzero(~link[:c])[-1] + 1
    hi = c + np.flatnonzero(~link[c:])[0]
    keep = np.zeros(n, dtype=bool)
    keep[lo:hi + 1] = True
    return np.roll(keep, -shift[0])


def section_ladder(pot, x0, top_height, rungs):
    """Sections at the heights of dyadic_ladder(top_height, rungs)."""
    return [extract_section(pot, x0, h)
            for h in dyadic_ladder(top_height, rungs)]


# --- John normalization -------------------------------------------------------

@dataclasses.dataclass
class JohnNormalization:
    """Affine map T z = A z + b normalizing a section.

    b is expressed in lifted offset coordinates relative to the section
    center; containment_ok records the constructive sandwich check
    B_1 in T^{-1}(S) in B_2 (one-cell tolerance).  method names the
    construction; the second-moment ellipse is the only one.
    """

    A: np.ndarray
    b: np.ndarray
    det_A: float
    semi_axes: np.ndarray
    containment_ok: bool
    outer_ok: bool
    inner_ok: bool
    method: str = "moments"


def verify_containment(section, A, b):
    """Constructive sandwich check with one-cell tolerance.

    Outer: every member offset maps into B_2 (padded by a cell diagonal).
    Inner: the image of the unit circle, at 64 angles, lands on member
    cells (or within one cell of one, _near_member); convexity of the
    section covers the interior.
    """
    h = section.grid.spacing
    Ainv = np.linalg.inv(A)
    z = (section.offsets - b) @ Ainv.T
    pad = 0.5 * np.sqrt(2.0) * h * np.linalg.norm(Ainv, 2)
    outer_ok = bool(np.max(np.hypot(z[:, 0], z[:, 1])) <= 2.0 + pad)

    angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    ys = circle @ A.T + b
    i, j = section.grid.index_of(gridmod.wrap(section.center + ys))
    inner_ok = bool(np.all(_near_member(section.mask, i, j)))
    return outer_ok, inner_ok


def _near_member(mask, i, j):
    """Whether each cell (i, j) has a member of the mask in its 3 x 3
    periodic neighbourhood: the periodic 3 x 3 dilation of the mask read
    at those cells only."""
    n = mask.shape[0]
    d = np.arange(-1, 2)
    near = mask[(i[:, None, None] + d[:, None]) % n, (j[:, None, None] + d) % n]
    return np.any(near, axis=(1, 2))


def _principal_frame(pts, cell_h):
    b = pts.mean(axis=0)
    centered = pts - b
    cov = centered.T @ centered / len(pts) + (cell_h**2 / 12.0) * np.eye(2)
    w, v = np.linalg.eigh(cov)
    if np.linalg.det(v) < 0:
        v = v[:, ::-1].copy()
        w = w[::-1].copy()
    return b, w, v


def john_normalize(section):
    """Normalizing map from the second-moment ellipse of the member cells.

    Principal axes are matched to the covariance (exact for an ellipse),
    then the axes are scaled so the farthest member cell sits, including a
    one-cell pad, exactly on radius 2 -- this pins the outer inclusion and
    leaves the inner one to verify.  A failed check is reported through
    containment_ok, outer_ok and inner_ok, not raised.
    """
    grid = section.grid
    h = grid.spacing
    pts = section.offsets
    b, w, v = _principal_frame(pts, h)
    semi = 2.0 * np.sqrt(w)
    if np.min(semi) < 1.5 * h:
        raise DegenerateSection(
            f"section thinner than 3 cells across (semi-axes {semi})"
        )
    z = (pts - b) @ v / semi[None, :]
    pad = 0.5 * np.sqrt(2.0) * h / np.min(semi)
    rmax = float(np.max(np.hypot(z[:, 0], z[:, 1]))) + pad
    semi = semi * (rmax / 2.0)
    A = v @ np.diag(semi)
    outer_ok, inner_ok = verify_containment(section, A, b)
    return JohnNormalization(
        A=A,
        b=b,
        det_A=float(np.linalg.det(A)),
        semi_axes=semi,
        containment_ok=outer_ok and inner_ok,
        outer_ok=outer_ok,
        inner_ok=inner_ok,
    )
