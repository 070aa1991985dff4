import numpy as np
import pytest
from scipy import ndimage

from sgtorus import presets, sections
from sgtorus.errors import (
    DegenerateSection,
    EmptySection,
    InvariantViolation,
    SectionWrapsTorus,
)
from sgtorus.grid import TorusGrid
from sgtorus.ma import solve_ma_periodic


def deficit_below(pot, center_index, height):
    """The raw sublevel set {deficit < h} of the tangent at a cell."""
    i0, j0 = center_index
    d1, d2 = pot.grid.offsets_from(i0, j0)
    deficit = (0.5 * (d1**2 + d2**2) + pot.q - pot.q[i0, j0]
               - pot.g1[i0, j0] * d1 - pot.g2[i0, j0] * d2)
    return deficit < height


def label_component(raw, i0, j0):
    """The 4-connected component of cell (i0, j0) by ndimage.label on the
    mask rolled to put it mid-array, the reference for the row runs."""
    n = raw.shape[0]
    shift = (n // 2 - i0, n // 2 - j0)
    labels, _ = ndimage.label(np.roll(raw, shift, axis=(0, 1)))
    keep = labels == labels[n // 2, n // 2]
    return np.roll(keep, (-shift[0], -shift[1]), axis=(0, 1))


@pytest.fixture(scope="module")
def pinch_100_potential():
    rho, lam, Lam = presets.two_bump_density(TorusGrid(64), lo=0.1, hi=10.0)
    return solve_ma_periodic(rho, lam=lam, Lam=Lam)


@pytest.fixture(scope="module")
def disc_section():
    pot = presets.quadratic_potential(TorusGrid(128))
    return sections.extract_section(pot, (0.5, 0.5), 0.02)


class TestExtraction:
    def test_disc_geometry(self, disc_section):
        # S(x0, h) of the exact quadratic is the disc of radius sqrt(2h);
        # diameter() reports the bounding-box diagonal, 2 sqrt(2) r for a disc
        sec = disc_section
        radius = np.sqrt(2 * 0.02)
        assert sec.area == pytest.approx(np.pi * radius**2, rel=0.02)
        assert sec.diameter() == pytest.approx(2 * np.sqrt(2) * radius, rel=0.05)
        assert np.max(np.hypot(*sec.offsets.T)) <= radius

    def test_center_snaps_to_cell(self, disc_section):
        sec = disc_section
        assert sec.center_index == (64, 64)
        assert np.allclose(sec.center, [0.50390625, 0.50390625])
        assert sec.mask[sec.grid.index_of(np.array([0.5, 0.5]))]

    def test_connected_single_component(self):
        grid = TorusGrid(64)
        pot = presets.perturbed_potential(grid)
        sec = sections.extract_section(pot, (0.31, 0.47), 0.03)
        labels, count = ndimage.label(sec.mask)
        assert count == 1
        # the sublevel set has no other component, so no cell is dropped
        assert np.array_equal(sec.mask,
                              deficit_below(pot, sec.center_index, 0.03))

    @pytest.mark.parametrize("center", [(0.3, 0.3), (0.62, 0.41),
                                        (0.01, 0.5), (0.5, 0.995),
                                        (0.996, 0.004)],
                             ids=["bump", "saddle", "seam-x1", "seam-x2",
                                  "corner"])
    def test_component_matches_label_on_pinch_100_ladder(
            self, pinch_100_potential, center):
        pot = pinch_100_potential
        compared = 0
        for h in 0.12 * 0.5 ** np.arange(8):
            try:
                sec = sections.extract_section(pot, center, h)
            except (EmptySection, SectionWrapsTorus):
                continue
            raw = deficit_below(pot, sec.center_index, h)
            assert np.array_equal(sec.mask,
                                  label_component(raw, *sec.center_index))
            compared += 1
        assert compared >= 4

    @pytest.mark.parametrize("shift", [(0, 0), (8, 8), (9, 7)])
    def test_component_drops_row_touching_at_a_corner(self, shift):
        # rows 7 and 8 share columns; row 9 meets row 8 only at a corner,
        # and row 10 continues row 9: 4-connectivity keeps rows 7 and 8
        raw = np.zeros((16, 16), dtype=bool)
        raw[7, 7:9] = raw[8, 6:10] = raw[9, 10:13] = raw[10, 9:12] = True
        raw = np.roll(raw, shift, axis=(0, 1))
        i0, j0 = (8 + shift[0]) % 16, (8 + shift[1]) % 16
        keep = raw & sections._component_rows(raw, i0, j0)[:, None]
        assert np.array_equal(keep, label_component(raw, i0, j0))
        assert np.count_nonzero(keep) == 6

    def test_row_with_two_runs_is_invariant_violation(self):
        raw = np.zeros((16, 16), dtype=bool)
        raw[8, 6:10] = True
        raw[9, 5:7] = raw[9, 8:10] = True
        with pytest.raises(InvariantViolation, match="section_row_runs"):
            sections._component_rows(raw, 8, 8)

    def test_wrapping_section_rejected(self):
        pot = presets.quadratic_potential(TorusGrid(64))
        with pytest.raises(SectionWrapsTorus):
            sections.extract_section(pot, (0.5, 0.5), 0.2)

    def test_below_resolution_rejected(self):
        pot = presets.quadratic_potential(TorusGrid(16))
        with pytest.raises(EmptySection):
            sections.extract_section(pot, (0.5, 0.5), 1e-5)
        with pytest.raises(EmptySection):
            sections.extract_section(pot, (0.5, 0.5), -0.1)

    @pytest.mark.parametrize("center", [(np.nan, 0.5), (0.5, np.inf),
                                        (-np.inf, np.nan)])
    def test_nonfinite_center_rejected(self, center):
        # a NaN once cast to cell 0 and extracted a section there
        pot = presets.quadratic_potential(TorusGrid(32))
        with pytest.raises(ValueError, match="not finite"):
            sections.extract_section(pot, center, 0.02)

    def test_sections_shift_with_center(self):
        # q = 0, so sections at different centers are translates
        pot = presets.quadratic_potential(TorusGrid(64))
        a = sections.extract_section(pot, (0.25, 0.25), 0.02)
        b = sections.extract_section(pot, (0.75, 0.75), 0.02)
        assert a.n_cells == b.n_cells
        assert np.array_equal(np.sort(a.offsets, axis=0),
                              np.sort(b.offsets, axis=0))

    def test_ladder_is_nested(self):
        grid = TorusGrid(64)
        pot = presets.perturbed_potential(grid)
        ladder = sections.section_ladder(pot, (0.5, 0.5), 0.04, 3)
        assert [s.height for s in ladder] == [0.04, 0.02, 0.01]
        for big, small in zip(ladder, ladder[1:]):
            assert np.all(big.mask[small.mask])

    def test_area_scales_linearly_in_height(self):
        # det D^2 P* pinched near 1 forces |S(h)| comparable to h
        grid = TorusGrid(128)
        pot = presets.perturbed_potential(grid)
        ladder = sections.section_ladder(pot, (0.37, 0.83), 0.04, 4)
        ratios = [s.area / s.height for s in ladder]
        assert max(ratios) / min(ratios) <= 1.5


class TestJohnNormalization:
    def test_disc_normalizes_to_round_ellipse(self, disc_section):
        john = sections.john_normalize(disc_section)
        assert john.containment_ok
        ratio = np.max(john.semi_axes) / np.min(john.semi_axes)
        assert ratio <= 1.1
        # axes use the radius-2 convention: S is about A applied to the
        # 2-ball, so the ellipse area 4 pi a b should track the cell area
        assert 4 * np.pi * np.prod(john.semi_axes) == pytest.approx(
            disc_section.area, rel=0.1
        )

    def test_containment_proof_matches_flag(self, disc_section):
        john = sections.john_normalize(disc_section)
        inner, outer = sections.verify_containment(disc_section, john.A, john.b)
        assert inner and outer

    def test_near_member_is_wrapped_dilation(self, rng):
        # the 3 x 3 neighbourhoods read directly agree with the periodic
        # dilation of the whole mask, at seam and corner cells too
        n = 16
        mask = rng.random((n, n)) < 0.1
        mask[0, 0] = mask[5, n - 1] = True
        near = ndimage.maximum_filter(mask, size=3, mode="wrap")
        assert not np.all(near)
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        i, j = i.ravel(), j.ravel()
        assert np.array_equal(sections._near_member(mask, i, j), near[i, j])
        # (0, 0) is a member, so every corner of the array is near one
        corners = np.array([0, 0, n - 1, n - 1]), np.array([0, n - 1, 0, n - 1])
        assert np.all(sections._near_member(mask, *corners))

    def test_degenerate_thin_section(self):
        # five cells in a plus shape extract fine but cannot be normalized
        pot = presets.quadratic_potential(TorusGrid(32))
        sec = sections.extract_section(pot, (0.5, 0.5), 6e-4)
        assert sec.n_cells <= 5
        with pytest.raises(DegenerateSection):
            sections.john_normalize(sec)

    def test_anisotropic_section_extents_match_1d_oracle(self):
        # phi = |x|^2/2 + a cos(2 pi x1) around the cosine minimum: the
        # tangent deficit along x1 is x^2/2 + a (1 - cos(2 pi x)), along
        # x2 exactly x^2/2, so both half-extents solve 1D equations
        from scipy.optimize import brentq

        from sgtorus.ma import ConvexPotential
        grid = TorusGrid(128)
        x1, _ = grid.centers()
        a, height = 0.012, 0.01
        pot = ConvexPotential(grid, a * np.cos(2 * np.pi * x1))
        sec = sections.extract_section(pot, (0.5, 0.5), height)

        ext1 = sec.offsets[:, 0].max() - sec.offsets[:, 0].min()
        ext2 = sec.offsets[:, 1].max() - sec.offsets[:, 1].min()
        half1 = brentq(
            lambda x: 0.5 * x * x + a * (1 - np.cos(2 * np.pi * x)) - height,
            1e-6, 0.45,
        )
        half2 = np.sqrt(2 * height)
        assert ext1 / 2 == pytest.approx(half1, abs=2 * grid.spacing)
        assert ext2 / 2 == pytest.approx(half2, abs=2 * grid.spacing)

        # the moment ellipse of the egg-shaped section is rounder than the
        # extent box but must still point the long axis along x2
        john = sections.john_normalize(sec)
        ratio = np.max(john.semi_axes) / np.min(john.semi_axes)
        assert 1.05 < ratio < (half2 / half1) * 1.05

    @pytest.mark.parametrize("lo, hi", [(0.5, 2.0), (0.02, 50.0)])
    def test_two_bump_sections_certified_by_moments(self, lo, hi):
        # pinch ratios 4 and 2500: every section that normalizes passes
        # the sandwich check with the second-moment ellipse alone
        grid = TorusGrid(48)
        rho, lam, Lam = presets.two_bump_density(grid, lo, hi)
        pot = solve_ma_periodic(rho, lam=lam, Lam=Lam)
        centers = np.random.default_rng(0).random((12, 2))
        normalized = 0
        for c in centers:
            for height in (0.04, 0.02, 0.01, 0.005):
                try:
                    john = sections.john_normalize(
                        sections.extract_section(pot, c, height))
                except (SectionWrapsTorus, EmptySection, DegenerateSection):
                    continue
                normalized += 1
                assert john.containment_ok
                assert john.method == "moments"
        assert normalized >= 40

    def test_ring_fails_inner_check_without_raising(self):
        # an annulus of radii 11 and 15 cells: the moment ellipse is
        # calibrated to the outer rim, so its half-size inner ellipse
        # (radius about 7.5 cells) falls into the hole
        grid = TorusGrid(64)
        i0 = j0 = 32
        di, dj = np.meshgrid(np.arange(64) - i0, np.arange(64) - j0,
                             indexing="ij")
        r = np.hypot(di, dj)
        mask = (r >= 11) & (r <= 15)
        h = grid.spacing
        offsets = np.column_stack([di[mask], dj[mask]]) * h
        center = np.array([(i0 + 0.5) * h, (j0 + 0.5) * h])
        ring = sections.Section(grid, center, (i0, j0), 0.01, mask, offsets)
        john = sections.john_normalize(ring)
        assert john.outer_ok
        assert not john.inner_ok
        assert not john.containment_ok
        assert john.method == "moments"
