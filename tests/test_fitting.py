import numpy as np
import pytest

from sgtorus.errors import InsufficientSamples
from sgtorus.fitting import dyadic_ladder, linear_fit, loglog_fit


class TestLogLogFit:
    def test_exact_power_law(self):
        x = np.array([0.02, 0.01, 0.005, 0.0025])
        fit = loglog_fit(x, 3.0 * x**1.7)
        assert fit.slope == pytest.approx(1.7, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 4

    def test_drops_nonpositive_pairs(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0, -1.0])
        y = np.array([1.0, 2.0, 4.0, 0.0, 16.0, 32.0])
        fit = loglog_fit(x, y, min_points=4)
        assert fit.n_points == 4
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamples):
            loglog_fit([1.0, 2.0], [1.0, 2.0])


class TestLinearFit:
    def test_exact_line(self):
        x = np.linspace(0.0, 1.0, 9)
        fit = linear_fit(x, -2.0 * x + 0.5)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 8, 30])
    def test_agrees_with_polyfit(self, m):
        rng = np.random.default_rng(m)
        x = rng.random(m)
        y = 2.0 * x + 1.0 + 0.1 * rng.standard_normal(m)
        fit = linear_fit(x, y, min_points=2)
        slope, intercept = np.polyfit(x, y, 1)
        assert fit.slope == pytest.approx(slope, rel=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-12)
        ss_tot = np.sum((y - y.mean()) ** 2)
        r2 = 1.0 - np.sum((y - slope * x - intercept) ** 2) / ss_tot
        assert fit.r2 == pytest.approx(r2, rel=1e-12)

    def test_equal_abscissae(self):
        with pytest.raises(InsufficientSamples):
            linear_fit(np.full(5, 0.3), np.arange(5.0))

    def test_constant_ordinate(self):
        fit = linear_fit(np.arange(5.0), np.full(5, 1.5))
        assert fit.slope == 0.0
        assert fit.intercept == 1.5
        assert fit.r2 == 1.0


def test_dyadic_ladder():
    assert dyadic_ladder(0.02, 4) == [0.02, 0.01, 0.005, 0.0025]
    assert dyadic_ladder(1.0, 1) == [1.0]
