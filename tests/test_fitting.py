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


def test_dyadic_ladder():
    assert dyadic_ladder(0.02, 4) == [0.02, 0.01, 0.005, 0.0025]
    assert dyadic_ladder(1.0, 1) == [1.0]
