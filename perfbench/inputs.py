"""Seeded inputs for the benchmark workloads.

Every input is a closed-form field drawn from numpy's default generator,
so one seed always gives the same inputs; the library only ever sees the
generated arrays.
"""

import numpy as np

TWO_PI = 2.0 * np.pi
N = 128
# pinch ratio max(rho) / min(rho) of the two-bump densities
RHO_LO, RHO_HI = 0.5, 2.0
# a(t) (2 pi)^2 for the polar family.  The range keeps the pushforward
# density within about 0.4..5.7 and every cold Newton solve at the same
# iteration count (below 0.47 it drops by one), so seeds differ in phase,
# not in work.
POLAR_AMPLITUDE = 0.55
POLAR_WOBBLE = 0.03


def centers(n):
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    return np.meshgrid(x, x, indexing="ij")


def wrap_delta(d):
    return d - np.round(d)


def two_bump(n, rng):
    """Two periodic Gaussian bumps, mapped onto [RHO_LO, RHO_HI] and
    normalized to unit mass (the ratio stays 4).

    The first centre is uniform on the torus; the second sits 0.3 to 0.4
    away in a uniform direction.  Placements near the half-period
    diagonal are avoided on purpose: there the two-bump lattice is nearly
    steady, div(rho U) nearly vanishes, and the relative residual of the
    linearized identity would measure its own small denominator.
    """
    first = rng.random(2)
    r, theta = rng.uniform(0.3, 0.4), rng.uniform(0.0, TWO_PI)
    second = (first + r * np.array([np.cos(theta), np.sin(theta)])) % 1.0
    widths = rng.uniform(0.15, 0.2, size=2)
    x1, x2 = centers(n)
    raw = np.zeros((n, n))
    for (a, b), w in zip((first, second), widths):
        d2 = wrap_delta(x1 - a) ** 2 + wrap_delta(x2 - b) ** 2
        raw += np.exp(-d2 / w**2)
    raw = (raw - raw.min()) / (raw.max() - raw.min())
    rho = RHO_LO + (RHO_HI - RHO_LO) * raw
    rho = rho / rho.mean()
    return rho, float(rho.min()), float(rho.max())


def bounded_flux(n, rng):
    """Flux F = (sin 2 pi (x2 + t1), cos 2 pi (x1 + t2)), |F| <= sqrt 2."""
    th = rng.random(2)
    x1, x2 = centers(n)
    return np.sin(TWO_PI * (x2 + th[0])), np.cos(TWO_PI * (x1 + th[1]))


class PolarFamily:
    """X_t = grad phi_t o s_t with phi_t = |x|^2/2 + a(t) c1 c2 and the
    measure-preserving shear s_t(x) = (x1 + sigma(t) sin 2 pi (x2 + theta), x2).

    By uniqueness of the polar factorization its factors are exactly
    grad P = grad phi_t and g = s_t.
    """

    def __init__(self, rng):
        self.phase_a, self.phase_s = rng.random(2) * TWO_PI
        self.theta = rng.random()
        self.sigma0 = rng.uniform(0.03, 0.06)

    def amplitude(self, t):
        return (POLAR_AMPLITUDE + POLAR_WOBBLE * np.sin(t + self.phase_a)) / TWO_PI**2

    def sigma(self, t):
        return self.sigma0 * np.cos(t + self.phase_s)

    def shear(self, n, t):
        """Displacement s_t(x) - x at the cell centres."""
        _, x2 = centers(n)
        d1 = self.sigma(t) * np.sin(TWO_PI * (x2 + self.theta))
        return d1, np.zeros_like(d1)

    def grad_q(self, y1, y2, t):
        """grad phi_t(y) - y."""
        a = self.amplitude(t)
        return (-TWO_PI * a * np.sin(TWO_PI * y1) * np.cos(TWO_PI * y2),
                -TWO_PI * a * np.cos(TWO_PI * y1) * np.sin(TWO_PI * y2))

    def displacement(self, n, t):
        """X_t(x) - x at the cell centres, wrapped."""
        x1, x2 = centers(n)
        s1, s2 = self.shear(n, t)
        y1, y2 = x1 + s1, x2 + s2
        g1, g2 = self.grad_q(y1, y2, t)
        return wrap_delta(y1 + g1 - x1), wrap_delta(y2 + g2 - x2)
