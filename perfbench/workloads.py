"""The three workloads: what one set-up, one round and one op are.

A round is a fixed unit of work and every round of a run repeats the
same computation on the same seeded inputs, so per-round counts repeat
exactly and a run attempts whole rounds.  Ops are timed where the
library calls them: the time loop's `step`, the polar pipeline's
`factorize`, and the benchmark's own per-centre section/Green sequence.
"""

import time

import numpy as np

import checks
import inputs
from sgtorus import SGTorusError, TorusGrid
from sgtorus import dynamics, lma, polar, regularity, sections
from sgtorus.ma import cofactor, solve_ma_periodic
from sgtorus.polar import MapTimeSeries

# timeloop: 24 steps of dt = 2.5e-4 keep the warm Newton solve at one
# iteration per step for every seed (at 1e-3 some seeds take two, which
# doubles the step).  The report fits 20 centres: about 3% of centres fit
# with R^2 just under 0.8, so with the library's default of 5 a seed with
# two such centres would fail the 80% check.
STEPS = 24
DT = 2.5e-4
REPORT_CENTRES = 20
# lma-sections: height of the top rung of every section ladder
TOP = 0.02
# polar-series: the timestamps of the map series
TIMES = [0.3 + 0.1 * k for k in range(6)]


class Workload:
    def __init__(self, seed, n=inputs.N):
        self.seed = seed
        self.n = n
        self.grid = TorusGrid(n)
        self.op_ms = []  # every op attempted, failed ones included
        self.failed = 0

    def timed(self, fn):
        def op(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except SGTorusError:
                self.failed += 1
                raise
            finally:
                self.op_ms.append((time.perf_counter() - t) * 1e3)
        return op

    def rng(self):
        return np.random.default_rng(self.seed)


class TimeLoop(Workload):
    """`run` on a seeded two-bump density (pinch ratio 4), then the
    Holder-in-time report.  An op is one `step`."""

    name = "timeloop"

    def __init__(self, seed, n=inputs.N):
        super().__init__(seed, n)
        dynamics.step = self.timed(dynamics.step)

    def setup(self):
        self.rho0, self.lam, self.Lam = inputs.two_bump(self.n, self.rng())
        state = dynamics.SGState.from_density(self.rho0, self.grid,
                                              lam=self.lam, Lam=self.Lam)
        dynamics.step(state, DT)

    def round(self):
        res = dynamics.run(self.rho0, self.grid, dt=DT, t_end=STEPS * DT,
                           lam=self.lam, Lam=self.Lam)
        rep = dynamics.holder_in_time_report(res, n_centers=REPORT_CENTRES,
                                             seed=self.seed)
        return {
            "rho": res.rho_history, "q": res.q_history,
            "lam": self.lam, "Lam": self.Lam,
            "lma_residual": [c["lma_residual"] for c in res.certificates],
            "gamma_min": rep.summary["gamma_min"],
            "r2_ok_fraction": rep.summary["r2_ok_fraction"],
        }

    check = staticmethod(checks.timeloop)


class LmaSections(Workload):
    """One cold MA solve of a seeded two-bump density in set-up; each op
    is one seeded centre: section ladder with John normalization, Green
    integrability ladder, a flux-driven Dirichlet solve and the
    oscillation decay of a homogeneous Dirichlet solution."""

    name = "lma-sections"

    def __init__(self, seed, n=inputs.N, centres=16, rungs=4):
        super().__init__(seed, n)
        self.n_centres, self.rungs = centres, rungs
        self.op = self.timed(self._op)

    def setup(self):
        rng = self.rng()
        rho0, lam, Lam = inputs.two_bump(self.n, rng)
        self.pot = solve_ma_periodic(rho0, self.grid, lam=lam, Lam=Lam)
        self.cof = cofactor(self.pot)
        self.F = inputs.bounded_flux(self.n, rng)
        self.centres = rng.random((self.n_centres, 2))
        self.op(self.centres[0])

    def _op(self, c):
        pot, cof, grid = self.pot, self.cof, self.grid
        ladder = sections.section_ladder(pot, c, TOP, self.rungs)
        johns = [sections.john_normalize(s) for s in ladder]
        heights = [s.height for s in ladder]
        green = lma.green_integrability_report(pot, c, heights)
        top = ladder[0].mask
        op = lma.DivergenceFormOperator(grid, cof, mask=top)
        u, _ = lma.solve_dirichlet_lma(cof, top, grid, F=self.F, operator=op)
        uh = self._homogeneous(c)
        decay = regularity.oscillation_decay(uh, pot, c, TOP, rungs=self.rungs)
        return {
            "heights": heights,
            "masks": [s.mask for s in ladder],
            "center": ladder[0].center,
            "offsets": [s.offsets for s in ladder],
            "john": [(j.A, j.b) for j in johns],
            "symmetry_defect": green["symmetry_defect"],
            "positivity_floor": green["positivity_floor"],
            "green_mass": [r["norm"] for r in green["rows"] if r["p"] == 1.0],
            "F": self.F, "flux_mask": top, "u": u, "matrix": op.matrix,
            "uh": uh, "decay_ratios": [r.ratio for r in decay.rows],
        }

    def _homogeneous(self, c):
        """A solution of L u = 0 on the top section: the Green's function of
        S(c, 2 top) with its pole at the member farthest from c.

        A boundary-data solve (solve_dirichlet_lma with boundary_values)
        is not used: its boundary ring is not periodic, so on sections
        across the array seam it drops ring cells and, on some seeds,
        fails its own maximum-principle check.
        """
        outer = sections.extract_section(self.pot, c, 2.0 * TOP)
        far = np.argmax(np.hypot(outer.offsets[:, 0], outer.offsets[:, 1]))
        pole = tuple(np.argwhere(outer.mask)[far])
        green = lma.green_function(self.cof, outer.mask, pole, self.grid)
        return green.values

    def round(self):
        ops = []
        for c in self.centres:
            try:
                ops.append(self.op(c))
            except SGTorusError:
                continue
        return ops

    check = staticmethod(checks.lma_sections)


class PolarSeries(Workload):
    """`polar_time_regularity` on X_t = grad phi_t o s_t at the TIMES;
    an op is one timestamp's `factorize` (a cold MA solve, Legendre,
    pushforward)."""

    name = "polar-series"

    def __init__(self, seed, n=inputs.N):
        super().__init__(seed, n)
        polar.factorize = self.timed(polar.factorize)

    def setup(self):
        self.family = inputs.PolarFamily(self.rng())
        self.series = MapTimeSeries.from_displacements(
            self.grid, TIMES, [self.family.displacement(self.n, t) for t in TIMES])
        polar.factorize(self.series.maps[0])

    def round(self):
        out = polar.polar_time_regularity(self.series, seed=self.seed)
        facts = out["factorizations"]
        grad_p = [f.leg.gradient_displacement() for f in facts]
        return {
            "family": self.family, "times": TIMES,
            "g": [(f.g.d1, f.g.d2) for f in facts],
            "grad_p": [(d.d1, d.d2) for d in grad_p],
            "gamma_min": out["summary"]["gamma_min"],
        }

    check = staticmethod(checks.polar_series)


WORKLOADS = {w.name: w for w in (TimeLoop, LmaSections, PolarSeries)}
