"""The package starts on numpy alone.

A fresh interpreter imports sgtorus and its CLI, runs a short time loop
and one polar factorization, and must not have loaded scipy.ndimage or
scipy.sparse by then; scipy.sparse comes in with the first masked
operator, which assembles a CSR matrix.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

import sgtorus
import sgtorus.cli
from sgtorus import TorusGrid, dynamics, lma, ma, polar, presets, sections


def loaded():
    return [m for m in ("scipy.ndimage", "scipy.sparse") if m in sys.modules]


grid = TorusGrid(16)
rho0, lam, Lam = presets.two_mode_density(grid)
dynamics.run(rho0, grid, dt=2e-3, t_end=0.01, lam=lam, Lam=Lam)
polar.factorize(presets.shear_map(grid))
print(loaded())
pot = ma.solve_ma_periodic(rho0, lam=lam, Lam=Lam)
sec = sections.extract_section(pot, (0.5, 0.5), 0.05)
lma.DivergenceFormOperator(grid, ma.cofactor(pot), mask=sec.mask)
print(loaded())
"""


def test_scipy_loads_only_with_a_masked_operator():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "['scipy.sparse']"]
