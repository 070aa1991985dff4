import os

# one BLAS/OpenMP thread: the results do not depend on it (the Krylov
# solves reduce in a fixed order), but a second thread only adds
# contention on a small machine; must be set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from sgtorus import dynamics, presets  # noqa: E402
from sgtorus.grid import TorusGrid  # noqa: E402


@pytest.fixture(scope="session")
def short_run():
    """25-step mixed-spectrum run on a coarse grid, shared across tests."""
    grid = TorusGrid(32)
    rho0, lam, Lam = presets.two_mode_density(grid)
    return dynamics.run(rho0, grid, dt=2e-3, t_end=0.05, lam=lam, Lam=Lam)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
