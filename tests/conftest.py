"""Shared expensive set-up for the test modules."""

import pytest

from acclab.geometry import WarpFamily
from acclab.spectral import SLGrid, solve_mode


@pytest.fixture(scope="session")
def cone_mode_solves():
    """N = 8192, 200-pair solves of the c = 1 cone modes mu = 0 and mu = 2.

    The reference for the cone mode kernel oracle; read-only for its users.
    """
    fam = WarpFamily.capped(n=3, c=1.0)
    return {mu: solve_mode(fam.radial_operator(mu, 0.0), SLGrid(8192), 200)
            for mu in (0.0, 2.0)}
