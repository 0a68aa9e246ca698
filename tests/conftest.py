"""Fixtures shared by the test modules."""

import numpy as np
import pytest


def _fd_hessian_per_point(fun, z, h):
    """fd_hessian as a loop over its stencil points, one call of fun each:
    the reference the one-call stencil must match to the bit."""
    z = np.asarray(z, dtype=float)
    steps = h * np.eye(z.size)
    f0 = fun(z)
    H = np.empty((z.size, z.size))
    for i, ei in enumerate(steps):
        H[i, i] = (fun(z + ei) - 2 * f0 + fun(z - ei)) / h ** 2
        for j in range(i + 1, z.size):
            ej = steps[j]
            H[i, j] = H[j, i] = (fun(z + ei + ej) - fun(z + ei - ej)
                                 - fun(z - ei + ej) + fun(z - ei - ej)) / (4 * h ** 2)
    return H


@pytest.fixture
def fd_hessian_per_point():
    return _fd_hessian_per_point
