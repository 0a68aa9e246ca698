import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdlab.dynamics import Trajectory
from ecdlab.grids import (CurrentField, DepositError, DepositKernel, EventGrid,
                          boundary_flux3, deposit_line_current, fd_grad,
                          fd_hessian, grid_charge, grid_divergence, slice_integral)


def small_grid():
    return EventGrid(origin=(-0.5, -1.0, -1.0, -1.0),
                     spacings=(0.25, 0.25, 0.25, 0.25), extents=(5, 9, 9, 9))


def test_grid_axes_and_volumes():
    g = small_grid()
    assert np.allclose(g.axis(0), [-0.5, -0.25, 0.0, 0.25, 0.5])
    assert g.cell_volume3 == pytest.approx(0.25 ** 3)
    assert g.points().shape == (5, 9, 9, 9, 4)


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        EventGrid(origin=(0, 0, 0, 0), spacings=(0.1, -0.1, 0.1, 0.1),
                  extents=(2, 2, 2, 2))
    with pytest.raises(ValueError):
        EventGrid(origin=(0, 0, 0, 0), spacings=(0.1, 0.1, 0.1, 0.1),
                  extents=(2, 2, 2))


def test_divergence_on_linear_current():
    """j = (x1, t, 2 x2, -3 x3) has d.j = 0 + 0 + 2 - 3 = -1 exactly."""
    g = small_grid()

    def fn(pts):
        out = np.zeros(pts.shape)
        out[..., 0] = pts[..., 1]
        out[..., 1] = pts[..., 0]
        out[..., 2] = 2.0 * pts[..., 2]
        out[..., 3] = -3.0 * pts[..., 3]
        return out

    j = CurrentField(g, fn(g.points()))
    div = grid_divergence(j)
    interior = div[1:-1, 1:-1, 1:-1, 1:-1]
    assert np.allclose(interior, -1.0, atol=1e-12)
    assert np.isnan(div[0, 0, 0, 0])
    assert np.nanmax(np.abs(div)) == pytest.approx(1.0)


def test_current_field_shape_check():
    g = small_grid()
    with pytest.raises(ValueError):
        CurrentField(g, np.zeros((2, 2, 2, 2, 4)))


coords = st.floats(min_value=-0.7, max_value=0.7)


@given(x=st.tuples(coords, coords, coords))
@settings(max_examples=50, deadline=None)
def test_trilinear_weights_partition_unity(x):
    g = small_grid()
    spread = DepositKernel("trilinear").spread(g, np.asarray(x))
    assert sum(w for _, w in spread) == pytest.approx(1.0, abs=1e-12)
    # linear moments reproduced exactly
    for axis in range(3):
        moment = sum(w * (g.origin[1 + axis] + g.spacings[1 + axis] * idx[axis])
                     for idx, w in spread)
        assert moment == pytest.approx(x[axis], abs=1e-12)


def test_nearest_kernel_single_cell():
    g = small_grid()
    spread = DepositKernel("nearest").spread(g, np.array([0.06, 0.0, 0.0]))
    assert len(spread) == 1 and spread[0][1] == 1.0


def test_deposit_charge_exact_every_slice():
    g = small_grid()
    traj = Trajectory.uniform((1.0, 0.21, 0.13, -0.08), s_span=(-3, 3), n=301, q=1.0)
    for kind in ("nearest", "trilinear"):
        j = deposit_line_current(traj, g, DepositKernel(kind),
                                 lambda s, gam, gd: 1.0)
        for k in range(g.extents[0]):
            assert grid_charge(j, k) == pytest.approx(1.0, abs=1e-12)


def test_deposit_outside_grid_raises():
    g = small_grid()
    traj = Trajectory.uniform((1.0, 2.0, 0.0, 0.0), s_span=(-3, 3), n=301)
    with pytest.raises(DepositError):
        deposit_line_current(traj, g, DepositKernel("trilinear"),
                             lambda s, gam, gd: 1.0)


def test_deposit_rejects_non_monotone_time():
    g = small_grid()
    s = np.linspace(-1, 1, 101)
    gammas = np.stack([s ** 2, 0 * s, 0 * s, 0 * s], axis=1)  # turns in x^0
    gdots = np.stack([2 * s, 0 * s, 0 * s, 0 * s], axis=1)
    traj = Trajectory(s, gammas, gdots)
    with pytest.raises(DepositError):
        deposit_line_current(traj, g, DepositKernel("trilinear"),
                             lambda s_, gam, gd: 1.0)


def test_slice_integral_and_charge_agree():
    g = small_grid()
    vals = np.random.default_rng(0).normal(size=g.extents + (4,))
    j = CurrentField(g, vals)
    for k in range(g.extents[0]):
        assert grid_charge(j, k) == pytest.approx(
            slice_integral(g, vals[..., 0], k))
    with pytest.raises(IndexError):
        grid_charge(j, 99)


def test_boundary_flux_of_uniform_current_vanishes():
    g = small_grid()
    vals = np.zeros(g.extents + (4,))
    vals[..., 1] = 2.0   # constant spatial current: inflow equals outflow
    assert boundary_flux3(CurrentField(g, vals), 0) == pytest.approx(0.0)


def test_boundary_flux_sign_for_outward_flow():
    g = small_grid()
    pts = g.points()
    vals = np.zeros(g.extents + (4,))
    vals[..., 1] = pts[..., 1]   # j_x = x: outward on both x faces
    flux = boundary_flux3(CurrentField(g, vals), 0)
    assert flux > 0


# ---------------------------------------------------------------------------
# central-difference stencils on callables


def _cubic(x):
    """x0^3 + 2 x1^2 x2 - x0 x1 x3 + x3^3 / 2, vectorized over leading axes."""
    x0, x1, x2, x3 = np.moveaxis(x, -1, 0)
    return x0 ** 3 + 2 * x1 ** 2 * x2 - x0 * x1 * x3 + 0.5 * x3 ** 3


def test_fd_grad_of_a_cubic_carries_its_third_derivative():
    """For a cubic the central difference is exact up to h^2 f_iii / 6."""
    h = 1e-2
    x = np.array([[0.3, -0.7, 1.1, 0.4], [-1.2, 0.5, 0.2, -0.9]])
    x0, x1, x2, x3 = x.T
    exact = np.array([3 * x0 ** 2 - x1 * x3, 4 * x1 * x2 - x0 * x3,
                      2 * x1 ** 2, -x0 * x1 + 1.5 * x3 ** 2])
    third = np.array([6.0, 0.0, 0.0, 3.0])[:, None]
    got = fd_grad(_cubic, x, h)
    assert got.shape == (4, 2)                 # stacked first over the last axis
    assert np.abs(got - (exact + h ** 2 / 6 * third)).max() < 1e-12


def test_fd_hessian_of_a_cubic_is_exact():
    """The 3-point diagonal and 4-point off-diagonal have no error on cubics."""
    x0, x1, x2, x3 = z = np.array([0.3, -0.7, 1.1, 0.4])
    exact = np.array([[6 * x0, -x3, 0.0, -x1],
                      [-x3, 4 * x2, 4 * x1, -x0],
                      [0.0, 4 * x1, 0.0, 0.0],
                      [-x1, -x0, 0.0, 3 * x3]])
    H = fd_hessian(_cubic, z, 1e-2)
    assert np.array_equal(H, H.T)
    assert np.abs(H - exact).max() < 1e-9


def test_fd_stencils_on_a_quadratic_form():
    """f = z.A z / 2 + b.z in five variables: gradient A z + b, Hessian A."""
    rng = np.random.default_rng(7)
    A = rng.normal(size=(5, 5))
    A = A + A.T
    b = rng.normal(size=5)
    z = rng.normal(size=5)
    f = lambda w: 0.5 * w @ A @ w + b @ w
    assert np.abs(fd_grad(f, z, 1e-3) - (A @ z + b)).max() < 1e-9
    assert np.abs(fd_hessian(f, z, 1e-2) - A).max() < 1e-9
