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
    f = lambda w: 0.5 * np.sum((w @ A) * w, axis=-1) + w @ b     # over rows of a stack
    assert np.abs(fd_grad(f, z, 1e-3) - (A @ z + b)).max() < 1e-9
    assert np.abs(fd_hessian(f, z, 1e-2) - A).max() < 1e-9


@pytest.mark.parametrize("n", range(1, 9))
def test_fd_hessian_is_the_per_point_loop_in_one_call(n, fd_hessian_per_point):
    """On a cubic and on exp(-quadratic), at a z with +0.0 and -0.0 entries:
    one call on a (1 + 2n^2, n) stack whose rows are the loop's points bit
    for bit, and the loop's Hessian bit for bit.  Both functions work one
    column at a time, so a row's value does not depend on the stack (and
    cube as x * x * x: numpy's scalar and array ** may round differently)."""
    rng = np.random.default_rng(n)
    c, A = rng.normal(size=n), rng.normal(size=(n, n))
    z = rng.normal(size=n)
    z[::3], z[2::3] = -0.0, 0.0

    def cubic(w):
        x = np.moveaxis(w, -1, 0)
        return sum(c[k] * x[k] * x[k] * x[k] + A[k, k - 1] * x[k] * x[k - 1] * x[k - n // 2]
                   for k in range(n))

    def gauss(w):
        x = np.moveaxis(w, -1, 0)
        return np.exp(-0.5 * sum(A[k, l] * x[k] * x[l] for k in range(n) for l in range(n)))

    for fun in (cubic, gauss):
        stacks, points = [], []
        H = fd_hessian(lambda w: stacks.append(w.copy()) or fun(w), z, 1e-2)
        ref = fd_hessian_per_point(lambda w: points.append(w.copy()) or fun(w), z, 1e-2)
        assert len(stacks) == 1 and stacks[0].shape == (1 + 2 * n * n, n)
        assert sorted(r.tobytes() for r in stacks[0]) == sorted(p.tobytes() for p in points)
        assert H.tobytes() == ref.tobytes()


def test_simpson_is_scipys_to_the_bit():
    """radial_smear and the classical-path action use scipy's own Simpson
    arithmetic, without importing scipy.integrate: every odd N from 3 to 1001,
    on uniform and random non-uniform x, at magnitudes from 1e-10 to 1e10."""
    from scipy.integrate import simpson

    from ecdlab.grids import _simpson

    rng = np.random.default_rng(13)
    for n in range(3, 1002, 2):
        scale = 10.0 ** rng.uniform(-10, 10)
        uniform = np.linspace(-1.0, 2.0, n) * scale
        uneven = np.cumsum(rng.uniform(1e-3, 1.0, n)) * scale
        for x in (uniform, uneven):
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-10, 10)
            assert _simpson(y, x) == simpson(y, x=x), n
    with pytest.raises(ValueError, match="odd number"):
        _simpson(np.ones(4), np.arange(4.0))
