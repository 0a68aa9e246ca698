import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ecdlab.dynamics import (IntegratorConfig, Trajectory, charge_conjugate,
                             integrate_worldline)
from ecdlab.em_sources import (CoverageError, WorldlineSingularity, _brackets,
                               classical_dilatation_charge,
                               deposit_electric_current, dilatation_current,
                               dilatation_shift_check, geometric_dilatation_term,
                               lw_field, lw_fields, lw_potential, retarded_roots,
                               stress_tensor)
from ecdlab.grids import DepositKernel, EventGrid, grid_charge
from ecdlab.minkowski import METRIC, AntisymTensor, lorentz_boost_matrix


def static_traj(q=1.0):
    return Trajectory.uniform((1.0, 0.0, 0.0, 0.0), s_span=(-50, 50), n=1001, q=q)


def test_static_potential_is_coulomb():
    traj = static_traj(q=2.0)
    for r_vec in ([0.5, 0.0, 0.0], [0.3, -0.4, 0.1]):
        x = np.concatenate([[0.0], r_vec])
        A = lw_potential(x, traj)
        r = np.linalg.norm(r_vec)
        assert A[0] == pytest.approx(2.0 / (4 * np.pi * r), rel=1e-9)
        assert np.allclose(A[1:], 0.0, atol=1e-12)


def test_moving_potential_is_boost_of_static():
    beta = np.array([0.4, 0.0, 0.0])
    L = lorentz_boost_matrix(beta)
    gamma = 1.0 / np.sqrt(1 - beta @ beta)
    u = L @ np.array([1.0, 0.0, 0.0, 0.0])
    moving = Trajectory.uniform(u, s_span=(-80, 80), n=4001, q=1.0)
    x_lab = np.array([0.2, 0.7, 0.3, -0.5])
    A_moving = lw_potential(x_lab, moving)
    # boost the evaluation point to the rest frame, evaluate, boost back
    Linv = lorentz_boost_matrix(-beta)
    x_rest = Linv @ x_lab
    A_rest = lw_potential(x_rest, static_traj(q=1.0))
    assert np.abs(A_moving - L @ A_rest).max() < 1e-7


def test_coverage_error_when_root_not_bracketed():
    short = Trajectory.uniform((1.0, 0.0, 0.0, 0.0), s_span=(-0.1, 0.1), n=11, q=1.0)
    with pytest.raises(CoverageError):
        lw_potential(np.array([5.0, 1.0, 0.0, 0.0]), short)


def test_batched_coverage_matches_one_event_calls():
    short = Trajectory.uniform((1.0, 0.2, 0.0, 0.0), s_span=(-1.0, 1.0), n=21, q=1.0)
    rng = np.random.default_rng(3)
    X = np.column_stack([rng.uniform(-2, 3, 300), rng.uniform(-2, 2, (300, 3))])
    A = lw_fields(X, short)[0]
    covered = ~np.isnan(A).any(axis=1)
    assert 0 < covered.sum() < len(X)
    for x, a, ok in zip(X, A, covered):
        if ok:
            assert np.array_equal(a, lw_potential(x, short))
        else:
            assert np.all(np.isnan(a))
            with pytest.raises(CoverageError):
                lw_potential(x, short)
    A9, F, covered9 = lw_fields(X[:60], short)
    for x, a, f, ok in zip(X[:60], A9, F, covered9):
        try:
            expected = (lw_potential(x, short), np.asarray(lw_field(x, short)))
        except CoverageError:
            expected = None
        assert ok == (expected is not None)
        if ok:
            assert np.array_equal(a, expected[0]) and np.array_equal(f, expected[1])


def _f(traj, x, s):
    """(x - gamma(s))^2 on the interpolated worldline, at one s."""
    d = x - traj.state_at(s)[0]
    return d[0] ** 2 - d[1] ** 2 - d[2] ** 2 - d[3] ** 2


def _smallest_root(traj, x, i, pieces=64):
    """Smallest root of the interpolated f on [s_i, s_i+1]: scipy's brentq on
    the first of `pieces` equal sub-intervals that brackets one."""
    edges = np.linspace(traj.s[i], traj.s[i + 1], pieces + 1)
    fs = [_f(traj, x, e) for e in edges]
    for lo, hi, flo, fhi in zip(edges[:-1], edges[1:], fs[:-1], fs[1:]):
        if flo == 0.0:
            return lo
        if flo * fhi < 0.0:
            return brentq(lambda s: _f(traj, x, s), lo, hi, xtol=1e-15)
    return edges[-1] if fs[-1] == 0.0 else None


def _cone_events(traj, rng, m):
    """m events on the future light cone of random points of the worldline."""
    p = traj.state_at(rng.uniform(traj.s[0] + 0.5, traj.s[-1] - 0.5, m))[0]
    n = rng.normal(size=(m, 3))
    r = rng.uniform(0.1, 2.0, m)[:, None]
    return p + np.hstack([r, r * n / np.linalg.norm(n, axis=1, keepdims=True)])


def _kinked_worldline():
    """Dyadic samples, s unevenly spaced: timelike, null, spacelike, timelike."""
    s = np.array([0.0, 1.0, 2.0, 3.0, 3.5])
    gammas = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.5, 0.0, 0.0], [2.0, 1.5, 0.0, 0.0],
                       [2.25, 2.5, 0.0, 0.0], [2.75, 2.5, 0.0, 0.0]])
    return Trajectory(s, gammas, np.zeros_like(gammas), q=1.0)


def test_retarded_roots_match_a_brentq_oracle():
    F = np.asarray(AntisymTensor.from_fields([0.3, 0.0, 0.1], [0.0, 0.2, 0.4]))
    curved = integrate_worldline(((0.0, 0.0, 0.0, 0.0), (1.0, 0.3, 0.0, 0.0)), F, 1.0,
                                 (-4.0, 4.0), IntegratorConfig(step=0.1, tolerance=1e-6))
    rng = np.random.default_rng(5)
    X = np.vstack([_cone_events(curved, rng, 40),
                   np.column_stack([rng.uniform(-1, 5, 40), rng.uniform(-2, 2, (40, 3))])])
    kinked = _kinked_worldline()
    # inside the null segment; and on the light cone of the knot s = 2, where
    # the spacelike segment after it crosses the same cone again at s = 2.9333
    K = np.array([[2.5, 1.0, 0.6, 0.8], [3.25, 2.25, 1.0, 0.0]])
    for traj, events in ((curved, X), (kinked, K)):
        found, i, tau = retarded_roots(events, traj)
        assert found.sum() >= len(events) // 2
        for x, k, t in zip(events[found], i, tau):
            s_star = traj.s[k] + t
            assert traj.s[k] <= s_star <= traj.s[k + 1]
            want = _smallest_root(traj, x, k)
            assert abs(s_star - want) <= 1e-12 * max(1.0, abs(want))
            d = x - traj.gammas[k]
            assert abs(_f(traj, x, s_star)) <= 1e-12 * max(1.0, d @ d)
    found, i, tau = retarded_roots(K, kinked)
    assert found.all() and list(i) == [1, 2]
    assert kinked._slopes[1, :4] @ METRIC @ kinked._slopes[1, :4] == 0.0
    assert tau[0] == 0.5 and tau[1] == 0.0
    assert abs(_f(kinked, K[1], 2.0 + 14 / 15)) < 1e-15     # the root not taken


def _brackets_oracle(X, traj):
    """_brackets before its buffers: one numpy expression over the stack."""
    n, g, x = traj.s.size, traj.gammas.T, X[:, :, None]
    dt = x[:, 0] - g[0]
    f = dt ** 2 - (((x[:, 1] - g[1]) ** 2 + (x[:, 2] - g[2]) ** 2) + (x[:, 3] - g[3]) ** 2)
    past = dt > 0
    cross = past[:, :-1] & past[:, 1:] & (f[:, :-1] * f[:, 1:] <= 0)
    return n - 2 - np.argmax(cross[:, ::-1], axis=1), cross.any(axis=1)


@pytest.mark.parametrize("m", [0, 5, 16, 37, 200])
def test_brackets_are_bit_equal_to_the_unbuffered_search(m):
    # dyadic samples: a sample plus 0, (5, 3, 4, 0)/4 or (0, 1, 0, 0) sits
    # exactly on its light cone or time slice; a sample plus r (1, n) with a
    # random unit n sits on it up to rounding, where the summation order decides
    traj = Trajectory.uniform((1.0, 0.5, 0.0, 0.0), s_span=(-50, 50), n=201)
    rng = np.random.default_rng(m)
    at = traj.gammas[rng.integers(0, 201, m)]
    exact = np.array([[0.0, 0.0, 0.0, 0.0], [1.25, 0.75, 1.0, 0.0], [1.25, 0.0, -0.75, 1.0],
                      [0.0, 1.0, 0.0, 0.0]])[rng.integers(0, 4, m)]
    n = rng.normal(size=(m, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    rounded = rng.uniform(0.1, 3, (m, 1)) * np.hstack([np.ones((m, 1)), n])
    kind = rng.choice(3, (m, 1), p=[0.25, 0.5, 0.25])
    X = np.where(kind == 0, at + exact, np.where(kind == 1, at + rounded,
                                                  rng.uniform(-20, 20, (m, 4))))
    last, found = _brackets(X, traj)
    want_last, want_found = _brackets_oracle(X, traj)
    assert np.array_equal(found, want_found) and np.array_equal(last, want_last)
    assert last.dtype == want_last.dtype and found.dtype == bool


def test_worldline_singularity_is_uncovered():
    # a charge with gamma_dot = 0 sits at x0 for all s: every event on the
    # light cone of x0 brackets a root whose LW denominator vanishes
    still = Trajectory.uniform((0.0, 0.0, 0.0, 0.0), s_span=(-1.0, 1.0), n=5, q=1.0)
    x = np.array([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(WorldlineSingularity):
        lw_potential(x, still)
    A = lw_fields(np.array([x, [1.0, 0.5, 0.0, 0.0]]), still)[0]
    assert np.all(np.isnan(A))


def test_uniform_motion_field_is_boosted_coulomb():
    beta = np.array([0.18, -0.24, 0.0])          # |v| = 0.3
    L = lorentz_boost_matrix(beta)
    Linv = lorentz_boost_matrix(-beta)
    u = L @ np.array([1.0, 0.0, 0.0, 0.0])
    moving = Trajectory.uniform(u, s_span=(-40, 40), n=801, q=-1.3)
    rng = np.random.default_rng(7)
    X = np.column_stack([rng.uniform(-1, 1, 80), rng.uniform(-1.5, 1.5, (80, 3))])
    X_rest = X @ Linv.T
    far = np.linalg.norm(X_rest[:, 1:], axis=1) > 0.5
    A, F, covered = lw_fields(X[far], moving)
    assert covered.all()
    for x_rest, f in zip(X_rest[far], F):
        r = x_rest[1:]
        E_rest = -1.3 * r / (4 * np.pi * np.linalg.norm(r) ** 3)
        F_rest = np.asarray(AntisymTensor.from_fields(E_rest))
        expected = L @ F_rest @ L.T
        assert np.abs(f - expected).max() < 1e-12 * np.abs(expected).max()


def test_conjugate_worldline_flips_potential():
    traj = static_traj(q=1.0)
    x = np.array([0.0, 0.4, 0.2, -0.1])
    A = lw_potential(x, traj)
    conj = charge_conjugate(traj)
    # s-reversal traces the same point set but reverses the current direction,
    # so the potential flips sign; flipping the charge as well restores it
    assert np.allclose(lw_potential(x, conj), -A)
    restored = Trajectory(conj.s, conj.gammas, conj.gamma_dots, q=-conj.q)
    assert np.allclose(lw_potential(x, restored), A)


def test_static_field_is_coulomb_e_field():
    traj = static_traj(q=1.0)
    x = np.array([0.0, 0.6, 0.0, 0.0])
    F = lw_field(x, traj)
    E = F.electric()
    assert E[0] == pytest.approx(1.0 / (4 * np.pi * 0.6 ** 2), rel=1e-12)
    assert np.allclose(E[1:], 0.0, atol=1e-12)
    assert np.allclose(F.magnetic(), 0.0, atol=1e-12)


def test_curved_field_matches_richardson_stencil_inside_one_interval():
    """On a gently curved worldline, the exact field agrees with a Richardson-
    extrapolated central difference of the potential (steps 1e-3 and 5e-4) at
    every event whose 17 stencil roots share its bracketing interval.  The
    field of the interpolated worldline jumps across the light cone of each
    knot, so a stencil that straddles one disagrees by up to ~1e-3."""
    F0 = np.asarray(AntisymTensor.from_fields([0.05, 0.0, 0.0], [0.0, 0.0, 0.03]))
    traj = integrate_worldline(((0.0, 0.0, 0.0, 0.0), (1.0, 0.1, 0.2, 0.0)), F0, 1.0,
                               (-4.0, 4.0), IntegratorConfig(step=0.05, tolerance=1e-10))
    rng = np.random.default_rng(11)
    p = traj.state_at(rng.uniform(-3.0, 3.0, 200))[0]
    n = rng.normal(size=(200, 3))
    r = rng.uniform(0.5, 2.0, (200, 1))
    X = p + r * np.hstack([np.ones((200, 1)), n / np.linalg.norm(n, axis=1, keepdims=True)])
    _, F, covered = lw_fields(X, traj)
    assert covered.all()

    def stencil(h):
        P = np.repeat(X[:, None, :], 9, axis=1)
        P[:, 1::2] += h * np.eye(4)
        P[:, 2::2] -= h * np.eye(4)
        A = lw_fields(P.reshape(-1, 4), traj)[0].reshape(-1, 9, 4)
        dA = METRIC @ ((A[:, 1::2] - A[:, 2::2]) / (2 * h))     # d^mu A^nu
        found, i, _ = retarded_roots(P.reshape(-1, 4), traj)
        assert found.all()
        return dA - np.swapaxes(dA, 1, 2), i.reshape(-1, 9)

    (F1, i1), (F2, i2) = stencil(1e-3), stencil(5e-4)
    same = (i1 == i1[:, :1]).all(axis=1) & (i2 == i1[:, :1]).all(axis=1)
    assert same.sum() >= 150
    err = (np.abs((4 * F2 - F1) / 3 - F).max(axis=(1, 2))
           / np.abs(F).max(axis=(1, 2)))[same]
    assert np.median(err) < 2e-12 and np.percentile(err, 90) < 5e-12 and err.max() < 1e-10


@given(e=st.tuples(*[st.floats(min_value=-2, max_value=2)] * 3),
       b=st.tuples(*[st.floats(min_value=-2, max_value=2)] * 3))
@settings(max_examples=40, deadline=None)
def test_stress_tensor_symmetric_traceless(e, b):
    F = np.asarray(AntisymTensor.from_fields(e, b))
    T = stress_tensor(F)
    assert np.abs(T - T.T).max() < 1e-12
    trace = float(np.trace(METRIC @ T))
    assert abs(trace) < 1e-12 * max(1.0, np.abs(T).max())


def test_stress_tensor_energy_density():
    F = np.asarray(AntisymTensor.from_fields((1.0, 0.0, 0.0), (0.0, 2.0, 0.0)))
    T = stress_tensor(F)
    assert T[0, 0] == pytest.approx(0.5 * (1.0 + 4.0))


def test_deposited_charge_and_momentum():
    grid = EventGrid(origin=(-0.4, -1.0, -1.0, -1.0),
                     spacings=(0.2, 0.25, 0.25, 0.25), extents=(5, 9, 9, 9))
    traj = Trajectory.uniform((1.0, 0.3, 0.0, 0.0), s_span=(-4, 4), n=401, q=-1.5)
    j = deposit_electric_current(traj, grid, DepositKernel("trilinear"))
    for k in range(5):
        assert grid_charge(j, k) == pytest.approx(-1.5, abs=1e-12)


def test_classical_dilatation_charge_conserved_for_free_particles():
    trajs = [Trajectory.uniform((1.2, 0.3, 0.0, 0.0), x0=(0, 0.5, 0, 0),
                                s_span=(-5, 5), n=201),
             Trajectory.uniform((1.0, -0.2, 0.1, 0.0), s_span=(-5, 5), n=201)]
    D0 = classical_dilatation_charge(trajs, -0.5)
    D1 = classical_dilatation_charge(trajs, 0.75)
    assert D1 == pytest.approx(D0, abs=1e-12)


def test_dilatation_shift_identity():
    trajs = [Trajectory.uniform((1.2, 0.3, 0.0, 0.0), x0=(0, 0.5, 0, 0),
                                s_span=(-5, 5), n=201),
             Trajectory.uniform((1.0, -0.2, 0.1, 0.0), s_span=(-5, 5), n=201)]
    res = dilatation_shift_check(trajs, a=(0.3, -0.2, 0.5), b=(0.4, -0.7),
                                 time=0.2)
    assert res < 1e-6


def test_grid_dilatation_matches_crossing_formula():
    grid = EventGrid(origin=(-0.2, -1.0, -1.0, -1.0),
                     spacings=(0.2, 0.125, 0.125, 0.125), extents=(3, 17, 17, 17))
    traj = Trajectory.uniform((1.0, 0.25, 0.0, 0.0), x0=(0, 0.1, 0.2, 0.0),
                              s_span=(-4, 4), n=801)
    # matter-only p: deposit gamma_dot gamma_dot / |gamma_dot^0| per slice
    from ecdlab.grids import deposit_line_current, TensorField

    vals = np.zeros(grid.extents + (4, 4))
    for nu in range(4):
        row = deposit_line_current(traj, grid, DepositKernel("trilinear"),
                                   lambda s, g, gd, nu=nu: gd[nu])
        vals[..., nu, :] = row.values
    vals = 0.5 * (vals + np.swapaxes(vals, -1, -2))
    p = TensorField(grid, vals, symmetric=True)
    xi = dilatation_current(p, [traj])
    for k in range(3):
        t = grid.axis(0)[k]
        assert grid_charge(xi, k) == pytest.approx(
            classical_dilatation_charge([traj], t), rel=1e-10)
