import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdlab import propagators
from ecdlab.dynamics import (IntegrationBlowup, IntegratorConfig,
                             Trajectory, _flow, apply_scaling, charge_conjugate,
                             effective_mass, eom_residual, integrate_worldline,
                             lorentz_rhs)
from ecdlab.minkowski import METRIC, AntisymTensor, minkowski_dot


def constant_e_field(E=(0.3, 0.0, 0.0)):
    return np.asarray(AntisymTensor.from_fields(E))


def test_lorentz_rhs_orthogonal_to_velocity():
    F = constant_e_field((0.2, -0.4, 0.1))
    gd = np.array([1.2, 0.3, -0.5, 0.2])
    rhs = lorentz_rhs(gd, F, q=0.7)
    assert abs(minkowski_dot(rhs, gd)) < 1e-12


def test_constant_field_norm2_conserved():
    F = constant_e_field()
    cfg = IntegratorConfig(step=1e-3, tolerance=1e-9)
    traj = integrate_worldline(((0, 0, 0, 0), (1, 0, 0, 0)), F, 1.0,
                               (0.0, 10.0), cfg)
    n2 = traj.norm2_samples()
    assert np.abs(n2 - n2[0]).max() < 1e-10


def test_integrator_step_must_divide_span():
    F = np.zeros((4, 4))
    cfg = IntegratorConfig(step=0.3)
    with pytest.raises(ValueError):
        integrate_worldline(((0, 0, 0, 0), (1, 0, 0, 0)), F, 0.0,
                            (0.0, 1.0), cfg)


def test_integrator_rejects_a_field_that_is_not_antisymmetric():
    cfg = IntegratorConfig(step=0.25)
    for F in (np.eye(4), np.zeros((3, 3))):
        with pytest.raises(ValueError):
            integrate_worldline(((0, 0, 0, 0), (1, 0, 0, 0)), F, 1.0, (0.0, 1.0), cfg)


def test_integrator_drops_a_rounding_level_symmetric_part():
    """F is checked once through AntisymTensor: a symmetric residue at the
    rounding level is removed before the first step, not integrated."""
    F = constant_e_field((0.3, -0.1, 0.2))
    noise = 1e-14 * np.arange(16.0).reshape(4, 4)
    cfg = IntegratorConfig(step=1e-2, tolerance=1e-6)
    u = (1, 0.2, 0, 0)
    clean = integrate_worldline(((0, 0, 0, 0), u), F, 1.0, (0.0, 1.0), cfg)
    noisy = integrate_worldline(((0, 0, 0, 0), u), F + (noise + noise.T), 1.0, (0.0, 1.0), cfg)
    assert np.abs(noisy.gammas - clean.gammas).max() < 1e-15


def test_drift_beyond_tolerance_raises():
    F = constant_e_field((1.0, 0.0, 0.0))
    cfg = IntegratorConfig(step=0.25, tolerance=1e-16)  # coarse step, tiny budget
    with pytest.raises(IntegrationBlowup, match="drift .* exceeds tolerance 1e-16") as err:
        integrate_worldline(((0, 0, 0, 0), (1, 0, 0, 0)), F, 1.0,
                            (0.0, 5.0), cfg)
    assert err.value.s == 5.0


WORLDLINE_REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "worldline_reference.json").read_text())


@pytest.mark.parametrize("name", WORLDLINE_REFERENCE["cases"])
def test_worldline_matches_frozen_reference(name):
    """40-digit mpmath states of three fields (tests/data/worldline_reference.json
    records the recipe).  Measured: worst error 2.0e-16 to 4.3e-16 of the
    sample's largest component and gamma_dot^2 drift 1.2e-14 to 3.6e-14 over
    the 10,001 samples; fixed-step RK4 gave 3.5e-15 to 5.1e-14 and 5.0e-14 to
    9.6e-13."""
    ref = WORLDLINE_REFERENCE
    case = ref["cases"][name]
    F = np.asarray(AntisymTensor.from_fields(case["electric"], case["magnetic"]))
    traj = integrate_worldline((case["x0"], case["u0"]), F, case["q"], ref["s_span"],
                               IntegratorConfig(step=ref["step"], tolerance=1e-9))
    for k, state in case["states"].items():
        state = np.array(state)
        got = np.concatenate([traj.gammas[int(k)], traj.gamma_dots[int(k)]])
        assert np.abs(got - state).max() <= 2e-15 * np.abs(state).max()
    n2 = traj.norm2_samples()
    assert np.abs(n2 - n2[0]).max() <= 1e-13


FLOW_REFERENCE = json.loads((Path(__file__).parent / "data" / "flow_reference.json").read_text())


@pytest.mark.parametrize("name", FLOW_REFERENCE["cases"])
def test_flow_matches_frozen_reference(name):
    """e^{K sigma} against 40-digit mpmath (tests/data/flow_reference.json records
    the recipe) on a crossed and a null field, sigma in (-25, 25), with 0 to 3
    squarings.  Measured: worst error 2.9e-16 (crossed) and 3.0e-16 (null) of
    the largest entry; scipy.linalg.expm gave 2.6e-15 and 5.5e-16.  Each
    element of a stack, of any shape, has the bits of its one-sigma call; the
    constant-field action uses this same function."""
    case = FLOW_REFERENCE["cases"][name]
    F = np.asarray(AntisymTensor.from_fields(case["electric"], case["magnetic"]))
    M = case["q"] * (F @ METRIC)
    sigmas = np.array(FLOW_REFERENCE["sigmas"])
    want = np.array(case["flows"])
    got = _flow(M, sigmas)
    assert got.shape == (sigmas.size, 8, 8)
    err = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert err.max() <= 1e-15
    assert np.array_equal(got, [_flow(M, s) for s in sigmas.tolist()])
    assert np.array_equal(_flow(M, sigmas.reshape(3, 4)), got.reshape(3, 4, 8, 8))
    assert propagators.expm is _flow


def test_overflow_raises_blowup_at_first_non_finite_sample():
    """q E = 100 and step 1: gamma_dot^0 = cosh(100 k) at sample k, which is
    about 5e303 at k = 7 and beyond the float range from k = 8."""
    F = constant_e_field((100.0, 0.0, 0.0))
    cfg = IntegratorConfig(step=1.0, tolerance=np.inf)
    with pytest.raises(IntegrationBlowup, match="non-finite state") as err:
        integrate_worldline(((0, 0, 0, 0), (1, 0, 0, 0)), F, 1.0, (0.5, 20.5), cfg)
    assert np.isfinite(err.value.s) and err.value.s == 0.5 + 8
    # every sample up to k = 7 is finite, but gamma_dot^2 overflows from
    # k = 4 (cosh(400)^2): the drift is NaN, which no tolerance accepts
    with pytest.raises(IntegrationBlowup, match="leaves the float range") as err:
        integrate_worldline(((0, 0, 0, 0), (1, 0, 0, 0)), F, 1.0, (0.5, 7.5), cfg)
    assert err.value.s == 7.5
    traj = integrate_worldline(((0, 0, 0, 0), (1, 0, 0, 0)), F, 1.0, (0.5, 3.5), cfg)
    assert traj.gamma_dots[3, 0] == pytest.approx(np.cosh(300.0), rel=1e-12)


def test_effective_mass_classification():
    t = Trajectory.uniform((1.0, 0.0, 0.0, 0.0))
    assert effective_mass(t) == (pytest.approx(1.0), "timelike")
    t = Trajectory.uniform((1.0, 1.0, 0.0, 0.0))
    assert effective_mass(t)[1] == "null"
    t = Trajectory.uniform((0.5, 1.0, 0.0, 0.0))
    m2, kind = effective_mass(t)
    assert kind == "tachyonic" and m2 < 0


@given(lam=st.floats(min_value=0.25, max_value=4.0))
@settings(max_examples=20, deadline=None)
def test_scaling_preserves_worldline_equation(lam):
    """gamma -> lam gamma(s/lam^2) solves the EOM in the scaled field F/lam^2."""
    F = constant_e_field((0.3, 0.0, 0.1))
    cfg = IntegratorConfig(step=5e-3, tolerance=1e-6)
    traj = integrate_worldline(((0, 0, 0, 0), (1, 0, 0, 0)), F, 1.0,
                               (0.0, 2.0), cfg)
    scaled = apply_scaling(traj, lam)
    res = eom_residual(scaled, F / lam ** 2)
    assert res < 5e-4  # central-difference floor of the sampled worldline


def test_scaling_mass_law():
    F = constant_e_field()
    cfg = IntegratorConfig(step=1e-2, tolerance=1e-6)
    traj = integrate_worldline(((0, 0, 0, 0), (1, 0, 0, 0)), F, 1.0,
                               (0.0, 1.0), cfg)
    lam = 3.0
    m2, _ = effective_mass(traj)
    m2_scaled, _ = effective_mass(apply_scaling(traj, lam))
    assert m2_scaled == pytest.approx(m2 / lam ** 2, rel=1e-12)


def test_charge_conjugate_traces_same_point_set():
    F = constant_e_field()
    cfg = IntegratorConfig(step=1e-2, tolerance=1e-6)
    traj = integrate_worldline(((0, 0, 0, 0), (1, 0, 0, 0)), F, 1.0,
                               (0.0, 1.0), cfg)
    conj = charge_conjugate(traj)
    assert np.array_equal(np.sort(conj.gammas, axis=0), np.sort(traj.gammas, axis=0))
    assert effective_mass(conj)[0] == pytest.approx(effective_mass(traj)[0])
    # conjugating twice restores the original samples exactly
    back = charge_conjugate(conj)
    assert np.array_equal(back.s, traj.s)
    assert np.array_equal(back.gammas, traj.gammas)
    assert np.array_equal(back.gamma_dots, traj.gamma_dots)


def test_conjugate_solves_eom_in_flipped_field():
    F = constant_e_field((0.4, 0.0, 0.0))
    cfg = IntegratorConfig(step=5e-3, tolerance=1e-6)
    traj = integrate_worldline(((0, 0, 0, 0), (1, 0, 0, 0)), F, 1.0,
                               (0.0, 2.0), cfg)
    conj = charge_conjugate(traj)
    assert eom_residual(conj, -F) < 5e-4


def test_trajectory_rejects_bad_samples():
    s = np.array([0.0, 1.0, 0.5])
    g = np.zeros((3, 4))
    with pytest.raises(ValueError):
        Trajectory(s, g, g)


def test_state_at_interpolates():
    traj = Trajectory.uniform((1.0, 0.5, 0.0, 0.0), s_span=(-1.0, 1.0), n=5)
    gamma, gdot = traj.state_at(0.25)
    assert np.allclose(gamma, [0.25, 0.125, 0.0, 0.0])
    assert np.allclose(gdot, [1.0, 0.5, 0.0, 0.0])


def _interp_columns(traj, s):
    """State by eight scalar np.interp calls per point: the reference."""
    s = np.asarray(s, dtype=float)
    table = np.hstack([traj.gammas, traj.gamma_dots])
    vals = np.stack([np.interp(s, traj.s, table[:, c]) for c in range(8)], axis=-1)
    return vals[..., :4], vals[..., 4:]


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_state_at_arrays_equal_np_interp_bitwise(n):
    rng = np.random.default_rng(n)
    s = np.cumsum(rng.uniform(0.01, 1.0, n)) - 0.3 * n
    traj = Trajectory(s, rng.normal(size=(n, 4)) * 1e3, rng.normal(size=(n, 4)))
    queries = np.concatenate([
        rng.uniform(s[0] - 5, s[-1] + 5, 200),          # inside and out of range
        s, [s[0], s[-1], -1e300, 1e300],                  # knots and end points
        np.nextafter(s, -np.inf), np.nextafter(s, np.inf)])
    gamma, gdot = traj.state_at(queries)
    assert gamma.shape == gdot.shape == queries.shape + (4,)
    ref_gamma, ref_gdot = _interp_columns(traj, queries)
    assert np.array_equal(gamma.view(np.int64), ref_gamma.view(np.int64))
    assert np.array_equal(gdot.view(np.int64), ref_gdot.view(np.int64))
    grid = queries[:12].reshape(3, 4)
    assert traj.state_at(grid)[0].shape == (3, 4, 4)
    for q in queries[::7]:
        g1, d1 = traj.state_at(float(q))
        g0, d0 = _interp_columns(traj, q)
        assert g1.shape == d1.shape == (4,)
        assert np.array_equal(g1.view(np.int64), g0.view(np.int64))
        assert np.array_equal(d1.view(np.int64), d0.view(np.int64))
