import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecdlab.minkowski import METRIC, AntisymTensor
from ecdlab.propagators import (ActionProvider, ClassicalPath, NoPathError, _pref,
                                classical_path_bvp, constant_field_action_provider,
                                constant_field_propagator, constant_field_van_vleck,
                                delta_potential_propagator,
                                free_action_provider, free_propagator,
                                gauge_transform_propagator,
                                hamilton_jacobi_residual, semiclassical_propagator,
                                van_vleck)

coords = st.floats(min_value=-2.0, max_value=2.0)
events = st.tuples(coords, coords, coords, coords).map(np.array)


@given(x=events, xp=events, s=st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_free_propagator_conjugation_symmetry(x, xp, s):
    """G(x, x'; -s) = G*(x, x'; s) for the free kernel (unitary evolution)."""
    assert free_propagator(x, xp, -s) == pytest.approx(
        np.conj(free_propagator(x, xp, s)), rel=1e-12)


def test_free_propagator_singular_at_zero_s():
    with pytest.raises(ZeroDivisionError):
        free_propagator(np.zeros(4), np.ones(4), 0.0)


def test_propagators_on_a_stack_equal_their_one_event_calls():
    """Both kernels, both providers' actions and the constant-field Van
    Vleck factor broadcast over the leading axes of x, x' and s (here one
    worldline event x' per s against a (2, 3) stack of events x), and each
    element gets the bits of its own one-event, one-s call."""
    rng = np.random.default_rng(7)
    X = rng.uniform(-2.0, 2.0, size=(2, 3, 4))
    S = np.array([-0.7, 0.3, 1.9, -2.4, 0.05])
    XP = rng.uniform(-2.0, 2.0, size=(S.size, 4))
    F = np.asarray(AntisymTensor.from_fields((0.3, -0.1, 0.2), (0.1, 0.4, 0.0)))
    for fn in (free_propagator, free_action_provider().action,
               constant_field_action_provider(F, q=1.3).action,
               constant_field_propagator(F, q=1.3)):
        got = fn(X, XP[:, None, None], S[:, None, None])
        assert got.shape == (S.size, 2, 3)
        np.testing.assert_array_equal(
            got, [[[fn(x, xp, s) for x in row] for row in X] for xp, s in zip(XP, S)])
    got = constant_field_van_vleck(F, S[:, None], q=1.3)
    assert got.shape == (S.size, 1)
    np.testing.assert_array_equal(got[:, 0], [constant_field_van_vleck(F, s, q=1.3) for s in S])
    assert isinstance(free_propagator(X[0, 0], XP[0], S[0]), complex)


def test_stacked_kernels_refuse_a_singular_or_overflowing_s():
    """One bad s anywhere in a stack raises as its one-s call does; where the
    flow overflows, every constant-field kernel raises OverflowError without
    a warning."""
    F = np.asarray(AntisymTensor.from_fields((0.3, 0.0, 0.0), (0.0, 0.0, 0.2)))
    S = np.array([[0.5, -1.0], [0.0, 2.0]])
    with pytest.raises(ZeroDivisionError):
        free_propagator(np.ones(4), np.zeros((2, 2, 4)), S)
    with pytest.raises(ZeroDivisionError):
        constant_field_van_vleck(F, S)
    with pytest.raises(NoPathError):
        constant_field_propagator(F)(np.ones(4), np.zeros((2, 2, 4)), S)
    prov = constant_field_action_provider(F)
    x, xp = np.array([1.1, 0.4, -0.3, 0.2]), np.zeros(4)
    for kernel in (lambda s: constant_field_van_vleck(F, s),
                   lambda s: prov.action(x, xp, s),
                   lambda s: prov.grad_x(x, xp, s),
                   lambda s: constant_field_propagator(F)(x, xp, s)):
        for s in (1e4, np.array([0.5, 1e4, -1.0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OverflowError):
                    kernel(s)


def test_constant_field_propagator_reads_one_flow(monkeypatch):
    """G is the sign factor times the Van Vleck prefactor times e^{i I}, bit
    for bit, and the action and the prefactor of one call read one flow."""
    import ecdlab.propagators as propagators

    F = np.asarray(AntisymTensor.from_fields((0.3, -0.1, 0.2), (0.1, 0.4, 0.0)))
    rng = np.random.default_rng(11)
    X = rng.uniform(-2.0, 2.0, size=(2, 3, 4))
    S = np.array([-0.7, 0.3, 1.9, -2.4, 0.05])[:, None, None]
    XP = rng.uniform(-2.0, 2.0, size=(S.size, 1, 1, 4))
    want = (_pref(S) * constant_field_van_vleck(F, S, q=1.3)
            * np.exp(1j * constant_field_action_provider(F, q=1.3).action(X, XP, S)))
    calls = []
    expm = propagators.expm
    monkeypatch.setattr(propagators, "expm", lambda *a: calls.append(1) or expm(*a))
    got = constant_field_propagator(F, q=1.3)(X, XP, S)
    assert got.shape == (S.size, 2, 3)
    np.testing.assert_array_equal(got, want)
    assert len(calls) == 1


@pytest.mark.parametrize("axis, y_max", [("electric", 5.0), ("magnetic", 9.0)])
def test_constant_field_van_vleck_matches_the_one_axis_closed_forms(axis, y_max):
    """s^{-2} (qEs/2) / sinh(qEs/2) for a pure E, s^{-2} |(qBs/2) / sin(qBs/2)|
    for a pure B, to 1e-13 relative over |qFs| from 1e-3, where 2 - 2 cosh(qFs)
    cancels, to y_max, for both signs of s.  The flow's top-right block has
    condition number ~e^{|qEs|}, so past |qEs| ~ 6 its determinant's error
    outgrows the bound (2.9e-13 at 9)."""
    q, field = 1.3, 0.4
    y = np.geomspace(1e-3, y_max, 13)
    s = np.concatenate([y, -y]) / (q * field)
    if axis == "electric":
        F = AntisymTensor.from_fields((field, 0.0, 0.0), (0.0, 0.0, 0.0))
        closed = (q * field * s / 2) / np.sinh(q * field * s / 2) / s ** 2
    else:
        F = AntisymTensor.from_fields((0.0, 0.0, 0.0), (0.0, 0.0, field))
        closed = np.abs((q * field * s / 2) / np.sin(q * field * s / 2)) / s ** 2
    got = constant_field_van_vleck(np.asarray(F), s, q=q)
    np.testing.assert_allclose(got, closed, rtol=1e-13, atol=0)


def test_semiclassical_equals_free_for_straight_path():
    x = np.array([1.0, 0.3, -0.2, 0.5])
    xp = np.array([0.0, 0.0, 0.0, 0.0])
    s = 0.8
    prov = free_action_provider()
    path = ClassicalPath(action=prov.action(x, xp, s),
                         van_vleck=van_vleck(prov, x, xp, s))
    G_sc = semiclassical_propagator([path], s)
    assert G_sc == pytest.approx(free_propagator(x, xp, s), rel=1e-9)


def test_semiclassical_needs_paths():
    with pytest.raises(ValueError):
        semiclassical_propagator([], 1.0)


def test_gauge_transform_preserves_modulus():
    x = np.array([0.5, 0.1, 0.0, 0.0])
    xp = np.zeros(4)
    G = free_propagator(x, xp, 1.0)
    alpha = lambda y: 0.7 * y[1] - 0.2 * y[0]
    G2 = gauge_transform_propagator(G, alpha, x, xp, q=1.3)
    assert abs(G2) == pytest.approx(abs(G), rel=1e-15)


def test_constant_field_van_vleck_matches_finite_difference():
    F = np.asarray(AntisymTensor.from_fields((0.4, 0.0, 0.0), (0.0, 0.0, 0.7)))
    prov = constant_field_action_provider(F, q=1.0)
    x = np.array([1.1, 0.4, -0.3, 0.2])
    xp = np.array([0.0, 0.1, 0.0, 0.0])
    s = 0.9
    closed = constant_field_van_vleck(F, s, q=1.0)
    fd = van_vleck(prov, x, xp, s)
    assert fd == pytest.approx(closed, rel=1e-4)


def test_constant_field_van_vleck_free_limit():
    Z = np.zeros((4, 4))
    assert constant_field_van_vleck(Z, 0.7) == pytest.approx(0.7 ** -2, rel=1e-12)


def test_delta_potential_pde_residual_decreases():
    """i d_s G + 1/2 box G -> 0 away from the scatterer, at O(h^2)."""
    xp = np.array([0.0, 0.3, 0.2, 0.1])
    x = np.array([0.9, 0.8, -0.5, 0.4])
    s = 1.3

    def residual(h):
        G = delta_potential_propagator
        ds = (G(x, xp, s + h) - G(x, xp, s - h)) / (2 * h)
        box = 0.0
        for mu in range(4):
            e = np.zeros(4)
            e[mu] = h
            box += METRIC[mu, mu] * (G(x + e, xp, s) - 2 * G(x, xp, s)
                                     + G(x - e, xp, s)) / h ** 2
        return abs(1j * ds + 0.5 * box)

    res = [residual(h) for h in (4e-3, 2e-3, 1e-3)]
    assert res[0] > res[1] > res[2]


def test_delta_potential_singularities():
    with pytest.raises(ZeroDivisionError):
        delta_potential_propagator(np.array([1.0, 0, 0, 0]),
                                   np.array([0.0, 0.5, 0, 0]), 1.0)


def test_action_provider_needs_its_endpoint_momentum():
    """grad_x has no finite-difference fallback: a provider without it is refused."""
    with pytest.raises(TypeError):
        ActionProvider(free_action_provider().action)


def test_hamilton_jacobi_residual_free():
    prov = free_action_provider()
    A0 = lambda y: np.zeros(4)
    x = np.array([1.0, 0.4, 0.2, -0.1])
    xp = np.zeros(4)
    assert hamilton_jacobi_residual(prov, A0, x, xp, 0.7, q=0.0) < 1e-7


def test_hamilton_jacobi_residual_constant_field():
    F = np.asarray(AntisymTensor.from_fields((0.3, 0.0, 0.0)))
    prov = constant_field_action_provider(F, q=1.0)
    F_lower = METRIC @ F @ METRIC
    A = lambda y: METRIC @ (-0.5 * F_lower @ np.asarray(y, float))
    x = np.array([1.0, 0.4, 0.2, -0.1])
    xp = np.zeros(4)
    assert hamilton_jacobi_residual(prov, A, x, xp, 0.7, q=1.0) < 1e-5


def test_bvp_matches_closed_form_action():
    F = np.asarray(AntisymTensor.from_fields((0.3, 0.0, 0.0)))
    prov = constant_field_action_provider(F, q=1.0)
    xp = np.zeros(4)
    s = 1.0
    # pick the endpoint of an actual orbit so the BVP is well-posed
    v0 = np.array([1.0, 0.2, 0.0, 0.0])
    from ecdlab.dynamics import IntegratorConfig, integrate_worldline
    traj = integrate_worldline((xp, v0), F, 1.0, (0.0, s),
                               IntegratorConfig(step=1e-3, tolerance=1e-8))
    x = traj.gammas[-1]
    path = classical_path_bvp(F, xp, x, s, q=1.0)
    assert path.action == pytest.approx(prov.action(x, xp, s), rel=1e-6)
    assert np.abs(path.initial_velocity - v0).max() < 1e-6


# Oracle fields for the closed-form constant-field action: pure E, mixed E+B,
# and a null crossed field (|E| = |B|, E.B = 0), where M = qF is nilpotent.
ORACLE_FIELDS = {
    "pure-E": ((0.3, 0.0, 0.0), (0.0, 0.0, 0.0)),
    "mixed-EB": ((0.3, -0.1, 0.2), (0.1, 0.0, 0.5)),
    "null-crossed": ((0.3, 0.0, 0.0), (0.0, 0.3, 0.0)),
}


@pytest.mark.parametrize("fields", ORACLE_FIELDS.values(), ids=ORACLE_FIELDS.keys())
def test_constant_field_action_matches_shooting(fields):
    from ecdlab.dynamics import IntegratorConfig, integrate_worldline

    F = np.asarray(AntisymTensor.from_fields(*fields))
    q = 1.3
    prov = constant_field_action_provider(F, q=q)
    xp = np.array([0.2, -0.1, 0.3, 0.0])
    s = 1.2
    v0 = np.array([1.1, 0.2, -0.3, 0.1])
    traj = integrate_worldline((xp, v0), F, q, (0.0, s),
                               IntegratorConfig(step=1e-3, tolerance=1e-8))
    x = traj.gammas[-1]
    path = classical_path_bvp(F, xp, x, s, q=q)
    F_lower = METRIC @ F @ METRIC
    p_end = METRIC @ path.final_velocity - 0.5 * q * (F_lower @ x)
    assert prov.action(x, xp, s) == pytest.approx(path.action, rel=1e-10)
    np.testing.assert_allclose(prov.grad_x(x, xp, s), p_end, rtol=0, atol=1e-10)


def test_constant_field_action_singular_at_zero_s():
    prov = constant_field_action_provider(np.asarray(AntisymTensor.from_fields((0.3, 0, 0))))
    with pytest.raises(NoPathError):
        prov.action(np.ones(4), np.zeros(4), 0.0)


field_components = st.tuples(*[st.floats(min_value=-0.5, max_value=0.5)] * 6)


@given(eb=field_components, x=events, xp=events,
       s=st.floats(min_value=0.3, max_value=2.0), sign=st.sampled_from([-1.0, 1.0]))
@example(eb=(0.0,) * 6, x=np.array([0.0, 2.0, 0.0, 0.0]), xp=np.array([0.0, -2.0, 0.0, 2.0]),
         s=0.3125, sign=-1.0)     # a long interval at small |s|
@settings(max_examples=30, deadline=None)
def test_hamilton_jacobi_residual_random_constant_fields(eb, x, xp, s, sign):
    """d_s I + 1/2 (dI - qA)^2 = 0 for any constant field and either sign of s."""
    F = np.asarray(AntisymTensor.from_fields(eb[:3], eb[3:]))
    prov = constant_field_action_provider(F, q=1.0)
    F_lower = METRIC @ F @ METRIC
    A = lambda y: METRIC @ (-0.5 * F_lower @ np.asarray(y, float))
    assert hamilton_jacobi_residual(prov, A, x, xp, sign * s, q=1.0) < 1e-5
