import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from ecdlab.ecd_core import (EcdPair, EpsilonCalibration, QuadratureBudgetError, calibrate,
                             consistency_residual, constant_field_pair,
                             free_phi_closed_form, guiding_velocity,
                             integrate_guiding, phi_eval, plane_phase,
                             scale_transform_pair, surfing_residual)
from ecdlab.dynamics import IntegrationBlowup, Trajectory, eom_residual
from ecdlab.ecd_currents import FreePhi
from ecdlab.minkowski import AntisymTensor

PHI_REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "phi_eval_reference.json").read_text())["cases"]


def test_calibration_normalization():
    cal = calibrate(1e-3)
    assert cal.N == pytest.approx(-1.0 / (2 * np.pi ** 2 * 1e-3), rel=1e-12)
    assert cal.N == pytest.approx(-50.6606, abs=1e-4)


def test_calibration_window():
    cal = calibrate(0.1)
    assert cal.window(0.2) == 1.0
    assert cal.window(-0.2) == -1.0
    assert cal.window(0.05) == 0.0


def test_calibration_validation():
    with pytest.raises(ValueError):
        calibrate(-1.0)
    with pytest.raises(ValueError):
        EpsilonCalibration(1.0, s_max=0.5)


def test_free_pair_consistency_is_order_epsilon():
    residuals = []
    for eps in (4e-2, 1e-2):
        pair = EcdPair.free((1.0, 0.0, 0.0, 0.0), calibrate(eps, s_max=20.0))
        residuals.append(consistency_residual(pair, [0.0, 0.7]))
    assert residuals[0] < 0.05          # O(eps), not O(1)
    assert residuals[1] < residuals[0]  # shrinks with eps


def test_wrong_normalization_breaks_consistency():
    class WrongN(EpsilonCalibration):
        @property
        def N(self):
            return 1.5 * super().N

    good = EcdPair.free((1.0, 0.0, 0.0, 0.0), calibrate(1e-2, s_max=20.0))
    bad = EcdPair.free((1.0, 0.0, 0.0, 0.0), WrongN(1e-2, s_max=20.0))
    assert consistency_residual(good, [0.0]) < 5e-3
    assert consistency_residual(bad, [0.0]) > 0.2


def test_phi_eval_full_output_diagnostics():
    cal = calibrate(1e-2, s_max=20.0)
    pair = EcdPair.free((1.0, 0.0, 0.0, 0.0), cal)
    val, diag = phi_eval(pair, (0.0, 0.0, 0.0, 0.0), 0.0, full_output=True)
    assert diag["tail_bound"] == pytest.approx(1e-2 / 20.0)
    assert diag["quad_error"] < 1e-6 * abs(val)
    # at s = 0 the integrand's imaginary part is exactly zero; the error test
    # on the complex modulus still converges in a few rule applications
    assert diag["evaluations"] <= 200


def _reference_pair(case):
    cal = calibrate(case["epsilon"], s_max=case["s_max"])
    C = complex(*case["C"])
    if case["kind"] == "free":
        return EcdPair.free(case["u"], cal, C=C)
    F = np.asarray(AntisymTensor.from_fields(case["E"], case["B"]))
    return constant_field_pair(F, case["u0"], cal, q=case["q"], C=C,
                               s_span=tuple(case["s_span"]), step=case["step"])


@pytest.mark.parametrize("case", PHI_REFERENCE,
                         ids=lambda c: f"{c['kind']}-eps{c['epsilon']:g}-tol{c['tol']:g}")
def test_phi_eval_matches_frozen_reference(case):
    """phi_eval against values frozen from the earlier four-scalar-quad
    evaluation (real and imaginary parts of each half-line integrated
    separately): free pairs on the worldline (s = 0 included) and off it at
    eps = 0.1, 0.01, 0.001, and two constant fields at tol 1e-3 and 1e-8."""
    pair = _reference_pair(case)
    for p in case["points"]:
        want = complex(p["re"], p["im"])
        got = phi_eval(pair, p["x"], p["s"], tol=case["tol"])
        assert abs(got - want) <= 100 * case["tol"] * abs(want), p


def _quad_vec_phi(pair, x, s, tol):
    """phi(x, s) and its evaluation count from scipy's quad_vec, one node per
    integrand call: the oracle of phi_eval's own rule."""
    from scipy.integrate import quad_vec

    cal, x = pair.calibration, np.asarray(x, dtype=float)

    def f(t):
        total = 0j
        for sig in (1.0 / t, -1.0 / t):
            gamma, _ = pair.trajectory.state_at(s - sig)
            total += pair.propagator(x, gamma, sig) * pair.ansatz(s - sig) * cal.window(sig)
        return total / t ** 2

    integral, _, info = quad_vec(f, 1.0 / cal.s_max, 1.0 / cal.epsilon, epsrel=tol, limit=300,
                                 quadrature="gk15", norm="max", full_output=True)
    return (1j / cal.N) * integral, info.neval


def _rule_case(name):
    free = EcdPair.free((1.0, 0.0, 0.0, 0.0), calibrate(1e-2, s_max=20.0), C=0.7 + 0.2j)
    gamma, _ = free.trajectory.state_at(0.7)
    if name == "free-s0":
        return free, np.zeros(4), 0.0, 1e-9
    if name == "free-on-worldline":
        return free, gamma, 0.7, 1e-9
    if name == "free-off-worldline":
        return free, gamma + np.array([0.03, -0.02, 0.01, 0.04]), 0.7, 1e-9
    if name == "free-stencil":
        steps = 1e-3 * np.eye(4)
        return free, np.vstack([gamma, gamma + steps, gamma - steps]), 0.7, 1e-9
    pair = _stack_pair("constant_field")
    gamma, _ = pair.trajectory.state_at(-1.0)
    return pair, gamma + np.array([0.0, 0.05, 0.0, 0.0]), -1.0, 1e-8


@pytest.mark.parametrize("name", ["free-s0", "free-on-worldline", "free-off-worldline",
                                  "free-stencil", "constant-field-off-worldline"])
def test_phi_eval_takes_quad_vecs_nodes(name):
    """The s'-rule is quad_vec's gk15 refinement with one integrand call per
    round: the same evaluations, and values that differ only by the rounding
    of numpy's array arithmetic against its scalar arithmetic."""
    pair, x, s, tol = _rule_case(name)
    got, diag = phi_eval(pair, x, s, tol=tol, full_output=True)
    want, neval = _quad_vec_phi(pair, x, s, tol)
    assert diag["evaluations"] == neval
    assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


_W = np.array([1.0, 30.0, 400.0])
RULE_INTEGRANDS = {
    # several intervals bisected per round
    "oscillating": (lambda t: np.exp(1j * np.multiply.outer(t, _W)) / (1.0 + t)[..., None],
                    1e-10),
    # bisections concentrate on a cusp, round after round
    "cusp": (lambda t: np.multiply.outer(np.abs(t - 0.3) ** 0.5, [1.0, -2.0]), 1e-12),
    # unresolvable: full rounds of 128 bisections run past the 300-interval limit
    "limit": (lambda t: np.multiply.outer(np.exp(2e4j * t), [1.0, 1.0]), 1e-10),
    "nan": (lambda t: np.multiply.outer(t, [1.0, np.nan]), 1e-8),
    "zero": (lambda t: np.zeros((t.size, 2), complex), 1e-8),
}


@pytest.mark.parametrize("name", RULE_INTEGRANDS)
def test_integration_rule_is_quad_vecs_to_the_bit(name):
    """On vector integrands, where quad_vec's max norm is numpy's array
    arithmetic too, the rule gives quad_vec's integral, error and evaluation
    count bit for bit, at its stops by tolerance, limit and NaN alike."""
    from scipy.integrate import quad_vec

    from ecdlab.ecd_core import _integrate

    f, tol = RULE_INTEGRANDS[name]
    calls = []

    def stacked(t):
        calls.append(t.size)
        return f(t)

    want, want_err, info = quad_vec(lambda t: f(np.array([t]))[0], 0.0, 1.0, epsrel=tol,
                                    limit=300, quadrature="gk15", norm="max",
                                    full_output=True)
    got, err, neval = _integrate(stacked, 0.0, 1.0, tol)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(err, want_err)
    assert neval == info.neval == sum(calls) and calls[0] == 45
    assert (info.status == 1) == (name == "limit")


def test_phi_eval_raises_past_the_interval_limit():
    """A kernel oscillating too fast for 300 intervals fails the budget."""
    free = EcdPair.free((1.0, 0.0, 0.0, 0.0), calibrate(0.1, s_max=20.0))
    pair = dataclasses.replace(
        free, propagator=lambda x, xp, sig: free.propagator(x, xp, sig) * np.exp(1e5j * sig))
    with pytest.raises(QuadratureBudgetError):
        phi_eval(pair, np.zeros(4), 0.0)


def test_phi_eval_zero_wave_is_zero_and_cheap():
    pair = EcdPair.free((1.0, 0.0, 0.0, 0.0), calibrate(0.1), C=0.0)
    val, diag = phi_eval(pair, (0.0, 0.0, 0.0, 0.0), 0.7, full_output=True)
    assert val == 0
    assert diag["evaluations"] <= 200


def _stack_pair(kind):
    if kind == "free":
        return EcdPair.free((1.0, 0.0, 0.0, 0.0), calibrate(0.05, s_max=5.0))
    F = np.asarray(AntisymTensor.from_fields((0.1, 0.0, 0.0), (0.0, 0.0, 0.0)))
    return constant_field_pair(F, (1.0, 0.0, 0.0, 0.0), calibrate(0.1, s_max=1.0),
                               s_span=(-5.0, 5.0))


@pytest.mark.parametrize("kind", ["free", "constant_field"])
def test_stacked_phi_eval_equals_one_event_calls(kind):
    """The centre and central-difference stencil of the classical-limit check,
    as a (3, 3) stack.  Events this close share the adaptive subdivision, so
    one s'-quadrature gives each event its one-event value to rounding."""
    pair, s = _stack_pair(kind), -1.0
    gamma, _ = pair.trajectory.state_at(s)
    steps = 1e-3 * np.eye(4)
    X = np.vstack([gamma, gamma + steps, gamma - steps]).reshape(3, 3, 4)
    got = phi_eval(pair, X, s, tol=1e-8)
    want = [[phi_eval(pair, x, s, tol=1e-8) for x in row] for row in X]
    assert got.shape == (3, 3)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("kind", ["free", "constant_field"])
def test_stacked_phi_eval_meets_the_budget_for_each_event(kind):
    """Each stacked value is within the budget of a one-event value at a
    far tighter tolerance, for events off the worldline and apart."""
    pair, s, tol = _stack_pair(kind), 0.3, 1e-6
    gamma, _ = pair.trajectory.state_at(s)
    X = gamma + 0.05 * np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, 4))
    got, diag = phi_eval(pair, X, s, tol=tol, full_output=True)
    assert diag["quad_error"] <= 100 * tol * np.abs(got).min()
    for x, value in zip(X, got):
        want = phi_eval(pair, x, s, tol=1e-8)
        assert abs(value - want) <= 100 * tol * abs(want)


def test_phi_eval_stack_with_a_nan_event_raises():
    pair = _stack_pair("free")
    X = np.array([[0.1, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0], [0.2, 0.1, 0.0, 0.0]])
    with pytest.raises(QuadratureBudgetError):
        phi_eval(pair, X, 0.3)


def test_closed_form_matches_wave_evaluator():
    eps = 0.05
    u = np.array([1.2, 0.3, -0.1, 0.0])
    u = u / np.sqrt(u[0] ** 2 - u[1] ** 2 - u[2] ** 2)
    phi = FreePhi(u, 0.7 + 0.2j, eps)
    xs = np.array([[0.4, 0.1, -0.2, 0.3], [0.0, 0.0, 0.0, 0.0]])
    want = free_phi_closed_form(xs, 0.6, u, 0.7 + 0.2j, eps)
    assert np.abs(phi.value(xs, 0.6) - want).max() < 1e-14


def test_closed_form_reduces_to_ansatz_on_worldline():
    eps = 0.05
    u = np.array([1.0, 0.0, 0.0, 0.0])
    ansatz = plane_phase(u, C=2.0)
    for s in (-1.3, 0.0, 0.8):
        val = free_phi_closed_form(u * s, s, u, 2.0, eps)
        assert val == pytest.approx(ansatz(s), rel=1e-14)


def test_surfing_residual_vanishes_on_worldline():
    eps = 0.05
    u = np.array([1.0, 0.2, 0.0, 0.0])
    u = u / np.sqrt(u[0] ** 2 - u[1] ** 2)
    phi = lambda x, s: complex(free_phi_closed_form(x, s, u, 1.0, eps))
    res = surfing_residual(phi, u * 0.4, 0.4, h=1e-3)
    assert np.abs(res).max() < 1e-12


def test_surfing_residual_detects_off_worldline_point():
    eps = 0.05
    u = np.array([1.0, 0.0, 0.0, 0.0])
    phi = lambda x, s: complex(free_phi_closed_form(x, s, u, 1.0, eps))
    res = surfing_residual(phi, (0.4, 0.05, 0.0, 0.0), 0.4, h=1e-3)
    assert np.abs(res).max() > 1e-3


def test_guiding_tracks_gaussian_packet_center():
    M = np.diag([1.0, 2.0, 1.5, 1.0])
    u = np.array([1.0, 0.25, 0.0, 0.1])

    def phi(x, s):      # events (m, 4) and s (m,), as fd_hessian stacks them
        d = np.asarray(x, float) - u * np.asarray(s, float)[..., None]
        return np.exp(-0.5 * np.sum((d @ M) * d, axis=-1))

    states, event = integrate_guiding(phi, np.zeros(4), (0.0, 1.0), 20, h=1e-3)
    assert event is None
    devs = [np.linalg.norm(st.gamma - u * st.s) for st in states]
    assert max(devs) < 1e-5


def test_singular_hessian_is_reported_not_raised():
    # packet flat along x^3: the Hessian of |phi|^2 is singular everywhere
    def phi(x, s):
        x = np.asarray(x, float)
        return np.exp(-0.5 * (x[..., 0] - s) ** 2 - 0.5 * x[..., 1] ** 2
                      - 0.5 * x[..., 2] ** 2)

    v, kappa = guiding_velocity(phi, np.zeros(4), 0.0, 1e-3)
    assert v is None and kappa > 1e8
    states, event = integrate_guiding(phi, np.zeros(4), (0.0, 1.0), 5, h=1e-3)
    assert event is states[-1] and event.violent


def test_scale_transform_maps_calibration_and_ansatz():
    pair = EcdPair.free((1.0, 0.0, 0.0, 0.0), calibrate(1e-2, s_max=20.0), C=0.8)
    lam = 2.0
    scaled = scale_transform_pair(pair, lam)
    assert scaled.calibration.epsilon == pytest.approx(lam ** 2 * 1e-2)
    assert scaled.calibration.s_max == pytest.approx(lam ** 2 * 20.0)
    s = 0.5
    assert scaled.ansatz(s) == pytest.approx(
        lam ** -2 * pair.ansatz(s / lam ** 2), rel=1e-14)
    with pytest.raises(ValueError):
        scale_transform_pair(pair, -1.0)


def test_scale_transform_preserves_consistency():
    pair = EcdPair.free((1.0, 0.0, 0.0, 0.0), calibrate(1e-2, s_max=20.0))
    base = consistency_residual(pair, [0.3])
    scaled = scale_transform_pair(pair, 1.5)
    # dilatation maps solutions to solutions: the relative residual carries over
    assert consistency_residual(scaled, [0.3 * 1.5 ** 2]) == pytest.approx(
        base, rel=1e-3)


def test_cumulative_trapezoid_is_scipys_to_the_bit():
    """The action integral along a constant-field worldline uses scipy's own
    expression, without importing scipy.integrate."""
    from scipy.integrate import cumulative_trapezoid

    from ecdlab.ecd_core import _cumulative_trapezoid

    rng = np.random.default_rng(11)
    x = np.cumsum(rng.uniform(1e-3, 0.1, size=500))
    y = np.sin(3.0 * x) + rng.normal(size=x.size)
    np.testing.assert_array_equal(_cumulative_trapezoid(y, x),
                                  cumulative_trapezoid(y, x, initial=0.0))


def test_phase_gradient_check_raises_on_non_finite_figures(monkeypatch):
    """A worldline at rest makes the velocity recovery 0/0 and a vanishing
    wave the residual; the check raises instead of letting max() keep an
    earlier figure over the NaN.  phi_eval is replaced by closed forms that
    take a stack of events, as phi_eval does."""
    from ecdlab import ecd_core

    pair = EcdPair.free((0.0, 0.0, 0.0, 0.0), calibrate(0.1))
    F = np.zeros((4, 4))
    monkeypatch.setattr(ecd_core, "phi_eval", lambda pair, x, s, tol: np.exp(0.3j * x[..., 1]))
    assert np.isfinite(ecd_core.classical_phase_gradient_check(pair, F, 1.0, [0.0, 0.5]))
    with pytest.raises(FloatingPointError):
        ecd_core.classical_phase_gradient_check(pair, F, 1.0, [0.0, 0.5], with_recovery=True)
    monkeypatch.setattr(ecd_core, "phi_eval",
                        lambda pair, x, s, tol: np.zeros(x.shape[:-1], complex))
    with pytest.raises(FloatingPointError):
        ecd_core.classical_phase_gradient_check(pair, F, 1.0, [0.0])


def _two_call_pair(F, u0, cal, q, s_span, step):
    """constant_field_pair's worldline and action phase from one
    integrate_worldline call per half, spliced: the backward half reversed,
    its s and gamma_dot negated and its duplicate s = 0 row dropped."""
    from ecdlab.dynamics import IntegratorConfig, integrate_worldline
    from ecdlab.ecd_core import _cumulative_trapezoid
    from ecdlab.minkowski import METRIC

    span = max(abs(s_span[0]), abs(s_span[1]), 2 * cal.s_max)
    cfg = IntegratorConfig(step=step, tolerance=1e-6)
    fwd = integrate_worldline((np.zeros(4), u0), F, q, (0.0, span), cfg)
    bwd = integrate_worldline((np.zeros(4), -np.asarray(u0, dtype=float)), F, q,
                              (0.0, span), cfg)
    s = np.concatenate([-bwd.s[::-1][:-1], fwd.s])
    gammas = np.concatenate([bwd.gammas[::-1][:-1], fwd.gammas])
    gdots = np.concatenate([-bwd.gamma_dots[::-1][:-1], fwd.gamma_dots])
    F_lower = METRIC @ F @ METRIC
    A_low = -0.5 * gammas @ F_lower.T
    lag = np.einsum("ij,ij->i", gdots, 0.5 * gdots @ METRIC + q * A_low)
    I_cum = _cumulative_trapezoid(lag, s)
    I_cum -= np.interp(0.0, s, I_cum)
    return s, gammas, gdots, I_cum


PAIR_FIELDS = {"pure-E": ((0.3, -0.1, 0.2), (0.0, 0.0, 0.0)),
               "pure-B": ((0.0, 0.0, 0.0), (0.0, 0.4, 0.1)),
               "crossed": ((0.2, 0.0, 0.0), (0.0, 0.0, 0.35)),
               "null": ((0.25, 0.0, 0.0), (0.0, 0.0, 0.25))}


@pytest.mark.parametrize("s_max", [0.5, 2.0])       # 2 s_max below and above the span
@pytest.mark.parametrize("q", [1.0, -0.7, 2.3])
@pytest.mark.parametrize("field", PAIR_FIELDS)
def test_constant_field_pair_equals_two_spliced_worldlines(field, q, s_max):
    """Both halves from one stacked flow pass carry the bits of one
    integrate_worldline call each, and so does the action phase built on them."""
    F = np.asarray(AntisymTensor.from_fields(*PAIR_FIELDS[field]))
    u0, cal, C = (1.3, 0.2, -0.4, 0.5), calibrate(0.1, s_max=s_max), 0.5 - 0.2j
    pair = constant_field_pair(F, u0, cal, q=q, C=C, s_span=(-1.5, 2.5), step=1e-2)
    s, gammas, gdots, I_cum = _two_call_pair(F, u0, cal, q, (-1.5, 2.5), 1e-2)
    traj = pair.trajectory
    assert s[-1] == max(2.5, 2 * s_max) and traj.q == q
    assert np.array_equal(traj.s, s)
    assert np.array_equal(traj.gammas, gammas)
    assert np.array_equal(traj.gamma_dots, gdots)
    sv = np.linspace(-1.2 * s[-1], 1.2 * s[-1], 41)
    assert np.array_equal(pair.ansatz(sv), C * np.exp(1j * np.interp(sv, s, I_cum)))


@pytest.mark.parametrize("E, step, s_span", [
    ((100.0, 0.0, 0.0), 1.0, (-20.0, 20.0)),    # non-finite from s = 8
    ((100.0, 0.0, 0.0), 1.0, (-7.0, 7.0)),      # gamma_dot^2 overflows from s = 4
    ((100.0, 0.0, 0.0), 1.0, (-3.0, 3.0)),      # drift beyond 1e-6
    ((0.1, 0.0, 0.0), 0.3, (-1.0, 1.0)),        # the step does not divide the span
], ids=["non-finite", "overflow", "drift", "step"])
def test_constant_field_pair_raises_as_two_spliced_worldlines(E, step, s_span):
    F = np.asarray(AntisymTensor.from_fields(E, (0.0, 0.0, 0.0)))
    cal, u0 = calibrate(0.1, s_max=0.25), (1.0, 0.0, 0.0, 0.0)
    with pytest.raises((IntegrationBlowup, ValueError)) as want:
        _two_call_pair(F, u0, cal, 1.0, s_span, step)
    with pytest.raises(want.type) as got:
        constant_field_pair(F, u0, cal, s_span=s_span, step=step)
    assert str(got.value) == str(want.value)


def test_constant_field_pair_makes_one_flow_call(monkeypatch):
    from ecdlab import dynamics

    calls, flow = [], dynamics._flow
    monkeypatch.setattr(dynamics, "_flow", lambda M, t: calls.append(t) or flow(M, t))
    F = np.asarray(AntisymTensor.from_fields((0.1, 0.0, 0.0), (0.0, 0.0, 0.3)))
    constant_field_pair(F, (1.0, 0.0, 0.0, 0.0), calibrate(0.1, s_max=1.0), s_span=(-5.0, 5.0))
    assert len(calls) == 1


@pytest.mark.parametrize("half", [
    "s >= 0",
    pytest.param("s <= 0", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the s <= 0 half is the worldline from -u0 with charge q, reversed in "
               "s, which solves the equation of motion of charge -q")),
])
def test_constant_field_pair_halves_solve_the_equation_of_motion(half):
    """cf-wave's seed-0 pair: the s >= 0 half's residual is about 1.9e-8 and
    the s <= 0 half's about 0.225, where the acceleration changes sign."""
    F = np.asarray(AntisymTensor.from_fields((0.1, 0.0, 0.0), (0.0, 0.0, 0.0)))
    traj = constant_field_pair(F, (1.0, 0.0, 0.0, 0.0), calibrate(0.1, s_max=1.0),
                               s_span=(-5.0, 5.0), step=1e-2).trajectory
    keep = traj.s >= 0 if half == "s >= 0" else traj.s <= 0
    part = Trajectory(traj.s[keep], traj.gammas[keep], traj.gamma_dots[keep], q=traj.q)
    assert eom_residual(part, F) < 1e-6
