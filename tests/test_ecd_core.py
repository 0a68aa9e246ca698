import json
from pathlib import Path

import numpy as np
import pytest

from ecdlab.ecd_core import (EcdPair, EpsilonCalibration, QuadratureBudgetError, calibrate,
                             consistency_residual, constant_field_pair,
                             free_phi_closed_form, guiding_velocity,
                             integrate_guiding, phi_eval, plane_phase,
                             scale_transform_pair, surfing_residual)
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

    def phi(x, s):
        d = np.asarray(x, float) - u * s
        return float(np.exp(-0.5 * d @ M @ d))

    states, event = integrate_guiding(phi, np.zeros(4), (0.0, 1.0), 20, h=1e-3)
    assert event is None
    devs = [np.linalg.norm(st.gamma - u * st.s) for st in states]
    assert max(devs) < 1e-5


def test_singular_hessian_is_reported_not_raised():
    # packet flat along x^3: the Hessian of |phi|^2 is singular everywhere
    def phi(x, s):
        x = np.asarray(x, float)
        return float(np.exp(-0.5 * (x[0] - s) ** 2 - 0.5 * x[1] ** 2
                            - 0.5 * x[2] ** 2))

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
