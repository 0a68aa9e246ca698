"""The central extended-charge system: wave evaluation, calibration, guiding.

An extended charge is a pair {phi, gamma}: a worldline plus a complex wave
tied to it by two conditions,

* the windowed integral equation
      phi(x, s) = (i / N) int ds' G(x, gamma_s'; s - s') phi(gamma_s', s') U(eps; s - s'),
  where U(eps; sigma) = theta(sigma - eps) - theta(-sigma - eps) excises the
  |sigma| < eps neighbourhood of the propagator singularity, and
* the surfing condition Re[d_mu phi phi*] = 0 on the worldline: the particle
  rides an extremum of |phi|^2.

The normalization N = -1 / (2 pi^2 eps) makes the free plane-phase ansatz
self-consistent up to O(eps).  Differentiating the surfing condition along s
turns it into the guiding ODE gamma_dot = -H^{-1} f with H the spatial-time
Hessian of |phi|^2 and f its mixed s-derivative; a singular H is a physical
outcome ("violent event") and is reported as data, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad_vec

from .minkowski import METRIC, as_four, minkowski_dot
from .dynamics import Trajectory
from .grids import fd_grad, fd_hessian
from .propagators import (constant_field_action_provider, free_propagator, _pref,
                          _van_vleck_of_eigs)


@dataclass(frozen=True)
class EpsilonCalibration:
    """The (eps, N) pair plus the s-window; s_max truncates the s'-integral.

    s_max carries scaling dimension 2 (like s and eps), so a scale transform
    multiplies it by lambda^2 along with eps; the relative truncation error of
    the free integrand is exactly eps / s_max.
    """

    epsilon: float
    s_max: float = 50.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.s_max <= self.epsilon:
            raise ValueError("s_max must exceed epsilon")

    @property
    def N(self) -> float:
        return -1.0 / (2.0 * np.pi ** 2 * self.epsilon)

    def window(self, sigma: float) -> float:
        """U(eps; sigma) = theta(sigma - eps) - theta(-sigma - eps)."""
        if sigma > self.epsilon:
            return 1.0
        if sigma < -self.epsilon:
            return -1.0
        return 0.0


def calibrate(epsilon: float, s_max: float = 50.0) -> EpsilonCalibration:
    return EpsilonCalibration(epsilon, s_max)


@dataclass(frozen=True)
class BoundaryAnsatz:
    """phi restricted to the worldline: s -> phi(gamma_s, s).

    plane_phase is C e^{i u^2 s / 2} (the free ansatz); action_phase is
    C e^{i I(s) / hbar} with I the classical action accumulated along the
    trajectory.
    """

    value: Callable[[float], complex]

    @staticmethod
    def plane_phase(u, C=1.0 + 0j) -> "BoundaryAnsatz":
        u = as_four(u)
        u2 = minkowski_dot(u, u)
        return BoundaryAnsatz(lambda s: C * np.exp(0.5j * u2 * s))

    @staticmethod
    def action_phase(action_along: Callable[[float], float], C=1.0 + 0j,
                     hbar: float = 1.0) -> "BoundaryAnsatz":
        return BoundaryAnsatz(lambda s: C * np.exp(1j * action_along(s) / hbar))


@dataclass(frozen=True)
class EcdPair:
    """An extended-charge particle: worldline, boundary wave, propagator, calibration."""

    trajectory: Trajectory
    ansatz: BoundaryAnsatz
    propagator: Callable[[np.ndarray, np.ndarray, float], complex]
    calibration: EpsilonCalibration
    hbar: float = 1.0

    @staticmethod
    def free(u, calibration: EpsilonCalibration, C=1.0 + 0j, x0=(0, 0, 0, 0),
             s_span=(-200.0, 200.0), q: float = 0.0, hbar: float = 1.0) -> "EcdPair":
        span = max(abs(s_span[0]), abs(s_span[1]), 2 * calibration.s_max)
        traj = Trajectory.uniform(u, x0=x0, s_span=(-span, span), n=9, q=q)
        return EcdPair(traj, BoundaryAnsatz.plane_phase(u, C),
                       lambda x, xp, sig: free_propagator(x, xp, sig, hbar),
                       calibration, hbar=hbar)


class QuadratureBudgetError(RuntimeError):
    """The windowed s'-integral failed to reach the requested accuracy."""


def phi_eval(pair: EcdPair, x, s: float, tol: float = 1e-9,
             full_output: bool = False):
    """Evaluate phi(x, s) from the windowed integral equation.

    Both half-lines |s - s'| in [eps, s_max] are mapped by sigma -> 1/t onto
    the same finite interval (the integrand grows like sigma^{-2} at the window
    edge, which the substitution flattens); their complex integrands are summed
    at each node and integrated adaptively in one pass, with the error measured
    on the complex modulus.  The reported tail bound is the exact
    free-integrand truncation error eps / s_max.
    """
    x = as_four(x)
    cal = pair.calibration
    eps, s_max = cal.epsilon, cal.s_max

    def f(t):
        # sigma = 1/t, d sigma = -dt / t^2; t runs over [1/s_max, 1/eps]
        sigma, total = 1.0 / t, 0j
        for sig in (sigma, -sigma):
            gamma, _ = pair.trajectory.state_at(s - sig)
            total += (pair.propagator(x, gamma, sig) * pair.ansatz.value(s - sig)
                      * cal.window(sig))
        return total / t ** 2

    # the default epsabs (1e-200) ends an exactly zero integrand at once;
    # full_output keeps quad_vec silent, as accuracy is checked below
    integral, err, info = quad_vec(f, 1.0 / s_max, 1.0 / eps, epsrel=tol, limit=300,
                                   quadrature="gk15", full_output=True)
    value = (1j / cal.N) * integral
    scale = max(abs(value), 1e-300)
    if not err / (abs(cal.N) * scale) <= 100 * max(tol, 1e-12):    # NaN fails too
        raise QuadratureBudgetError(
            f"s'-quadrature error {err:g} too large for |phi| = {scale:g}")
    if full_output:
        diag = {"tail_bound": eps / s_max, "quad_error": err / abs(cal.N),
                "evaluations": info.neval}
        return value, diag
    return value


def free_phi_closed_form(x, s, u, C, epsilon):
    """phi = C e^{i(u.xi + u^2 s/2)} sinc(xi^2 / (2 eps)), xi = x - u s.

    This is the calibrated free solution; on the worldline (xi = 0) it reduces
    to the plane-phase ansatz.  Vectorized over leading axes of x.
    """
    x = np.asarray(x, dtype=float)
    u = as_four(u)
    u2 = minkowski_dot(u, u)
    xi = x - u * s
    xi2 = xi[..., 0] ** 2 - np.sum(xi[..., 1:] ** 2, axis=-1)
    u_dot_xi = xi[..., 0] * u[0] - xi[..., 1:] @ u[1:]
    phase = u_dot_xi + 0.5 * u2 * s
    return C * np.exp(1j * phase) * np.sinc(xi2 / (2.0 * epsilon) / np.pi)


def consistency_residual(pair: EcdPair, s_samples, tol: float = 1e-9) -> float:
    """max_s |phi_eval(gamma_s, s) - ansatz(s)| / |ansatz(s)|.

    For a valid pair the O(1) part cancels by the calibration of N and the
    residual is O(eps).  Where |ansatz| < 1e-12 the error is absolute.
    """
    worst = 0.0
    for s in np.atleast_1d(s_samples):
        gamma, _ = pair.trajectory.state_at(float(s))
        val = phi_eval(pair, gamma, float(s), tol=tol)
        ref = pair.ansatz.value(float(s))
        denom = abs(ref) if abs(ref) > 1e-12 else 1.0
        worst = max(worst, abs(val - ref) / denom)
    return worst


def surfing_residual(phi: Callable, gamma, s: float, h: float = 1e-3) -> np.ndarray:
    """Re[d_mu phi phi*] at (gamma, s) with central-difference gradients."""
    gamma = as_four(gamma)
    c = phi(gamma, s)
    g = fd_grad(lambda y: phi(y, s), gamma, h)
    # Re(g c*) in real arithmetic, as the scalar complex product rounds it
    return g.real * c.real + g.imag * c.imag


# ---------------------------------------------------------------------------
# guiding ODE


@dataclass
class GuidingState:
    s: float
    gamma: np.ndarray
    condition_number: float = 1.0
    violent: bool = False


@dataclass(frozen=True)
class ViolentEvent:
    """Guiding breakdown report: where it happened and how singular H was."""

    s: float
    condition_number: float
    gamma: np.ndarray


def _abs2(phi, x, s):
    v = phi(x, s)
    return (v * np.conj(v)).real


def guiding_hessian(phi, gamma, s, h):
    """H_mn = d_m d_n |phi|^2 and f_m = d_s d_m |phi|^2 at (gamma, s)."""
    z = np.append(as_four(gamma), s)
    hess = fd_hessian(lambda w: _abs2(phi, w[:4], float(w[4])), z, h)
    return hess[:4, :4], hess[:4, 4]


def guiding_velocity(phi, gamma, s, h, kappa_max=1e8):
    H, f = guiding_hessian(phi, gamma, s, h)
    kappa = float(np.linalg.cond(H))
    if not np.isfinite(kappa) or kappa >= kappa_max:
        return None, kappa
    return -np.linalg.solve(H, f), kappa


def guiding_step(phi, state: GuidingState, h: float, ds: float,
                 kappa_max: float = 1e8) -> GuidingState:
    """One RK4 step of gamma_dot = -H^{-1} f; flags instead of raising on singular H."""
    if state.violent:
        return state
    s, gamma = state.s, state.gamma
    k1, kap = guiding_velocity(phi, gamma, s, h, kappa_max)
    ks, kappa = [k1], kap
    for step in (ds / 2, ds / 2, ds):       # the k2, k3 and k4 probes
        if ks[-1] is None:
            break
        k, kappa = guiding_velocity(phi, gamma + step * ks[-1], s + step, h, kappa_max)
        ks.append(k)
    if ks[-1] is None:                      # report the failing stage's kappa
        return GuidingState(s, gamma, kappa, violent=True)
    k1, k2, k3, k4 = ks
    new_gamma = gamma + ds / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return GuidingState(s + ds, new_gamma, kap, violent=False)


def integrate_guiding(phi, gamma0, s_span, n_steps: int, h: float = 1e-3,
                      kappa_max: float = 1e8):
    """Integrate the guiding ODE; returns (states, violent_event_or_None)."""
    s0, s1 = s_span
    ds = (s1 - s0) / n_steps
    state = GuidingState(s0, as_four(gamma0).copy())
    states = [state]
    for _ in range(n_steps):
        state = guiding_step(phi, state, h, ds, kappa_max)
        states.append(state)
        if state.violent:
            return states, ViolentEvent(state.s, state.condition_number, state.gamma)
    return states, None


# ---------------------------------------------------------------------------
# classical limit


def constant_field_pair(F, u0, calibration: EpsilonCalibration, q: float = 1.0,
                        C=1.0 + 0j, hbar: float = 1.0, x0=(0, 0, 0, 0),
                        s_span=(-200.0, 200.0), step: float = 1e-2) -> EcdPair:
    """ECD pair whose propagator is the (exact) semiclassical constant-field form
    and whose ansatz carries the classical action phase along the worldline."""
    from .dynamics import FieldProvider, IntegratorConfig, integrate_worldline

    provider = constant_field_action_provider(F, q)
    eigs = np.linalg.eigvals(q * (np.asarray(F, dtype=float) @ METRIC))
    span = max(abs(s_span[0]), abs(s_span[1]), 2 * calibration.s_max)
    fieldp = FieldProvider.constant(F)
    cfg = IntegratorConfig(step=step, tolerance=1e-6)
    fwd = integrate_worldline((x0, u0), fieldp, q, (0.0, span), cfg)
    bwd = integrate_worldline((x0, -np.asarray(u0, dtype=float)), fieldp, q,
                              (0.0, span), cfg)
    s = np.concatenate([-bwd.s[::-1][:-1], fwd.s])
    gammas = np.concatenate([bwd.gammas[::-1][:-1], fwd.gammas])
    gdots = np.concatenate([-bwd.gamma_dots[::-1][:-1], fwd.gamma_dots])
    traj = Trajectory(s, gammas, gdots, q=q)

    # classical action along the worldline, I(0) = 0; the Lagrangian is
    # 1/2 xdot.xdot + q xdot.A with A_mu = -1/2 F_{mu nu} x^nu
    F_lower = METRIC @ np.asarray(F, dtype=float) @ METRIC
    A_low = -0.5 * gammas @ F_lower.T
    lag = np.einsum("ij,ij->i", gdots, 0.5 * gdots @ METRIC + q * A_low)
    from scipy.integrate import cumulative_trapezoid
    I_cum = cumulative_trapezoid(lag, s, initial=0.0)
    I_cum -= np.interp(0.0, s, I_cum)
    action_along = lambda sv: float(np.interp(sv, s, I_cum))

    def G(x, xp, sigma):
        I = provider.action(x, xp, sigma)
        return _pref(sigma, hbar) * _van_vleck_of_eigs(eigs, sigma) * np.exp(1j * I / hbar)

    return EcdPair(traj, BoundaryAnsatz.action_phase(action_along, C, hbar),
                   G, calibration, hbar=hbar)


def classical_phase_gradient_check(pair: EcdPair, F, q: float,
                                   s_samples, h: float = 1e-3,
                                   tol: float = 1e-8,
                                   with_recovery: bool = False):
    """max_s |d_mu phi - i p_mu phi / hbar| / |phi| on the worldline.

    p_mu is the canonical momentum g gamma_dot + q A(gamma) of the classical
    worldline; the residual shrinks as the field varies more slowly on the
    charge's own length scale (the classical limit).

    With with_recovery=True also returns the worst relative error of the
    velocity recovered from the measured phase gradient,
    gamma_dot_rec = g (hbar Im[d phi / phi] - q A), against the integrated
    worldline velocity -- the phase gradient reconstructs the trajectory.
    """
    F_lower = METRIC @ np.asarray(F, dtype=float) @ METRIC
    worst = 0.0
    worst_rec = 0.0
    for s in np.atleast_1d(s_samples):
        gamma, gdot = pair.trajectory.state_at(float(s))
        A_low = -0.5 * F_lower @ gamma
        p = METRIC @ gdot + q * A_low
        center = phi_eval(pair, gamma, float(s), tol=tol)
        grad = fd_grad(lambda y: phi_eval(pair, y, float(s), tol=tol), gamma, h)
        err = np.abs(grad - 1j * p * center / pair.hbar).max()
        worst = max(worst, err / abs(center))
        p_measured = pair.hbar * np.imag(grad / center)
        gdot_rec = METRIC @ (p_measured - q * A_low)
        worst_rec = max(worst_rec, float(np.abs(gdot_rec - gdot).max()
                                         / np.abs(gdot).max()))
    if with_recovery:
        return worst, worst_rec
    return worst


def scale_transform_pair(pair: EcdPair, lam: float) -> EcdPair:
    """The dilatation of a pair: gamma -> lam gamma(s/lam^2), phi -> lam^{-2} phi(x/lam, s/lam^2),
    eps -> lam^2 eps (equivalently N -> N / lam^2); s_max scales with eps."""
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    from .dynamics import apply_scaling

    traj = apply_scaling(pair.trajectory, lam)
    old_ansatz = pair.ansatz
    new_ansatz = BoundaryAnsatz(lambda s: lam ** -2 * old_ansatz.value(s / lam ** 2))
    cal = EpsilonCalibration(lam ** 2 * pair.calibration.epsilon,
                             lam ** 2 * pair.calibration.s_max)
    old_G = pair.propagator
    new_G = lambda x, xp, sig: lam ** -4 * old_G(np.asarray(x) / lam,
                                                 np.asarray(xp) / lam,
                                                 sig / lam ** 2)
    return EcdPair(traj, new_ansatz, new_G, cal, hbar=pair.hbar)
