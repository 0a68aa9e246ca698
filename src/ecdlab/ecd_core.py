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

Units are hbar = c = 1: hbar only sets the unit of s and of q / hbar (see
propagators), and the classical limit is reached by weakening the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .minkowski import METRIC, as_events, as_four, minkowski_dot
from .dynamics import Trajectory
from .grids import fd_grad, fd_hessian
from .propagators import constant_field_propagator, free_propagator

KAPPA_MAX = 1e8         # guiding-Hessian condition number that flags a violent event
_PHASE_FD_STEP = 1e-3   # finite-difference step of classical_phase_gradient_check


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
        if not np.isfinite(self.N):
            raise ValueError(f"epsilon {self.epsilon:g} gives a non-finite N = {self.N:g}")
        if self.s_max <= self.epsilon:
            raise ValueError(f"epsilon {self.epsilon:g} must be below s_max {self.s_max:g}")

    @property
    def N(self) -> float:
        return -1.0 / (2.0 * np.pi ** 2 * self.epsilon)

    def window(self, sigma):
        """U(eps; sigma) = theta(sigma - eps) - theta(-sigma - eps), elementwise."""
        sigma = np.asarray(sigma, dtype=float)
        return (sigma > self.epsilon) * 1.0 - (sigma < -self.epsilon) * 1.0


def calibrate(epsilon: float, s_max: float = 50.0) -> EpsilonCalibration:
    return EpsilonCalibration(epsilon, s_max)


def plane_phase(u, C=1.0 + 0j) -> Callable[[float], complex]:
    """The free boundary ansatz s -> C e^{i u^2 s / 2}."""
    u = as_four(u)
    u2 = minkowski_dot(u, u)
    return lambda s: C * np.exp(0.5j * u2 * s)


@dataclass(frozen=True)
class EcdPair:
    """An extended-charge particle: worldline, boundary wave, propagator, calibration.

    phi_eval evaluates a whole round of s'-nodes in one call of each: the
    ansatz takes an array of s, and the propagator broadcasts the leading axes
    of the events x (..., 4), the worldline events x' (..., 4) and the proper
    times sigma against each other, as numpy broadcasts operands.  Each
    element of a stacked call must be its one-event, one-sigma value.
    """

    trajectory: Trajectory
    ansatz: Callable         # phi on the worldline, s -> phi(gamma_s, s), elementwise over s
    propagator: Callable     # G(x, x', sigma), over the broadcast leading axes of x, x', sigma
    calibration: EpsilonCalibration

    @staticmethod
    def free(u, calibration: EpsilonCalibration, C=1.0 + 0j) -> "EcdPair":
        """The uniform worldline u s through the origin, with a plane-phase ansatz."""
        span = max(200.0, 2 * calibration.s_max)
        traj = Trajectory.uniform(u, s_span=(-span, span), n=9)
        return EcdPair(traj, plane_phase(u, C), free_propagator, calibration)


class QuadratureBudgetError(ArithmeticError):
    """The windowed s'-integral failed to reach the requested accuracy."""


# Gauss-Kronrod (7, 15) rule on [-1, 1] (QUADPACK's dqk15): the Kronrod
# nodes, their weights, and the Gauss weights of the odd-numbered nodes.
_GK15_NODES = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
    -0.207784955007898467600689403773245, -0.405845151377397166906606412076961,
    -0.586087235467691130294144838258730, -0.741531185599394439863864773280788,
    -0.864864423359769072789712788640926, -0.949107912342758524526189684047851,
    -0.991455371120812639206854697526329])
_GK15_KRONROD = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970])
_GK15_GAUSS = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082])
_QUAD_LIMIT = 300       # intervals at which the s'-quadrature gives up
_QUAD_BATCH = 128       # most intervals bisected in one round
_EPSABS = 1e-200        # absolute tolerance: ends an exactly zero integrand at once
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _gk15(f, spans):
    """The (7, 15) rule on each interval (a, b) of spans, from one call of f on
    all their nodes: (integrals, errors, rounding errors), the estimates in
    the max norm over f's values as QUADPACK forms them."""
    a, b = np.array(spans).T
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fv = f((c + h * _GK15_NODES[:, None]).ravel())
    fv = fv.reshape((15, len(spans)) + fv.shape[1:])       # (node, interval, ...)
    axes = (1,) * (fv.ndim - 2)
    wk = _GK15_KRONROD.reshape((15, 1) + axes)
    h = h.reshape((-1,) + axes)
    # sums over the node axis add node after node, as the one-node loop does
    s_k = (wk * fv).sum(axis=0)
    s_abs = (wk * np.abs(fv)).sum(axis=0)
    s_g = (_GK15_GAUSS.reshape((7, 1) + axes) * fv[1::2]).sum(axis=0)
    s_dabs = (wk * np.abs(fv - s_k / 2.0)).sum(axis=0)

    def norm(v):
        return np.abs(v).reshape(len(spans), -1).max(axis=1).tolist()

    errs, rnds = [], norm(50 * _EPS * h * s_abs)
    for err, dabs, rnd in zip(norm((s_k - s_g) * h), norm(s_dabs * h), rnds):
        if dabs != 0 and err != 0:
            err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
        if rnd > _TINY:
            err = max(err, rnd)
        errs.append(err)
    return h * s_k, errs, rnds


def _integrate(f, a, b, rtol):
    """Adaptive (7, 15) Gauss-Kronrod integral of f over [a, b] to the relative
    tolerance rtol in the max norm: (integral, error, evaluations).

    This is scipy 1.17's quad_vec(quadrature="gk15", norm="max", limit=300),
    which follows QUADPACK's global error control, node for node: each round
    bisects the intervals of largest error (at most _QUAD_BATCH, until their
    summed error covers the excess over tol / 8), and the rounds go on until
    the error is below tol / 8 or below the rounding error, turns non-finite,
    or the intervals reach _QUAD_LIMIT.  Only the calls of f differ: f maps
    the nodes t (n,) of a whole round to values (n, ...).  The first round
    takes the whole interval and its halves at once, as quad_vec always
    bisects its first interval.  Interval integrals are kept until their
    interval is bisected (quad_vec's 100 MB cache of them never fills at 300
    intervals of a phi_eval stack).
    """
    import heapq

    heap, cache, neval = [], {}, 0
    integral = error = rounding = None
    popped = [(None, a, b, None)]       # (error, a, b, integral or None)
    while True:
        spans = []
        for _, lo, hi, old in popped:
            mid = 0.5 * (lo + hi)
            spans += ([(lo, hi)] if old is None else []) + [(lo, mid), (mid, hi)]
        igs, errs, rnds = _gk15(f, spans)
        neval += 15 * len(spans)
        i = 0
        for old_err, lo, hi, old in popped:
            if old is None:             # the rule on the whole interval as well
                old = igs[i]
                if integral is None:    # the first interval
                    integral, error, rounding, old_err = old, errs[i], rnds[i], errs[i]
                i += 1
            integral = integral + (igs[i] + igs[i + 1] - old)
            error += errs[i] + errs[i + 1] - old_err
            rounding += rnds[i] + rnds[i + 1]
            mid = 0.5 * (lo + hi)
            for j, span in ((i, (lo, mid)), (i + 1, (mid, hi))):
                cache[span] = igs[j]
                heapq.heappush(heap, (-errs[j], *span))
            i += 2
        # every round leaves at least the two intervals the stop test needs
        tol = max(_EPSABS, rtol * float(np.abs(integral).max()))
        if error < tol / 8 or error < rounding:
            break
        if not (np.isfinite(error) and np.isfinite(rounding)) or len(heap) >= _QUAD_LIMIT:
            break
        popped, err_sum = [], 0.0
        while heap and len(popped) < _QUAD_BATCH:
            if popped and err_sum > error - tol / 8:
                break
            neg_err, lo, hi = heapq.heappop(heap)
            popped.append((-neg_err, lo, hi, cache.pop((lo, hi), None)))
            err_sum += -neg_err
    return integral, error + rounding, neval


def phi_eval(pair: EcdPair, x, s: float, tol: float = 1e-9,
             full_output: bool = False):
    """Evaluate phi(x, s) from the windowed integral equation at the events
    x, shape (..., 4); the values have shape x.shape[:-1].

    Both half-lines |s - s'| in [eps, s_max] are mapped by sigma -> 1/t onto
    the same finite interval (the integrand grows like sigma^{-2} at the window
    edge, which the substitution flattens); their complex integrands are summed
    at each node and integrated adaptively in one pass (see _integrate).  The
    worldline state, the ansatz and the propagator take every sigma of a
    round's nodes and both branches at once, so each round costs one call of
    each, and a stack of events shares one quadrature, with the error
    measured in the max norm over the events.  Each event must meet the
    error budget.  Close events (a finite-difference stencil) share the
    subdivision and get their one-event values to rounding; events that
    would each be subdivided differently agree with their one-event values
    within the budget.  The reported tail bound is the exact free-integrand
    truncation error eps / s_max.
    """
    x = as_events(x)
    cal = pair.calibration
    eps, s_max = cal.epsilon, cal.s_max
    events = (1,) * (x.ndim - 1)        # the event axes, for broadcasting

    def f(t):
        # sigma = 1/t, d sigma = -dt / t^2; t runs over [1/s_max, 1/eps]
        sigma = 1.0 / t
        sig = np.stack([sigma, -sigma]).reshape((2, t.size) + events)
        gamma, _ = pair.trajectory.state_at(s - sig)
        terms = pair.propagator(x, gamma, sig) * pair.ansatz(s - sig) * cal.window(sig)
        return (terms[0] + terms[1]) / (t * t).reshape((t.size,) + events)

    integral, err, neval = _integrate(f, 1.0 / s_max, 1.0 / eps, tol)
    value = (1j / cal.N) * integral
    scale = max(float(np.min(np.abs(value))), 1e-300)     # the smallest event's
    if not err / (abs(cal.N) * scale) <= 100 * max(tol, 1e-12):    # NaN fails too
        raise QuadratureBudgetError(
            f"s'-quadrature error {err:g} too large for |phi| = {scale:g}")
    if full_output:
        diag = {"tail_bound": eps / s_max, "quad_error": err / abs(cal.N),
                "evaluations": neval}
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
        ref = pair.ansatz(float(s))
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


def _abs2(phi, x, s):
    v = phi(x, s)
    return (v * np.conj(v)).real


def guiding_hessian(phi, gamma, s, h):
    """H_mn = d_m d_n |phi|^2 and f_m = d_s d_m |phi|^2 at (gamma, s);
    phi takes events (m, 4) and s (m,) and returns m values."""
    z = np.append(as_four(gamma), s)
    hess = fd_hessian(lambda w: _abs2(phi, w[..., :4], w[..., 4]), z, h)
    return hess[:4, :4], hess[:4, 4]


def guiding_velocity(phi, gamma, s, h):
    """(-H^{-1} f, cond H), or (None, cond H) where H is too ill-conditioned
    or the solve overflows: both make guiding_step flag the state violent."""
    H, f = guiding_hessian(phi, gamma, s, h)
    kappa = float(np.linalg.cond(H))
    if not np.isfinite(kappa) or kappa >= KAPPA_MAX:
        return None, kappa
    velocity = -np.linalg.solve(H, f)
    return (velocity if np.isfinite(velocity).all() else None), kappa


def guiding_step(phi, state: GuidingState, h: float, ds: float) -> GuidingState:
    """One RK4 step of gamma_dot = -H^{-1} f; flags instead of raising on singular H."""
    if state.violent:
        return state
    s, gamma = state.s, state.gamma
    k1, kap = guiding_velocity(phi, gamma, s, h)
    ks, kappa = [k1], kap
    for step in (ds / 2, ds / 2, ds):       # the k2, k3 and k4 probes
        if ks[-1] is None:
            break
        k, kappa = guiding_velocity(phi, gamma + step * ks[-1], s + step, h)
        ks.append(k)
    if ks[-1] is None:                      # report the failing stage's kappa
        return GuidingState(s, gamma, kappa, violent=True)
    k1, k2, k3, k4 = ks
    new_gamma = gamma + ds / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return GuidingState(s + ds, new_gamma, kap, violent=False)


def integrate_guiding(phi, gamma0, s_span, n_steps: int, h: float = 1e-3):
    """Integrate the guiding ODE; returns (states, the violent state or None)."""
    s0, s1 = s_span
    ds = (s1 - s0) / n_steps
    state = GuidingState(s0, as_four(gamma0).copy())
    states = [state]
    for _ in range(n_steps):
        state = guiding_step(phi, state, h, ds)
        states.append(state)
        if state.violent:
            return states, state
    return states, None


# ---------------------------------------------------------------------------
# classical limit


def _cumulative_trapezoid(y, x):
    """int_{x_0}^{x_i} y dx by the trapezoid rule at every sample, in the
    arithmetic of scipy's cumulative_trapezoid(y, x, initial=0)."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def constant_field_pair(F, u0, calibration: EpsilonCalibration, q: float = 1.0,
                        C=1.0 + 0j, s_span=(-200.0, 200.0), step: float = 1e-2) -> EcdPair:
    """ECD pair whose propagator is the (exact) semiclassical constant-field form
    and whose ansatz carries the classical action phase along the worldline,
    which passes the origin at s = 0 with velocity u0.

    The worldline is sampled every step over [-span, span], span the largest of
    |s_span| and 2 s_max.  Its s >= 0 half is the worldline from (0, u0) with
    charge q.  Its s <= 0 half is the worldline from (0, -u0), also with charge
    q, reversed in s with its velocity negated.  That reversal solves the
    equation of motion of charge -q, not q: the acceleration changes sign at
    s = 0.  Both halves come from one stacked flow pass and raise as
    integrate_worldline would, the s >= 0 half first."""
    from .dynamics import IntegratorConfig, _sampled_flows

    span = max(abs(s_span[0]), abs(s_span[1]), 2 * calibration.s_max)
    cfg = IntegratorConfig(step=step, tolerance=1e-6)
    origin, u0 = np.zeros(4), np.asarray(u0, dtype=float)
    s_half, (fwd, bwd) = _sampled_flows(((origin, u0), (origin, -u0)), F, q, (0.0, span), cfg)
    s = np.concatenate([-s_half[:0:-1], s_half])
    gammas = np.concatenate([bwd[:0:-1, :4], fwd[:, :4]])
    gdots = np.concatenate([-bwd[:0:-1, 4:], fwd[:, 4:]])
    traj = Trajectory(s, gammas, gdots, q=q)

    # classical action along the worldline, I(0) = 0; the Lagrangian is
    # 1/2 xdot.xdot + q xdot.A with A_mu = -1/2 F_{mu nu} x^nu
    F_lower = METRIC @ np.asarray(F, dtype=float) @ METRIC
    A_low = -0.5 * gammas @ F_lower.T
    lag = np.einsum("ij,ij->i", gdots, 0.5 * gdots @ METRIC + q * A_low)
    I_cum = _cumulative_trapezoid(lag, s)
    I_cum -= np.interp(0.0, s, I_cum)

    ansatz = lambda sv: C * np.exp(1j * np.interp(sv, s, I_cum))
    return EcdPair(traj, ansatz, constant_field_propagator(F, q), calibration)


def classical_phase_gradient_check(pair: EcdPair, F, q: float, s_samples,
                                   tol: float = 1e-8, with_recovery: bool = False):
    """max_s |d_mu phi - i p_mu phi| / |phi| on the worldline.

    p_mu is the canonical momentum g gamma_dot + q A(gamma) of the classical
    worldline; the residual shrinks as the field varies more slowly on the
    charge's own length scale (the classical limit).

    With with_recovery=True also returns the worst relative error of the
    velocity recovered from the measured phase gradient,
    gamma_dot_rec = g (Im[d phi / phi] - q A), against the integrated
    worldline velocity -- the phase gradient reconstructs the trajectory.
    Raises FloatingPointError where a returned figure is not finite (a
    vanishing wave or, for the recovery, a vanishing velocity).
    """
    F_lower = METRIC @ np.asarray(F, dtype=float) @ METRIC
    steps = _PHASE_FD_STEP * np.eye(4)
    worst = worst_rec = 0.0
    for s in np.atleast_1d(s_samples):
        gamma, gdot = pair.trajectory.state_at(float(s))
        A_low = -0.5 * F_lower @ gamma
        p = METRIC @ gdot + q * A_low
        # the centre and its central-difference stencil share one s'-quadrature
        phi = phi_eval(pair, np.vstack([gamma, gamma + steps, gamma - steps]),
                       float(s), tol=tol)
        center = phi[0]
        grad = (phi[1:5] - phi[5:]) / (2 * _PHASE_FD_STEP)
        # np.maximum keeps a NaN, where max() would drop it; it is raised below
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = np.maximum(worst, np.abs(grad - 1j * p * center).max() / abs(center))
            gdot_rec = METRIC @ (np.imag(grad / center) - q * A_low)
            worst_rec = np.maximum(worst_rec, np.abs(gdot_rec - gdot).max() / np.abs(gdot).max())
    figures = (float(worst), float(worst_rec)) if with_recovery else (float(worst),)
    if not np.all(np.isfinite(figures)):
        raise FloatingPointError(f"phase-gradient figures {figures} are not all finite")
    return figures if with_recovery else figures[0]


def scale_transform_pair(pair: EcdPair, lam: float) -> EcdPair:
    """The dilatation of a pair: gamma -> lam gamma(s/lam^2), phi -> lam^{-2} phi(x/lam, s/lam^2),
    eps -> lam^2 eps (equivalently N -> N / lam^2); s_max scales with eps."""
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    from .dynamics import apply_scaling

    traj = apply_scaling(pair.trajectory, lam)
    old_ansatz = pair.ansatz
    new_ansatz = lambda s: lam ** -2 * old_ansatz(s / lam ** 2)
    cal = EpsilonCalibration(lam ** 2 * pair.calibration.epsilon,
                             lam ** 2 * pair.calibration.s_max)
    old_G = pair.propagator
    new_G = lambda x, xp, sig: lam ** -4 * old_G(np.asarray(x) / lam,
                                                 np.asarray(xp) / lam,
                                                 sig / lam ** 2)
    return EcdPair(traj, new_ansatz, new_G, cal)
