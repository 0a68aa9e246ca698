"""Proper-time propagators: free, semiclassical, constant-field, bounce.

The propagators solve the proper-time Schrodinger equation

    i d_s G = H G,   H = 1/2 (-i d - q A)^2  (Minkowski square),

and the semiclassical form is assembled from classical boundary-value paths:

    G_sc(x, x'; s) = i sign(s) / (2 pi)^2 * sum_beta F_beta e^{i I_beta},

with F the Van Vleck prefactor |det(-d_x d_x' I)|^{1/2}.  For quadratic
Lagrangians (free motion, constant field) the semiclassical form is exact.

Units are hbar = c = 1.  hbar only sets the unit of s and of q / hbar: with
s' = hbar s the equation i hbar d_s phi = 1/2 (-i hbar d - q A)^2 phi becomes
i d_s' phi = 1/2 (-i d - (q / hbar) A)^2 phi, and the classical limit is
reached by scaling the field strength instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .minkowski import METRIC, as_events, as_four, minkowski_dot
from .grids import fd_hessian


_HESSIAN_STEP = 1e-3       # coarse step of the Richardson mixed Hessian
_HJ_S_STEP = 1e-4          # s-step of the Hamilton-Jacobi d_s I
_BVP_STEPS = 400           # worldline samples (less one) along a shooting path
_BVP_MAX_ITER = 40         # Newton iterations before the shooting gives up
_BVP_TOL = 1e-12           # endpoint miss that ends the Newton iteration


class NoPathError(ArithmeticError):
    """Boundary-value solver failed to produce a classical path."""


def _pref(s: float) -> complex:
    return 1j * np.sign(s) / (2.0 * np.pi) ** 2


def free_propagator(x, xp, s: float):
    """G_f = i sign(s) e^{i (x-x')^2 / (2 s)} / ((2 pi)^2 s^2), elementwise over
    the leading axes of the events x (a complex scalar for one event)."""
    if s == 0:
        raise ZeroDivisionError("free propagator is singular at s = 0")
    d = as_events(x) - as_four(xp)
    phase = minkowski_dot(d, d) / (2.0 * s)
    return _pref(s) * np.exp(1j * phase) / s ** 2


def gauge_transform_propagator(G: complex, alpha: Callable, x, xp,
                               q: float = 1.0) -> complex:
    """G -> G exp(i q [alpha(x) - alpha(x')]); modulus preserved exactly."""
    return G * np.exp(1j * q * (alpha(as_four(x)) - alpha(as_four(xp))))


@dataclass(frozen=True)
class ClassicalPath:
    """One classical boundary-value path: endpoint data and its action."""

    action: float
    van_vleck: float
    initial_velocity: np.ndarray = None
    final_velocity: np.ndarray = None


@dataclass(frozen=True)
class ActionProvider:
    """Evaluators for the classical two-point action I(x, x'; s).

    grad_x returns the lower-index endpoint momentum p_mu = dI/dx^mu; without
    a mixed_hessian, hessian_x_xp takes central differences of `action`.
    """

    action: Callable[[np.ndarray, np.ndarray, float], float]
    grad_x: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    mixed_hessian: Callable = None

    def hessian_x_xp(self, x, xp, s) -> np.ndarray:
        """Mixed second derivative d^2 I / dx^mu dx'^nu (both indices down)."""
        if self.mixed_hessian is not None:
            return np.asarray(self.mixed_hessian(x, xp, s), dtype=float)
        z = np.concatenate([as_four(x), as_four(xp)])

        def mixed(step):
            return fd_hessian(lambda w: self.action(w[:4], w[4:], s), z, step)[:4, 4:]

        coarse, fine = mixed(_HESSIAN_STEP), mixed(_HESSIAN_STEP / 2)
        return (4.0 * fine - coarse) / 3.0     # Richardson: kills the O(h^2) term


def free_action_provider() -> ActionProvider:
    """I = (x - x')^2 / (2s) for the straight free path; the action is
    elementwise over the leading axes of x."""

    def action(x, xp, s):
        d = as_events(x) - as_four(xp)
        return minkowski_dot(d, d) / (2.0 * s)

    def grad(x, xp, s):
        d = as_four(x) - as_four(xp)
        return (METRIC @ d) / s

    def hessian(x, xp, s):
        return -METRIC / s

    return ActionProvider(action, grad, hessian)


def van_vleck(action: ActionProvider, x, xp, s: float) -> float:
    """|det(-d_x d_x' I)|^{1/2} from the provider's mixed Hessian."""
    H = action.hessian_x_xp(x, xp, s)
    det = np.linalg.det(-H)
    return float(np.sqrt(abs(det)))


def _g(y) -> np.ndarray:
    """g(y) = y^2 / (2 - 2 cosh y) elementwise; -> -1 as y -> 0 (2 - 2cosh y ~ -y^2)."""
    y = np.asarray(y, dtype=complex)
    small = np.abs(y) < 1e-3
    safe = np.where(small, 1.0, y)
    # series of (2 - 2 cosh y)/(-y^2) = 1 + y^2/12 + y^4/360 + ...
    series = -1.0 / (1.0 + y ** 2 / 12.0 + y ** 4 / 360.0)
    return np.where(small, series, safe ** 2 / (2.0 - 2.0 * np.cosh(safe)))


def constant_field_van_vleck(F, s: float, q: float = 1.0) -> float:
    """Closed-form prefactor s^{-2} |det g(qFs)|^{1/4} for a constant field.

    g acts as a matrix function of the mixed tensor q F^mu_nu s, evaluated on
    its (possibly complex) eigenvalues.  The eigenvalues come in +/- pairs and
    each pair contributes one factor |g|^{1/2} to the prefactor, i.e. the
    fourth root of the 4x4 determinant.  This is the version consistent with
    the defining mixed-Hessian determinant of the exact quadratic action (and
    with the familiar (w s/2)/sin(w s/2) magnetic kernel); taking the square
    root of the full 4x4 determinant instead double-counts every pair.
    """
    M0 = q * (np.asarray(F, dtype=float) @ METRIC)
    return _van_vleck_of_eigs(np.linalg.eigvals(M0), s)


def _van_vleck_of_eigs(eigs, s: float) -> float:
    """The prefactor from the eigenvalues of q F^mu_nu: those of q F s are s times them."""
    if s == 0:
        raise ZeroDivisionError("prefactor singular at s = 0")
    y = s * eigs
    if np.any(np.abs(np.real(y)) > 700):
        raise OverflowError("cosh overflow: |q F s| too large")
    return float(np.abs(np.prod(_g(y))) ** 0.25 / s ** 2)


def semiclassical_propagator(paths: Sequence[ClassicalPath], s: float) -> complex:
    """Sum the Van Vleck-weighted phases of the supplied classical paths."""
    if len(paths) == 0:
        raise ValueError("semiclassical propagator needs at least one path")
    total = sum(p.van_vleck * np.exp(1j * p.action) for p in paths)
    return _pref(s) * total


def delta_potential_propagator(x, xp, s: float) -> complex:
    """Free propagator plus the elastic bounce off a scatterer at the origin.

    The second term's phase is the action of the indirect path x' -> origin -> x;
    the 1/(r r') modulus suppresses it far from the scatterer.
    """
    if s == 0:
        raise ZeroDivisionError("propagator singular at s = 0")
    x = as_four(x)
    xp = as_four(xp)
    r = float(np.linalg.norm(x[1:]))
    rp = float(np.linalg.norm(xp[1:]))
    if r == 0.0 or rp == 0.0:
        raise ZeroDivisionError("bounce term singular at the spatial origin")
    phase = ((x[0] - xp[0]) ** 2 - (r + rp) ** 2) / (2.0 * s)
    bounce = np.sign(s) * np.exp(1j * phase) / ((2 * np.pi) ** 2 * r * rp * s)
    return free_propagator(x, xp, s) + bounce


def expm(a):
    """scipy.linalg.expm, imported on the first call."""
    from scipy.linalg import expm
    return expm(a)


def _mv(a, v):
    """a @ v for every vector of the stack v (..., n).  numpy rounds each
    product of the batch as it rounds the one-vector a @ v, where a single
    matrix product over the stack would round differently."""
    return (a @ v[..., None])[..., 0]


def _dot(u, v):
    """u @ v over the last axis, each rounded as the one-vector u @ v."""
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


def constant_field_action_provider(F, q: float = 1.0) -> ActionProvider:
    """Closed-form boundary-value action for a constant field in the linear gauge.

    Gauge choice A_nu = -1/2 F_{nu mu} x^mu (so F = dA holds exactly).  The
    path solves d^2x/dtau^2 = M dx/dtau with M = q F^mu_nu, so its velocity is
    e^{M tau} v0 and x - x' = s phi_1(M s) v0 with phi_1(Z) = (e^Z - I) Z^{-1}
    (Schwinger's proper-time solution, Phys. Rev. 82, 664 (1951)).  One
    exponential of the 8x8 block [[M s, I], [0, 0]] gives e^{M s} (top left)
    and phi_1(M s) (top right) without an eigendecomposition, so null fields
    (|E| = |B|, E.B = 0) need no special case.  The action of the quadratic
    Lagrangian is then

        I = 1/4 (x - x').g.(e^{M s} + I) v0 - q/2 x^T F_low x',

    and grad_x is the endpoint canonical momentum g e^{M s} v0 + q A(x).
    The action takes a stack of events x (..., 4) for one x' and s: the
    exponential depends on s alone, so the stack costs one exponential and
    one broadcast solve with a right-hand side per event.  Every product is
    batched per event (see _mv), so each event of a stack gets the bits of
    its one-event call.
    """
    F = np.asarray(F, dtype=float)
    M0 = q * (F @ METRIC)                 # mixed tensor acting on velocities
    F_lower = METRIC @ F @ METRIC

    def solve(d, s):
        """(e^{M s}, v0) of the classical paths with x - x' = d (..., 4) in
        proper time s; v0 has the shape of d."""
        block = np.zeros((8, 8))
        block[:4, :4] = M0 * s
        block[:4, 4:] = np.eye(4)
        E = expm(block)
        try:
            v0 = np.linalg.solve(s * E[:4, 4:], d[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NoPathError("singular boundary-value map (caustic)") from exc
        return E[:4, :4], v0

    def action(x, xp, s):
        x = as_events(x)
        xp = as_four(xp)
        d = x - xp
        eMs, v0 = solve(d, s)
        return (0.25 * _dot(d @ METRIC, _mv(eMs, v0) + v0)
                - 0.5 * q * _dot(_mv(F_lower.T, x), xp))

    def grad(x, xp, s):
        x = as_four(x)
        eMs, v0 = solve(x - as_four(xp), s)
        return METRIC @ (eMs @ v0) - 0.5 * q * (F_lower @ x)

    return ActionProvider(action, grad)


def hamilton_jacobi_residual(action: ActionProvider, A: Callable, x, xp, s: float,
                             q: float = 1.0) -> float:
    """|d_s I + 1/2 (dI - qA)^2| at (x, x'; s) -- the Hamilton-Jacobi check.

    A is the contravariant potential x -> A^mu(x); it is lowered internally to
    match the lower-index endpoint momentum p_mu = dI/dx^mu.
    """
    x = as_four(x)
    hs = _HJ_S_STEP
    dIds = (action.action(x, xp, s + hs) - action.action(x, xp, s - hs)) / (2 * hs)
    p = np.asarray(action.grad_x(x, xp, s), dtype=float)
    kin = p - q * (METRIC @ np.asarray(A(x), dtype=float))
    kin_up = METRIC @ kin
    return float(abs(dIds + 0.5 * float(kin @ kin_up)))


def classical_path_bvp(F, xp, x, s: float, q: float) -> ClassicalPath:
    """Single-shooting solution of the worldline boundary-value problem in the
    constant field F^{mu nu}.

    Newton iteration on the initial velocity with a finite-difference Jacobian,
    from the free straight-line velocity.  The action is accumulated along the
    converged path with Simpson weights, in the linear gauge
    A^mu(x) = g^{mu nu} (-1/2 F_{nu lambda} x^lambda).
    """
    from .dynamics import IntegratorConfig, integrate_worldline

    x = as_four(x)
    xp = as_four(xp)
    v = (x - xp) / s
    cfg = IntegratorConfig(step=s / _BVP_STEPS, tolerance=np.inf)

    def endpoint(v0):
        traj = integrate_worldline((xp, v0), F, q, (0.0, s), cfg)
        return traj, traj.gammas[-1] - x

    traj, miss = endpoint(v)
    for _ in range(_BVP_MAX_ITER):
        if np.abs(miss).max() < _BVP_TOL:
            break
        J = np.empty((4, 4))
        dh = 1e-6 * max(1.0, np.abs(v).max())
        for nu in range(4):
            e = np.zeros(4)
            e[nu] = dh
            _, miss_p = endpoint(v + e)
            J[:, nu] = (miss_p - miss) / dh
        try:
            v = v - np.linalg.solve(J, miss)
        except np.linalg.LinAlgError as exc:
            raise NoPathError("singular shooting Jacobian") from exc
        traj, miss = endpoint(v)
    else:
        raise NoPathError(f"shooting did not converge; endpoint miss {np.abs(miss).max():g}")

    # action by Simpson quadrature of the Lagrangian along the path
    taus = traj.s
    lag = np.empty(taus.size)
    F_lower = METRIC @ np.asarray(F, dtype=float) @ METRIC
    for i in range(taus.size):
        xdot = traj.gamma_dots[i]
        A = METRIC @ (-0.5 * F_lower @ traj.gammas[i])
        lag[i] = 0.5 * minkowski_dot(xdot, xdot) + q * minkowski_dot(A, xdot)
    from scipy.integrate import simpson
    I = float(simpson(lag, x=taus))
    return ClassicalPath(action=I, van_vleck=np.nan,
                         initial_velocity=traj.gamma_dots[0].copy(),
                         final_velocity=traj.gamma_dots[-1].copy())

