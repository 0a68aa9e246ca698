"""Proper-time propagators: free, semiclassical, constant-field, bounce.

The propagators solve the proper-time Schrodinger equation

    i hbar d_s G = H G,   H = 1/2 (-i hbar d - q A)^2  (Minkowski square),

and the semiclassical form is assembled from classical boundary-value paths:

    G_sc(x, x'; s) = i sign(s) / (2 pi hbar)^2 * sum_beta F_beta e^{i I_beta / hbar},

with F the Van Vleck prefactor |det(-d_x d_x' I)|^{1/2}.  For quadratic
Lagrangians (free motion, constant field) the semiclassical form is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from .minkowski import METRIC, as_four, minkowski_dot
from .dynamics import FieldProvider
from .grids import fd_grad, fd_hessian


class NoPathError(RuntimeError):
    """Boundary-value solver failed to produce a classical path."""


def _pref(s: float, hbar: float) -> complex:
    return 1j * np.sign(s) / (2.0 * np.pi * hbar) ** 2


def free_propagator(x, xp, s: float, hbar: float = 1.0) -> complex:
    """G_f = i sign(s) e^{i (x-x')^2 / (2 hbar s)} / ((2 pi hbar)^2 s^2)."""
    if s == 0:
        raise ZeroDivisionError("free propagator is singular at s = 0")
    d = as_four(x) - as_four(xp)
    phase = minkowski_dot(d, d) / (2.0 * hbar * s)
    return _pref(s, hbar) * np.exp(1j * phase) / s ** 2


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

    grad_x returns the lower-index endpoint momentum p_mu = dI/dx^mu; when a
    closed form is not supplied both derivatives fall back to central
    differences of `action`.
    """

    action: Callable[[np.ndarray, np.ndarray, float], float]
    grad_x: Callable = None
    mixed_hessian: Callable = None

    def gradient(self, x, xp, s, h=1e-5) -> np.ndarray:
        if self.grad_x is not None:
            return np.asarray(self.grad_x(x, xp, s), dtype=float)
        return fd_grad(lambda y: self.action(y, xp, s), as_four(x), h)

    def hessian_x_xp(self, x, xp, s, h=1e-3) -> np.ndarray:
        """Mixed second derivative d^2 I / dx^mu dx'^nu (both indices down)."""
        if self.mixed_hessian is not None:
            return np.asarray(self.mixed_hessian(x, xp, s), dtype=float)
        z = np.concatenate([as_four(x), as_four(xp)])

        def mixed(step):
            return fd_hessian(lambda w: self.action(w[:4], w[4:], s), z, step)[:4, 4:]

        coarse, fine = mixed(h), mixed(h / 2)
        return (4.0 * fine - coarse) / 3.0     # Richardson: kills the O(h^2) term


def free_action_provider() -> ActionProvider:
    """I = (x - x')^2 / (2s) for the straight free path."""

    def action(x, xp, s):
        d = as_four(x) - as_four(xp)
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


def semiclassical_propagator(paths: Sequence[ClassicalPath], s: float,
                             hbar: float = 1.0) -> complex:
    """Sum the Van Vleck-weighted phases of the supplied classical paths."""
    if len(paths) == 0:
        raise ValueError("semiclassical propagator needs at least one path")
    total = sum(p.van_vleck * np.exp(1j * p.action / hbar) for p in paths)
    return _pref(s, hbar) * total


def delta_potential_propagator(x, xp, s: float, hbar: float = 1.0) -> complex:
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
    phase = ((x[0] - xp[0]) ** 2 - (r + rp) ** 2) / (2.0 * hbar * s)
    bounce = np.sign(s) * np.exp(1j * phase) / ((2 * np.pi * hbar) ** 2 * r * rp * s)
    return free_propagator(x, xp, s, hbar) + bounce


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
    """
    F = np.asarray(F, dtype=float)
    M0 = q * (F @ METRIC)                 # mixed tensor acting on velocities
    F_lower = METRIC @ F @ METRIC

    def solve(x, xp, s):
        """(e^{M s}, v0) of the classical path from x' to x in proper time s."""
        block = np.zeros((8, 8))
        block[:4, :4] = M0 * s
        block[:4, 4:] = np.eye(4)
        E = expm(block)
        try:
            v0 = np.linalg.solve(s * E[:4, 4:], x - xp)
        except np.linalg.LinAlgError as exc:
            raise NoPathError("singular boundary-value map (caustic)") from exc
        return E[:4, :4], v0

    def action(x, xp, s):
        x = as_four(x)
        xp = as_four(xp)
        eMs, v0 = solve(x, xp, s)
        return (0.25 * float((x - xp) @ METRIC @ (eMs @ v0 + v0))
                - 0.5 * q * float(x @ F_lower @ xp))

    def grad(x, xp, s):
        x = as_four(x)
        eMs, v0 = solve(x, as_four(xp), s)
        return METRIC @ (eMs @ v0) - 0.5 * q * (F_lower @ x)

    return ActionProvider(action, grad)


def hamilton_jacobi_residual(action: ActionProvider, A: Callable, x, xp, s: float,
                             q: float = 1.0, hs: float = 1e-4) -> float:
    """|d_s I + 1/2 (dI - qA)^2| at (x, x'; s) -- the Hamilton-Jacobi check.

    A is the contravariant potential x -> A^mu(x); it is lowered internally to
    match the lower-index endpoint momentum p_mu = dI/dx^mu.
    """
    x = as_four(x)
    dIds = (action.action(x, xp, s + hs) - action.action(x, xp, s - hs)) / (2 * hs)
    p = action.gradient(x, xp, s)
    kin = p - q * (METRIC @ np.asarray(A(x), dtype=float))
    kin_up = METRIC @ kin
    return float(abs(dIds + 0.5 * float(kin @ kin_up)))


def classical_path_bvp(fieldp: FieldProvider, xp, x, s: float, q: float,
                       initial_guess=None, n_steps: int = 400,
                       max_iter: int = 40, tol: float = 1e-10) -> ClassicalPath:
    """Single-shooting solution of the worldline boundary-value problem.

    Newton iteration on the initial velocity with a finite-difference Jacobian;
    the free straight-line velocity is the default initial guess.  The action
    is accumulated along the converged path with Simpson weights.
    """
    from .dynamics import IntegratorConfig, integrate_worldline

    x = as_four(x)
    xp = as_four(xp)
    v = (np.asarray(initial_guess, dtype=float) if initial_guess is not None
         else (x - xp) / s)
    cfg = IntegratorConfig(step=s / n_steps, tolerance=np.inf)

    def endpoint(v0):
        traj = integrate_worldline((xp, v0), fieldp, q, (0.0, s), cfg)
        return traj, traj.gammas[-1] - x

    traj, miss = endpoint(v)
    for _ in range(max_iter):
        if np.abs(miss).max() < tol:
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
    A_of = _potential_of(fieldp)
    for i in range(taus.size):
        xdot = traj.gamma_dots[i]
        lag[i] = 0.5 * minkowski_dot(xdot, xdot) + q * minkowski_dot(A_of(traj.gammas[i]), xdot)
    from scipy.integrate import simpson
    I = float(simpson(lag, x=taus))
    return ClassicalPath(action=I, van_vleck=np.nan,
                         initial_velocity=traj.gamma_dots[0].copy(),
                         final_velocity=traj.gamma_dots[-1].copy())


def _potential_of(fieldp: FieldProvider) -> Callable:
    """Linear-gauge potential A^mu(x) for a constant field provider."""
    F = np.asarray(fieldp(np.zeros(4)), dtype=float)
    F_lower = METRIC @ F @ METRIC

    def A(x):
        return METRIC @ (-0.5 * F_lower @ as_four(x))

    return A
