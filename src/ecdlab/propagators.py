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
from .dynamics import _flow as expm
from .grids import _simpson, fd_hessian


_HESSIAN_STEP = 1e-3       # coarse step of the Richardson mixed Hessian
_HJ_S_STEP = 1e-4          # s-step of the Hamilton-Jacobi d_s I
_BVP_STEPS = 400           # worldline samples (less one) along a shooting path
_BVP_MAX_ITER = 40         # Newton iterations before the shooting gives up
_BVP_TOL = 1e-12           # endpoint miss that ends the Newton iteration


class NoPathError(ArithmeticError):
    """Boundary-value solver failed to produce a classical path."""


def _pref(s):
    return 1j * np.sign(s) / (2.0 * np.pi) ** 2


def free_propagator(x, xp, s):
    """G_f = i sign(s) e^{i (x-x')^2 / (2 s)} / ((2 pi)^2 s^2), elementwise over
    the broadcast leading axes of the events x, x' and the proper times s (a
    complex scalar for one event and one s)."""
    if np.any(s == 0):
        raise ZeroDivisionError("free propagator is singular at s = 0")
    d = as_events(x) - as_events(xp)
    phase = minkowski_dot(d, d) / (2.0 * s)
    return _pref(s) * np.exp(1j * phase) / (s * s)


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
    a mixed_hessian, hessian_x_xp takes central differences of `action`,
    which then must take stacks of x and x' (m, 4) and return m values.
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
            return fd_hessian(lambda w: self.action(w[..., :4], w[..., 4:], s), z, step)[:4, 4:]

        coarse, fine = mixed(_HESSIAN_STEP), mixed(_HESSIAN_STEP / 2)
        return (4.0 * fine - coarse) / 3.0     # Richardson: kills the O(h^2) term


def free_action_provider() -> ActionProvider:
    """I = (x - x')^2 / (2s) for the straight free path; the action is
    elementwise over the broadcast leading axes of x, x' and s."""

    def action(x, xp, s):
        d = as_events(x) - as_events(xp)
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


def constant_field_van_vleck(F, s, q: float = 1.0):
    """|det(-d_x d_x' I)|^{1/2} of the constant-field action, elementwise over
    an array s.  The mixed Hessian is -g e^{M s} (s phi_1(M s))^{-1} (see
    constant_field_action_provider), and g and e^{M s} (M is traceless) have
    unit |det|, so this is |det s phi_1(M s)|^{-1/2}, read from the flow's
    top-right block: s^{-2} (qEs/2) / sinh(qEs/2) for a pure E field and
    s^{-2} |(qBs/2) / sin(qBs/2)| for a pure B field.  The block's condition
    number grows as e^{|qEs|}, and the determinant's relative error with it."""
    if np.any(np.asarray(s) == 0):
        raise ZeroDivisionError("prefactor singular at s = 0")
    return _flow_van_vleck(_checked_flow(q * (np.asarray(F, dtype=float) @ METRIC), s))


def _checked_flow(M0, s):
    """The worldline flow e^{K s} (expm) of each element of s; raises
    OverflowError where |q F s| is too large for it to stay finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        E = expm(M0, s)
    if not np.isfinite(E).all():
        raise OverflowError("worldline flow overflows: |q F s| too large")
    return E


def _flow_van_vleck(E):
    """|det s phi_1(M s)|^{-1/2} from the top-right blocks of the flows E."""
    return np.exp(-0.5 * np.linalg.slogdet(E[..., :4, 4:])[1])


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


def _mv(a, v):
    """a @ v for every vector of the stack v (..., n).  numpy rounds each
    product of the batch as it rounds the one-vector a @ v, where a single
    matrix product over the stack would round differently."""
    return (a @ v[..., None])[..., 0]


def _dot(u, v):
    """u @ v over the last axis, each rounded as the one-vector u @ v."""
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


def _constant_field_kernel(F, q):
    """constant_field_action_provider's action, which also returns the flow
    stack it read, and its grad_x."""
    F = np.asarray(F, dtype=float)
    M0 = q * (F @ METRIC)                 # mixed tensor acting on velocities
    F_lower = METRIC @ F @ METRIC

    def solve(d, s):
        """(e^{K s}, v0) of the classical paths with x - x' = d (..., 4) in
        proper times s, which broadcast against the leading axes of d; v0 has
        their broadcast shape."""
        E = _checked_flow(M0, s)
        try:
            v0 = np.linalg.solve(E[..., :4, 4:], d[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NoPathError("singular boundary-value map (caustic)") from exc
        return E, v0

    def action(x, xp, s):
        x = as_events(x)
        xp = as_events(xp)
        d = x - xp
        E, v0 = solve(d, s)
        return (0.25 * _dot(d @ METRIC, _mv(E[..., 4:, 4:], v0) + v0)
                - 0.5 * q * _dot(_mv(F_lower.T, x), xp)), E

    def grad(x, xp, s):
        x = as_four(x)
        E, v0 = solve(x - as_four(xp), s)
        return METRIC @ (E[..., 4:, 4:] @ v0) - 0.5 * q * (F_lower @ x)

    return action, grad


def constant_field_action_provider(F, q: float = 1.0) -> ActionProvider:
    """Closed-form boundary-value action for a constant field in the linear gauge.

    Gauge choice A_nu = -1/2 F_{nu mu} x^mu (so F = dA holds exactly).  The
    path solves d^2x/dtau^2 = M dx/dtau with M = q F^mu_nu, so its velocity is
    e^{M tau} v0 and x - x' = s phi_1(M s) v0 with phi_1(Z) = (e^Z - I) Z^{-1}
    (Schwinger's proper-time solution, Phys. Rev. 82, 664 (1951)).  The
    worldline flow e^{K s} of K = [[0, I], [0, M]] (expm) holds both: s
    phi_1(M s) top right and e^{M s} bottom right, without an
    eigendecomposition, so null fields (|E| = |B|, E.B = 0) need no special
    case.  The action of the quadratic Lagrangian is then

        I = 1/4 (x - x').g.(e^{M s} + I) v0 - q/2 x^T F_low x',

    and grad_x is the endpoint canonical momentum g e^{M s} v0 + q A(x).
    The action broadcasts over the leading axes of x, x' and s: the
    exponential depends on s alone, so a stack costs one stacked exponential
    over its s and one broadcast solve with a right-hand side per event.
    Every product is batched per event (see _mv), so each element of a stack
    gets the bits of its one-event, one-s call.  Where the flow leaves the
    float range, both raise OverflowError.
    """
    action, grad = _constant_field_kernel(F, q)
    return ActionProvider(lambda x, xp, s: action(x, xp, s)[0], grad)


def constant_field_propagator(F, q: float = 1.0) -> Callable:
    """The exact constant-field kernel G(x, x'; s) = i sign(s) / (2 pi)^2
    |det(-d_x d_x' I)|^{1/2} e^{i I}, broadcast as the action of
    constant_field_action_provider; the action and the prefactor of one call
    read one flow stack, and G raises as that action does."""
    action, _ = _constant_field_kernel(F, q)

    def G(x, xp, s):
        I, E = action(x, xp, s)
        return _pref(s) * _flow_van_vleck(E) * np.exp(1j * I)

    return G


def hamilton_jacobi_residual(action: ActionProvider, A: Callable, x, xp, s: float,
                             q: float = 1.0) -> float:
    """|d_s I + 1/2 (dI - qA)^2| at (x, x'; s) -- the Hamilton-Jacobi check.

    A is the contravariant potential x -> A^mu(x); it is lowered internally to
    match the lower-index endpoint momentum p_mu = dI/dx^mu.
    """
    x = as_four(x)
    hs = _HJ_S_STEP
    # fourth-order central difference: its truncation h^4 |d^5 I / ds^5| / 30
    # stays far below the residual scale where the 3-point one did not at
    # small |s| and long intervals
    I = [action.action(x, xp, s + k * hs) for k in (-2, -1, 1, 2)]
    dIds = (I[0] - 8.0 * I[1] + 8.0 * I[2] - I[3]) / (12.0 * hs)
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
    A_low = -0.5 * traj.gammas @ (METRIC @ np.asarray(F, dtype=float) @ METRIC).T
    lag = np.einsum("ij,ij->i", traj.gamma_dots, 0.5 * traj.gamma_dots @ METRIC + q * A_low)
    I = _simpson(lag, traj.s)
    return ClassicalPath(action=I, van_vleck=np.nan,
                         initial_velocity=traj.gamma_dots[0].copy(),
                         final_velocity=traj.gamma_dots[-1].copy())

