"""Retarded potentials, stress tensors, and the classical conserved currents.

The retarded potential of a point charge on a worldline gamma(s) is

    A^mu(x) = q gamma_dot^mu(s*) / (4 pi |gamma_dot . (x - gamma)|) ,

with s* the retarded root of (x - gamma_s)^2 = 0, x^0 > gamma^0.  The overall
1/(2 pi) in front of the delta-composition factor 1/(2|...|) is fixed by
requiring box A = j with the standard retarded Green function; the static
charge then gives the Coulomb potential q/(4 pi r), which is the oracle used
in the tests.

Conservation audits for deposited line currents always compare integrated
slice charges, never pointwise values of distributional identities.
"""

from __future__ import annotations

import numpy as np

from .minkowski import METRIC, AntisymTensor, as_four, minkowski_dot
from .dynamics import Trajectory
from .grids import (CurrentField, DepositKernel, EventGrid, TensorField,
                    _crossing_state, deposit_line_current)

LW_KAPPA = 1.0 / (2.0 * np.pi)


class CoverageError(ArithmeticError):
    """The worldline samples do not bracket the required light-cone root."""


class WorldlineSingularity(ZeroDivisionError):
    """Evaluation point lies on the worldline (or its light-cone caustic)."""


# Events per bracketing chunk: the sign-change search fills a few
# (events x samples) buffers, allocated once per call, so this bounds its
# memory.  With a 1001-sample worldline each float buffer is then ~128 kB;
# on lw-map's 432 events (one root each) 8, 16, 32 and 64 ran alike (2-core x86-64).
_BRACKET_CHUNK = 16


def _brackets(X, traj: Trajectory):
    """Index i of the latest past-branch sign change of (x - gamma_s)^2 in
    [s_i, s_i+1] for each event, and whether one exists."""
    n = traj.s.size
    last = np.zeros(len(X), dtype=np.intp)
    found = np.zeros(len(X), dtype=bool)
    if n < 2 or len(X) == 0:
        return last, found
    g = traj.gammas.T
    rows = min(_BRACKET_CHUNK, len(X))
    dt, f, tmp = np.empty((3, rows, n))
    past, cross = np.empty((rows, n), dtype=bool), np.empty((rows, n - 1), dtype=bool)
    for c in range(0, len(X), rows):
        x = X[c:c + rows, :, None]
        dt_, f_, tmp_, past_, cross_ = (b[:len(x)] for b in (dt, f, tmp, past, cross))
        # dt^2 - ((dx^2 + dy^2) + dz^2): this order fixes the rounding, and so
        # the sign of f next to the light cone, to that of np.sum
        np.subtract(x[:, 1], g[1], out=f_)
        np.square(f_, out=f_)
        for mu in (2, 3):
            np.subtract(x[:, mu], g[mu], out=tmp_)
            np.square(tmp_, out=tmp_)
            f_ += tmp_
        np.subtract(x[:, 0], g[0], out=dt_)
        np.greater(dt_, 0, out=past_)
        np.square(dt_, out=dt_)
        np.subtract(dt_, f_, out=f_)
        np.multiply(f_[:, :-1], f_[:, 1:], out=tmp_[:, :-1])
        np.less_equal(tmp_[:, :-1], 0, out=cross_)
        cross_ &= past_[:, :-1]
        cross_ &= past_[:, 1:]
        last[c:c + rows] = n - 2 - np.argmax(cross_[:, ::-1], axis=1)
        found[c:c + rows] = cross_.any(axis=1)
    return last, found


def retarded_roots(X, traj: Trajectory):
    """Solve (x - gamma_s)^2 = 0 with x^0 > gamma^0(s) for a stack X (m, 4).

    Returns (found (m,), i, tau): found marks the events whose samples bracket
    a root, and for those, in order, i is the bracketing interval [s_i, s_i+1]
    and tau = s* - s_i.  There gamma = gamma_i + v tau is linear, so with
    d = x - gamma_i, (x - gamma)^2 = a tau^2 - 2 b tau + c (a = v.v, b = v.d,
    c = d.d) is an exact quadratic, linear where a = 0.  tau is its smallest
    root in [0, s_i+1 - s_i], from the cancellation-free pair w / a, c / w
    with w = b + sign(b) sqrt(b^2 - a c).
    """
    i, found = _brackets(X, traj)
    i = i[found]
    d = X[found] - traj.gammas[i]
    v = traj._slopes[i, :4]
    a, b, c = minkowski_dot(v, v), minkowski_dot(v, d), minkowski_dot(d, d)
    w = b + np.copysign(np.sqrt(np.maximum(b * b - a * c, 0.0)), b)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1, r2 = w / a, c / w           # inf or NaN where a or w is 0
    lo, hi = np.fmin(r1, r2), np.fmax(r1, r2)
    h = traj.s[i + 1] - traj.s[i]
    # the smaller root unless the larger one lies nearer [0, h], as it does
    # when only the larger one lies inside; NaN (f = 0 throughout) gives 0
    gap = lambda r: np.fmax(np.fmax(-r, r - h), 0.0)
    tau = np.where(gap(lo) <= gap(hi), lo, hi)
    return found, i, np.fmin(np.fmax(tau, 0.0), h)


def _lienard_wiechert(X, traj: Trajectory):
    """(A (m, 4), F (m, 4, 4), bracketed (m,), regular (m,)) from one retarded
    root per event; regular implies bracketed, and A and F are NaN where not.

    gamma and gamma_dot are linear on the bracketing interval, with slopes v
    and a, so F is exact there: with R = x - gamma(s*) and D = gamma_dot . R,
    d^mu s* = R^mu / (v . R) and d^mu D = (a . R - gamma_dot . v) d^mu s* +
    gamma_dot^mu.  D ~ 0, v . R = 0 or a non-finite F is the light-cone
    caustic of the worldline, and not regular.
    """
    X = np.asarray(X, dtype=float).reshape(-1, 4)
    bracketed, i, tau = retarded_roots(X, traj)
    v, acc = traj._slopes[i, :4], traj._slopes[i, 4:]
    # x - gamma and gamma_dot from tau itself: rounding s_i + tau would move them
    sep = (X[bracketed] - traj.gammas[i]) - v * tau[:, None]
    gdot = traj.gamma_dots[i] + acc * tau[:, None]
    D, vR = minkowski_dot(gdot, sep), minkowski_dot(v, sep)
    ok = ~(np.abs(D) < 1e-14) & (vR != 0)
    sep, gdot, v, acc, D, vR = (y[ok] for y in (sep, gdot, v, acc, D, vR))
    A = LW_KAPPA * traj.q * gdot / (2.0 * np.abs(D)[:, None])
    A_s = LW_KAPPA * traj.q * acc / (2.0 * np.abs(D)[:, None])  # d A / d s* at fixed D
    with np.errstate(over="ignore", invalid="ignore"):         # caught by the finite test
        ds = sep / vR[:, None]                                          # d^mu s*
        dD = (minkowski_dot(acc, sep) - minkowski_dot(gdot, v))[:, None] * ds + gdot  # d^mu D
        dA = ds[:, :, None] * A_s[:, None, :] - (dD / D[:, None])[:, :, None] * A[:, None, :]
        F = dA - np.swapaxes(dA, 1, 2)                                  # d^mu A^nu - d^nu A^mu
        fine = np.isfinite(F).all(axis=(1, 2))
    regular = np.zeros(len(X), dtype=bool)
    regular[np.flatnonzero(bracketed)[ok]] = fine
    A_out, F_out = np.full(X.shape, np.nan), np.full((len(X), 4, 4), np.nan)
    A_out[regular], F_out[regular] = A[fine], F[fine]
    return A_out, F_out, bracketed, regular


def _lienard_wiechert_at(x, traj: Trajectory):
    """(A, F) at one event; raises where its retarded root is not bracketed or not regular."""
    A, F, bracketed, regular = _lienard_wiechert(as_four(x)[None], traj)
    if not bracketed[0]:
        raise CoverageError("retarded root not bracketed by the trajectory samples")
    if not regular[0]:
        raise WorldlineSingularity("evaluation point on the worldline light-cone vertex")
    return A[0], F[0]


def lw_potential(x, traj: Trajectory) -> np.ndarray:
    """Retarded potential A^mu(x) of the charge q carried by the trajectory."""
    return _lienard_wiechert_at(x, traj)[0]


def lw_fields(X, traj: Trajectory):
    """Retarded potentials and fields at a stack of events X (m, 4), one pass.

    Returns (A (m, 4), F (m, 4, 4), covered (m,)): F^{mu nu} exact on the
    interval that brackets each event's retarded root, and covered False, with
    A and F NaN, where that root is not bracketed or not regular.
    """
    A, F, _, regular = _lienard_wiechert(X, traj)
    return A, F, regular


def lw_field(x, traj: Trajectory) -> AntisymTensor:
    """F^{mu nu} = d^mu A^nu - d^nu A^mu at x, exact on the bracketing interval."""
    return AntisymTensor(_lienard_wiechert_at(x, traj)[1])


def stress_tensor(F) -> np.ndarray:
    """Canonical EM energy-momentum Theta^{nu mu}; symmetric, traceless."""
    F = np.asarray(F, dtype=float)
    F_lower = METRIC @ F @ METRIC
    F2 = float(np.sum(F * F_lower))
    return 0.25 * METRIC * F2 + F @ METRIC @ F


def deposit_electric_current(traj: Trajectory, grid: EventGrid,
                             kernel: DepositKernel) -> CurrentField:
    """q int ds delta^4(x - gamma_s) gamma_dot_s; slice charge q exactly."""
    return deposit_line_current(traj, grid, kernel, lambda s, g, gd: traj.q)


def geometric_dilatation_term(p: TensorField) -> CurrentField:
    """xi_geom^nu = p^{nu mu} x_mu sampled on the grid of p."""
    pts = p.grid.points()
    x_lower = pts @ METRIC
    vals = np.einsum("...nm,...m->...n", p.values, x_lower)
    return CurrentField(p.grid, vals)


def dilatation_current(p: TensorField, trajs) -> CurrentField:
    """xi^nu = p^{nu mu} x_mu - sum_k int ds delta^4 s gamma_dot^2 gamma_dot^nu."""
    xi = geometric_dilatation_term(p)
    for traj in trajs:
        line = deposit_line_current(
            traj, p.grid, DepositKernel("trilinear"),
            lambda s, g, gd: s * minkowski_dot(gd, gd))
        xi = CurrentField(p.grid, xi.values - line.values)
    return xi


def classical_dilatation_charge(trajs, time: float) -> float:
    """D = int d^3x xi^0 of free particles by the slice-crossing composition.

    For each worldline the matter part of p^{0 mu} x_mu integrates to
    gamma_dot . gamma(s*) sign(gamma_dot^0) and the line term to
    s* gamma_dot^2 sign(gamma_dot^0), with s* the slice crossing; the EM
    contribution of free particles is zero.
    """
    D = 0.0
    for traj in trajs:
        s_star, gamma, gdot = _crossing_state(traj, time)
        sgn = np.sign(gdot[0])
        D += sgn * (minkowski_dot(gdot, gamma) - s_star * minkowski_dot(gdot, gdot))
    return float(D)


def shift_origin(traj: Trajectory, a) -> Trajectory:
    """Move the spatial coordinate origin to a: x -> x - (0, a)."""
    a4 = np.concatenate([[0.0], np.asarray(a, dtype=float)])
    return Trajectory(traj.s, traj.gammas - a4[None, :], traj.gamma_dots, q=traj.q)


def shift_s_origin(traj: Trajectory, b: float) -> Trajectory:
    """Reparametrize gamma~(s) = gamma(s + b)."""
    return Trajectory(traj.s - b, traj.gammas, traj.gamma_dots, q=traj.q)


def dilatation_shift_check(trajs, a, b, time: float) -> float:
    """Relative residual of D -> D + P.a + sum_k m_k^2 b_k under origin shifts.

    P.a is the Euclidean dot product of the total spatial momentum with the
    shift a; the recomputed side moves every worldline to the shifted origin
    (spatial and per-particle s) and re-evaluates the dilatation charge.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.size != len(trajs):
        raise ValueError("need one s-shift per trajectory")
    D = classical_dilatation_charge(trajs, time)
    P_spatial = np.zeros(3)
    m2_terms = 0.0
    for traj, bk in zip(trajs, b):
        _, _, gdot = _crossing_state(traj, time)
        P_spatial += np.sign(gdot[0]) * gdot[1:]
        m2_terms += minkowski_dot(gdot, gdot) * bk * np.sign(gdot[0])
    predicted = D + float(P_spatial @ np.asarray(a, dtype=float)) + m2_terms
    shifted = [shift_s_origin(shift_origin(t, a), bk) for t, bk in zip(trajs, b)]
    recomputed = classical_dilatation_charge(shifted, time)
    scale = max(abs(D), abs(predicted), 1.0)
    return abs(recomputed - predicted) / scale
