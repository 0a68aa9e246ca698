"""Worldline dynamics of a classical point charge in a constant external field.

The worldline gamma(s) is parametrized by a Lorentz scalar s (not proper time)
and obeys the covariant equation of motion

    d^2 gamma^mu / ds^2 = q F^mu_nu dgamma^nu/ds ,

whose s-evolution conserves gamma_dot^2.  The square root of that constant is
the effective mass of the solution; negative values (tachyonic worldlines) are
legitimate solutions and are classified, not rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .minkowski import METRIC, AntisymTensor, as_four

MAX_STEPS = 10 ** 6     # largest step count (samples - 1) a worldline may ask for
_TAYLOR_DEGREE = 18     # series degree of the worldline flow once |M t|_1 <= 1


class IntegrationBlowup(ArithmeticError):
    """Numeric failure during worldline integration; carries the offending s
    and names what went wrong there."""

    def __init__(self, s, reason="non-finite state while integrating"):
        super().__init__(f"{reason}, at s = {s:g}")
        self.s = s


@dataclass(frozen=True)
class IntegratorConfig:
    """step: the s-spacing of the worldline samples; tolerance: the largest
    gamma_dot^2 drift over the samples that integrate_worldline accepts."""

    step: float = 1e-3
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Sampled worldline: arrays s (n,), gammas (n,4), gamma_dots (n,4), charge q."""

    s: np.ndarray
    gammas: np.ndarray
    gamma_dots: np.ndarray
    q: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        g = np.asarray(self.gammas, dtype=float)
        gd = np.asarray(self.gamma_dots, dtype=float)
        if s.ndim != 1 or g.shape != (s.size, 4) or gd.shape != (s.size, 4):
            raise ValueError("inconsistent sample arrays")
        if s.size >= 2 and not np.all(np.diff(s) > 0):
            raise ValueError("s samples must be strictly increasing")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "gamma_dots", gd)
        # interpolation table [gammas | gamma_dots] and its per-interval slopes;
        # the last slope row is a zero pad, so a one-sample worldline is constant
        table = np.hstack([g, gd])
        slopes = np.zeros_like(table)
        slopes[:-1] = np.diff(table, axis=0) / np.diff(s)[:, None]
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_slopes", slopes)

    def state_at(self, s):
        """Linear interpolation of (gamma, gamma_dot) at parameter s.

        ``s`` is a scalar or an array; each result has shape ``s.shape + (4,)``.
        The values are np.interp's to the last bit: its formula
        slope[j] (s - s_j) + f_j, the sample value at a knot, and clamping to
        the end samples outside the sampled range.
        """
        x = np.minimum(np.maximum(s, self.s[0]), self.s[-1])
        j = np.searchsorted(self.s, x, side="right") - 1
        knot = (x == self.s[j])[..., None]
        vals = np.where(knot, self._table[j],
                        self._slopes[j] * (x - self.s[j])[..., None] + self._table[j])
        return vals[..., :4], vals[..., 4:]

    def norm2_samples(self) -> np.ndarray:
        gd = self.gamma_dots
        return gd[:, 0] ** 2 - np.sum(gd[:, 1:] ** 2, axis=1)

    @staticmethod
    def uniform(u, x0=(0.0, 0.0, 0.0, 0.0), s_span=(-10.0, 10.0), n=201, q=0.0) -> "Trajectory":
        """Free worldline gamma(s) = x0 + u s."""
        u = as_four(u)
        x0 = as_four(x0)
        s = np.linspace(s_span[0], s_span[1], n)
        gammas = x0[None, :] + s[:, None] * u[None, :]
        gamma_dots = np.broadcast_to(u, (n, 4)).copy()
        return Trajectory(s, gammas, gamma_dots, q=q)


def lorentz_rhs(gamma_dot, F, q: float) -> np.ndarray:
    """q F^mu_nu gamma_dot^nu = q (F g gamma_dot)^mu; orthogonal to gamma_dot."""
    return q * (F @ (METRIC @ as_four(gamma_dot)))


def step_count(s_span, step: float) -> int:
    """Number of steps of size step from s_span[0] to s_span[1].

    Raises ValueError unless that is a positive whole number (to a relative
    1e-9), so that the last sample lands on s_span[1], the step exceeds the
    float spacing at the span's ends, so that the samples increase, and the
    count is at most MAX_STEPS.
    """
    s0, s1 = float(s_span[0]), float(s_span[1])
    ratio = (s1 - s0) / step
    n_steps = int(round(ratio)) if np.isfinite(ratio) else 0
    if n_steps < 1 or abs(s0 + n_steps * step - s1) > 1e-9 * max(1.0, abs(s1)):
        raise ValueError(f"step {step:g} must divide the s-span [{s0:g}, {s1:g}] "
                         f"into a positive whole number of steps")
    spacing = np.spacing(max(abs(s0), abs(s1)))
    if step <= spacing:
        raise ValueError(f"step {step:g} is not above the float spacing {spacing:g} at "
                         f"the ends of the s-span, so the samples would not increase")
    if n_steps > MAX_STEPS:
        raise ValueError(f"step {step:g} gives {n_steps} steps over the s-span "
                         f"[{s0:g}, {s1:g}], more than the {MAX_STEPS} allowed")
    return n_steps


def _flow(M, t) -> np.ndarray:
    """e^{K t} = [[I, t phi_1(M t)], [0, e^{M t}]] for K = [[0, I], [0, M]] and
    each element of t (shape t.shape + (8, 8)), phi_1(Z) = (e^Z - I) Z^{-1}.

    (K t)^k = [[0, t (M t)^(k-1)], [0, (M t)^k]], so the series converges as
    that of M t does, whatever t itself: each t is halved j times until its
    M t has 1-norm below 1, where the remainder of the degree-18 Taylor series
    is below 1/19! ~ 8e-18, and its result is squared j times (Higham, SIAM J.
    Matrix Anal. Appl. 26 (2005) 1179).  Every product is one matrix's, so an
    element of a stack has the bits of its one-t call.  A non-finite M t, or
    one too large for the squarings to stay finite, gives non-finite entries
    rather than an error."""
    t = np.asarray(t, dtype=float)
    K = np.block([[np.zeros((4, 4)), np.eye(4)], [np.zeros((4, 4)), M]])
    A = K * t[..., None, None]
    j = np.maximum(np.frexp(np.abs(A[..., 4:, 4:]).sum(axis=-2).max(axis=-1))[1], 0)
    B = np.ldexp(A, -j[..., None, None])
    E = eye = np.eye(8)
    for k in range(_TAYLOR_DEGREE, 0, -1):
        E = eye + (B @ E) / k
    for i in range(j.max(initial=0)):
        todo = j > i
        E[todo] = E[todo] @ E[todo]
    return E


def integrate_worldline(initial, F, q: float, s_span,
                        cfg: IntegratorConfig) -> Trajectory:
    """Worldline of the Lorentz-force equation in the constant field F^{mu nu}
    (4x4, both indices up), sampled every cfg.step from s_span[0].

    The equation is linear with the constant generator K = [[0, I], [0, q F g]]
    acting on y = (gamma, gamma_dot), so y(s0 + k h) = e^{K k h} y(s0) exactly
    (Schwinger's proper-time solution).  The samples are built by doubling:
    samples m .. 2m-1 are samples 0 .. m-1 propagated by e^{K m h}, for
    m = 1, 2, 4, ...; one stacked call computes each level's exponential on its
    own, so sample k carries the rounding of one per binary digit of k.

    Raises IntegrationBlowup at the first non-finite sample, and at s_span[1]
    when the sampled gamma_dot^2 drifts by more than cfg.tolerance or leaves
    the float range."""
    F = np.asarray(AntisymTensor(np.asarray(F, dtype=float)))
    y0 = np.concatenate([as_four(initial[0]), as_four(initial[1])])
    s0, s1 = float(s_span[0]), float(s_span[1])
    n_steps = step_count(s_span, cfg.step)

    h = cfg.step
    samples = np.empty((n_steps + 1, 8))
    samples[0] = y0
    levels = 2 ** np.arange(n_steps.bit_length())     # m = 1, 2, 4, ... <= n_steps
    with np.errstate(over="ignore", invalid="ignore"):
        for m, flow in zip(levels, _flow(q * (F @ METRIC), levels * h)):
            k = min(m, n_steps + 1 - m)
            samples[m:m + k] = samples[:k] @ flow.T
    s_vals = s0 + np.arange(n_steps + 1) * h
    s_vals[0] = s0                  # keeps a -0.0 start, which -0.0 + 0.0 would not
    finite = np.isfinite(samples).all(axis=1)
    if not finite.all():
        raise IntegrationBlowup(float(s_vals[np.argmin(finite)]))
    traj = Trajectory(s_vals, samples[:, :4], samples[:, 4:], q=q)
    with np.errstate(over="ignore", invalid="ignore"):
        drift = np.abs(traj.norm2_samples() - traj.norm2_samples()[0]).max()
    if not drift <= cfg.tolerance:      # NaN where gamma_dot^2 overflows
        reason = (f"gamma_dot^2 drift {drift:g} exceeds tolerance {cfg.tolerance:g}"
                  if np.isfinite(drift) else "gamma_dot^2 leaves the float range")
        raise IntegrationBlowup(s1, reason)
    return traj


def effective_mass(traj: Trajectory):
    """(mean gamma_dot^2, classification); m = sqrt(m2) only for timelike."""
    if traj.s.size == 0:
        raise ValueError("empty trajectory")
    m2 = float(np.mean(traj.norm2_samples()))
    if abs(m2) < 1e-12:
        kind = "null"
    elif m2 > 0:
        kind = "timelike"
    else:
        kind = "tachyonic"
    return m2, kind


def apply_scaling(traj: Trajectory, lam: float) -> Trajectory:
    """gamma(s) -> lam * gamma(s / lam^2): s -> lam^2 s, gamma_dot -> gamma_dot / lam."""
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    return Trajectory(lam ** 2 * traj.s, lam * traj.gammas, traj.gamma_dots / lam, q=traj.q)


def charge_conjugate(traj: Trajectory) -> Trajectory:
    """s-reversal gamma(s) -> gamma(-s); traces the same worldline point set."""
    return Trajectory(-traj.s[::-1], traj.gammas[::-1].copy(),
                      -traj.gamma_dots[::-1], q=traj.q)


def eom_residual(traj: Trajectory, F) -> float:
    """Max norm of d(gamma_dot)/ds - q F g gamma_dot over interior samples, q = traj.q.

    The derivative is taken by central differences on the stored samples, so
    this is a direct check that a (possibly transformed) trajectory still
    solves the worldline equation in the constant field F.
    """
    ds = np.diff(traj.s)
    if not np.allclose(ds, ds[0], rtol=1e-8):
        raise ValueError("eom_residual needs uniformly sampled s")
    d_gd = (traj.gamma_dots[2:] - traj.gamma_dots[:-2]) / (2.0 * ds[0])
    F = np.asarray(F, dtype=float)
    rhs = np.array([lorentz_rhs(gd, F, traj.q) for gd in traj.gamma_dots[1:-1]])
    return float(np.abs(d_gd - rhs).max())
