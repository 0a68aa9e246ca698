"""Worldline dynamics of a classical point charge in a prescribed field.

The worldline gamma(s) is parametrized by a Lorentz scalar s (not proper time)
and obeys the covariant equation of motion

    d^2 gamma^mu / ds^2 = q F^mu_nu(gamma) dgamma^nu/ds ,

whose s-evolution conserves gamma_dot^2.  The square root of that constant is
the effective mass of the solution; negative values (tachyonic worldlines) are
legitimate solutions and are classified, not rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .minkowski import METRIC, AntisymTensor, as_four

MAX_STEPS = 10 ** 6     # largest RK4 step count a worldline may ask for


class IntegrationBlowup(ArithmeticError):
    """Numeric failure during worldline integration; carries the offending s."""

    def __init__(self, s):
        super().__init__(f"non-finite state while integrating, at s = {s:g}")
        self.s = s


@dataclass(frozen=True)
class FieldProvider:
    """External field F(x)."""

    tensor_at: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> np.ndarray:
        F = np.asarray(self.tensor_at(np.asarray(x, dtype=float)), dtype=float)
        return F

    @staticmethod
    def constant(F) -> "FieldProvider":
        Fc = np.asarray(AntisymTensor(np.asarray(F, dtype=float)))
        return FieldProvider(lambda x: Fc)

    @staticmethod
    def zero() -> "FieldProvider":
        Z = np.zeros((4, 4))
        return FieldProvider(lambda x: Z)


@dataclass(frozen=True)
class IntegratorConfig:
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


def lorentz_rhs(gamma, gamma_dot, fieldp: FieldProvider, q: float) -> np.ndarray:
    """q F^mu_nu gamma_dot^nu = q (F g gamma_dot)^mu; orthogonal to gamma_dot."""
    F = fieldp(gamma)
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


def integrate_worldline(initial, fieldp: FieldProvider, q: float, s_span,
                        cfg: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4 integration of the Lorentz-force worldline equation."""
    gamma0, gamma_dot0 = (as_four(initial[0]), as_four(initial[1]))
    s0, s1 = float(s_span[0]), float(s_span[1])
    n_steps = step_count(s_span, cfg.step)

    def rhs(y):
        return np.concatenate([y[4:], lorentz_rhs(y[:4], y[4:], fieldp, q)])

    h = cfg.step
    y = np.concatenate([gamma0, gamma_dot0])
    s_vals = np.empty(n_steps + 1)
    gammas = np.empty((n_steps + 1, 4))
    gamma_dots = np.empty((n_steps + 1, 4))
    s_vals[0], gammas[0], gamma_dots[0] = s0, y[:4], y[4:]
    for i in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise IntegrationBlowup(s0 + (i + 1) * h)
        s_vals[i + 1] = s0 + (i + 1) * h
        gammas[i + 1] = y[:4]
        gamma_dots[i + 1] = y[4:]
    traj = Trajectory(s_vals, gammas, gamma_dots, q=q)
    drift = np.abs(traj.norm2_samples() - traj.norm2_samples()[0]).max()
    if drift > cfg.tolerance:
        raise IntegrationBlowup(s1) from ValueError(
            f"gamma_dot^2 drift {drift:g} exceeds tolerance {cfg.tolerance:g}")
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


def eom_residual(traj: Trajectory, fieldp: FieldProvider, q=None) -> float:
    """Max norm of d(gamma_dot)/ds - q F g gamma_dot over interior samples.

    The derivative is taken by central differences on the stored samples, so
    this is a direct check that a (possibly transformed) trajectory still
    solves the worldline equation in the supplied field.
    """
    if q is None:
        q = traj.q
    ds = np.diff(traj.s)
    if not np.allclose(ds, ds[0], rtol=1e-8):
        raise ValueError("eom_residual needs uniformly sampled s")
    d_gd = (traj.gamma_dots[2:] - traj.gamma_dots[:-2]) / (2.0 * ds[0])
    rhs = np.array([lorentz_rhs(traj.gammas[i], traj.gamma_dots[i], fieldp, q)
                    for i in range(1, traj.s.size - 1)])
    return float(np.abs(d_gd - rhs).max())
