"""Uniform space-time lattices and the discrete calculus used by every audit.

A grid is a rectangular block of events x = origin + n * spacing with n ranging
over `extents` cells per axis (axis 0 = time).  Fields sampled on a grid carry
their values in C-order arrays whose leading four axes are the grid axes.

Derivatives are always second-order central differences and integrals are
midpoint (Riemann) sums with a fixed summation order, so that every residual
reported by the package is reproducible bit-for-bit.  The same stencils act
on callables whose points sit on the last axis: fd_grad differences a
function along each unit vector, and fd_hessian evaluates its whole stencil
in one call on a stack of points, so the function must broadcast over rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .minkowski import as_four


class DepositError(ArithmeticError):
    """Raised when a worldline cannot be deposited on the requested grid."""


@dataclass(frozen=True)
class EventGrid:
    origin: np.ndarray          # event of the (0,0,0,0) lattice site
    spacings: np.ndarray        # positive step per axis
    extents: tuple              # number of sites per axis

    def __post_init__(self):
        origin = as_four(self.origin)
        spacings = as_four(self.spacings)
        extents = tuple(int(n) for n in self.extents)
        if np.any(spacings <= 0):
            raise ValueError("grid spacings must be positive")
        if len(extents) != 4 or any(n < 1 for n in extents):
            raise ValueError("need four positive extents")
        origin.setflags(write=False)
        spacings.setflags(write=False)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacings", spacings)
        object.__setattr__(self, "extents", extents)

    def axis(self, mu: int) -> np.ndarray:
        return self.origin[mu] + self.spacings[mu] * np.arange(self.extents[mu])

    def points(self) -> np.ndarray:
        """All lattice events, shape extents + (4,)."""
        mesh = np.meshgrid(*(self.axis(mu) for mu in range(4)), indexing="ij")
        return np.stack(mesh, axis=-1)

    @property
    def cell_volume3(self) -> float:
        """Spatial cell volume d^3x."""
        return float(np.prod(self.spacings[1:]))


@dataclass(frozen=True)
class CurrentField:
    """A sampled four-current j^mu(x): values shape extents + (4,)."""

    grid: EventGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.extents + (4,):
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.extents}")
        if not np.all(np.isfinite(v)):
            raise ValueError("current field contains non-finite entries")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class TensorField:
    """A sampled rank-2 tensor T^{mu nu}(x): values shape extents + (4, 4)."""

    grid: EventGrid
    values: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.extents + (4, 4):
            raise ValueError("tensor values shape does not match grid")
        if self.symmetric:
            asym = np.abs(v - np.swapaxes(v, -1, -2)).max()
            if asym != 0.0:
                raise ValueError(f"tensor flagged symmetric but max asymmetry {asym:g}")
        object.__setattr__(self, "values", v)


def _central_diff(values: np.ndarray, axis: int, step: float) -> np.ndarray:
    """Second-order central difference along a grid axis; NaN on the boundary."""
    out = np.full_like(values, np.nan)
    sl_lo = [slice(None)] * values.ndim
    sl_hi = [slice(None)] * values.ndim
    sl_mid = [slice(None)] * values.ndim
    sl_lo[axis] = slice(0, -2)
    sl_hi[axis] = slice(2, None)
    sl_mid[axis] = slice(1, -1)
    out[tuple(sl_mid)] = (values[tuple(sl_hi)] - values[tuple(sl_lo)]) / (2.0 * step)
    return out


def fd_grad(fun: Callable, x, h: float) -> np.ndarray:
    """(fun(x + h e_i) - fun(x - h e_i)) / 2h over the last axis of x, stacked first."""
    x = np.asarray(x, dtype=float)
    return np.array([(fun(x + e) - fun(x - e)) / (2 * h) for e in h * np.eye(x.shape[-1])])


@cache
def _pairs(n: int):
    """The pairs i < j of an n-D stencil in triu order, and the a and b
    that pick from the 2n single steps S (+h e_i, then -h e_i) their points
    (z + S[a]) + S[b], in four blocks: ++, +-, -+ and --."""
    i, j = np.triu_indices(n, 1)
    a, b = np.concatenate([i, i, n + i, n + i]), np.concatenate([j, n + j, j, n + j])
    for arr in (a, b, i, j):
        arr.setflags(write=False)
    return a, b, i, j


def fd_hessian(fun: Callable, z, h: float) -> np.ndarray:
    """Symmetric Hessian of a scalar fun at the point z by central differences.

    The diagonal is the 3-point (f(z + h e_i) - 2 f(z) + f(z - h e_i)) / h^2;
    each pair i < j takes the 4-point (f(++) - f(+-) - f(-+) + f(--)) / 4h^2.
    fun is called once, on the (1 + 2n^2, n) stack of the stencil's points,
    and returns their 1 + 2n^2 values.  Each point is z + h e_i (+ h e_j)
    added in that order, with z - h e_i as z + (-h e_i): the same bits,
    signed zeros included, as the point taken one at a time.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    steps = h * np.eye(n)
    S = np.concatenate([steps, -steps])
    a, b, i, j = _pairs(n)
    single = z + S
    f = fun(np.concatenate([z[None], single, single[a] + S[b]]))
    f0, fs, (pp, pm, mp, mm) = f[0], f[1:2 * n + 1], f[2 * n + 1:].reshape(4, -1)
    H = np.empty((n, n))
    H[np.diag_indices(n)] = (fs[:n] - 2 * f0 + fs[n:]) / h ** 2
    H[i, j] = H[j, i] = (pp - pm - mp + mm) / (4 * h ** 2)
    return H


def _simpson(y, x) -> float:
    """int y dx by composite Simpson's rule over an odd number of samples at
    increasing, not necessarily even, x: scipy 1.17's integrate.simpson(y, x=x)
    in its own order of operations, without importing scipy.integrate."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    if y.size % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd number of samples, not {y.size}")
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum, hprod, h0divh1 = h0 + h1, h0 * h1, h0 / h1
    return float(np.sum(hsum / 6.0 * (y[:-2:2] * (2.0 - 1.0 / h0divh1)
                                      + y[1::2] * (hsum * (hsum / hprod))
                                      + y[2::2] * (2.0 - h0divh1))))


def grid_divergence(j: CurrentField) -> np.ndarray:
    """d_mu j^mu by central differences; boundary layer is NaN (excluded from norms)."""
    if any(n < 3 for n in j.grid.extents):
        raise ValueError("grid too small for central differences (need >= 3 per axis)")
    div = np.zeros(j.grid.extents)
    for mu in range(4):
        div = div + _central_diff(j.values[..., mu], mu, j.grid.spacings[mu])
    return div


def _fixed_order_sum(a: np.ndarray) -> float:
    """Compensated sum in C order -- deterministic regardless of worker count."""
    return math.fsum(a.ravel(order="C").tolist())


def grid_charge(j: CurrentField, time_slice: int) -> float:
    """Riemann sum of j^0 over the spatial slice times the cell volume."""
    if not 0 <= time_slice < j.grid.extents[0]:
        raise IndexError(f"time slice {time_slice} outside grid extent {j.grid.extents[0]}")
    return _fixed_order_sum(j.values[time_slice, ..., 0]) * j.grid.cell_volume3


def slice_integral(grid: EventGrid, scalar_values: np.ndarray, time_slice: int) -> float:
    """Riemann sum of a sampled scalar over one spatial slice."""
    return _fixed_order_sum(scalar_values[time_slice]) * grid.cell_volume3


def boundary_flux3(j: CurrentField, time_slice: int) -> float:
    """Outward flux of the spatial current through the spatial boundary of a slice.

    Used to correct slice-charge drift on finite grids: for a conserved current,
    d/dt (slice charge) = -(outward boundary flux).
    """
    v = j.values[time_slice]     # shape (n1, n2, n3, 4)
    grid = j.grid
    flux = 0.0
    for i, axis in enumerate((0, 1, 2)):
        area = grid.cell_volume3 / grid.spacings[1 + i]
        lo = np.take(v[..., 1 + i], 0, axis=axis)
        hi = np.take(v[..., 1 + i], -1, axis=axis)
        flux += (_fixed_order_sum(hi) - _fixed_order_sum(lo)) * area
    return flux


@dataclass(frozen=True)
class DepositKernel:
    """Charge-exact kernel turning worldline delta distributions into grid samples.

    kind 'nearest' dumps everything in the closest spatial cell; 'trilinear'
    spreads over the 8 neighbours with linear weights (nearest in time either
    way).  Both deposit exactly the intended charge on every crossed slice;
    trilinear additionally reproduces linear spatial moments exactly.
    """

    kind: str = "trilinear"

    def __post_init__(self):
        if self.kind not in ("nearest", "trilinear"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    def spread(self, grid: EventGrid, xs: np.ndarray):
        """Yield (spatial index tuple, weight) pairs for a spatial point xs."""
        frac = (np.asarray(xs, dtype=float) - grid.origin[1:]) / grid.spacings[1:]
        shape = grid.extents[1:]
        if self.kind == "nearest":
            idx = np.rint(frac).astype(int)
            if np.any(idx < 0) or np.any(idx >= shape):
                raise DepositError(f"point {xs} falls outside the spatial grid")
            return [(tuple(idx), 1.0)]
        base = np.floor(frac).astype(int)
        if np.any(base < 0) or np.any(base + 1 >= shape):     # the cell's far corner
            raise DepositError(f"point {xs} too close to the spatial grid edge")
        t = frac - base
        out = []
        for corner in range(8):
            offs = np.array([(corner >> b) & 1 for b in range(3)])
            w = np.prod(np.where(offs == 1, t, 1.0 - t))
            if w != 0.0:
                out.append((tuple(base + offs), float(w)))
        return out


def _crossing_state(traj, t: float):
    """Interpolate (s*, gamma, gamma_dot) where gamma^0 crosses the time t."""
    g0 = traj.gammas[:, 0]
    dg0 = np.diff(g0)
    if np.all(dg0 > 0):
        lo, hi = g0[0], g0[-1]
    elif np.all(dg0 < 0):
        lo, hi = g0[-1], g0[0]
    else:
        raise DepositError("worldline is not monotone in x^0; slice deposits undefined")
    if not (lo <= t <= hi):
        raise DepositError(f"worldline does not cross the slice t={t:g}")
    order = np.argsort(g0)
    s_star = float(np.interp(t, g0[order], traj.s[order]))
    gamma, gamma_dot = traj.state_at(s_star)
    gamma[0] = t   # exact by construction of s_star
    return s_star, gamma, gamma_dot


def deposit_line_current(traj, grid: EventGrid, kernel: DepositKernel,
                         weight: Callable[[float, np.ndarray, np.ndarray], float]) -> CurrentField:
    """Sample w(s) * int ds delta^4(x - gamma_s) gamma_dot_s on the grid.

    On the slice x^0 = t the distribution reduces to
    w(s*) * gamma_dot(s*) / |gamma_dot^0(s*)| * delta^3(x - gamma(s*)),
    so every crossed slice carries the charge w(s*) * sign(gamma_dot^0) exactly.
    """
    values = np.zeros(grid.extents + (4,))
    vol = grid.cell_volume3
    for k in range(grid.extents[0]):
        t = grid.axis(0)[k]
        s_star, gamma, gamma_dot = _crossing_state(traj, t)
        if gamma_dot[0] == 0.0:
            raise DepositError(f"gamma_dot^0 vanishes at the slice t={t:g}")
        amp = weight(s_star, gamma, gamma_dot) / abs(gamma_dot[0])
        for idx, w in kernel.spread(grid, gamma[1:]):
            values[(k,) + idx] += (amp * w / vol) * gamma_dot
    return CurrentField(grid, values)
