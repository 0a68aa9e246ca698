"""Gauge-invariant currents of an extended charge and their conservation audits.

The electric current j^mu = int ds q Im[phi* D^mu phi] has scaling dimension
-3; for the free calibrated wave its static profile splits into a light-cone
tail ~ eps/r (the divergent piece, supported on (x - gamma_s)^2 = 0) and a
finite remainder.  The mass current b = bbar + bbreve (dimension -5) has an
analogous split with an additional r/eps light-cone piece.

Static radial profiles use the compactly supported Fourier transforms of
sinc^2 and its derivative, which turn each profile into a finite Fresnel
integral with polynomial weights.  Its closed form (Fresnel moments) is good
to near machine precision and makes the remainder power-law fits possible
(the raw remainder oscillates like cos(r^2 / eps) with an r^{-4} envelope; a
radial average over a few sqrt(eps) is what decays like r^{-5}).

Units are hbar = c = 1 (see propagators), so D^mu = d^mu - i q A^mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .minkowski import as_four, minkowski_dot
from .dynamics import Trajectory
from .ecd_core import EpsilonCalibration
from .grids import (CurrentField, DepositKernel, EventGrid, TensorField, _simpson,
                    boundary_flux3, deposit_line_current, fd_grad, grid_charge)

_METRIC_DIAG = np.array([1.0, -1.0, -1.0, -1.0])
_PANEL_NODES = 8        # Gauss-Legendre nodes per s-panel
_MAX_PANELS = 4000      # panel count at which s_panels stops refining
_SMEAR_POINTS = 81      # Simpson samples of radial_smear
_PROFILE_POINTS = 14    # geometric radii of a profile fit (fit_radii)
TAIL_WINDOW_X = (5.0, 60.0)     # default profile fit window, r / sqrt(eps)
SMEAR_WIDTH_X = 2.0             # default radial smear width, in sqrt(eps)


# ---------------------------------------------------------------------------
# wave-field evaluators


class WaveJet(NamedTuple):
    """A wave and its first derivatives; grad and ds_grad carry a lower index.

    An array of s-nodes adds a leading s-axis; ds_grad is None at order 1.
    """

    value: np.ndarray
    grad: np.ndarray
    ds: np.ndarray
    ds_grad: Optional[np.ndarray] = None


def _jet_s(s, order, ndim: int):
    """Checked s; 1-D s-nodes become (n, 1, ..., 1) against ndim coordinate axes."""
    if order not in (1, 2):
        raise ValueError(f"jet order must be 1 or 2, got {order!r}")
    s = np.asarray(s, dtype=float)
    if s.ndim > 1:
        raise ValueError("s must be a scalar or a 1-D array of s-nodes")
    return s.reshape(s.shape + (1,) * ndim)


def _first(v, a):
    """A 4-vector shaped to broadcast along the first axis of a.

    Jets and kernels keep components first in memory, so that numpy's inner
    loops run over points, not over the four components.
    """
    return np.asarray(v).reshape((4,) + (1,) * (a.ndim - 1))


# The potential-free bilinears whose s-sums the grid kernels read
# (PhiField._s_sums), with the shape of one point's value.  Im(d_s phi* phi),
# which b needs, is -Im(phi* d_s phi), so "ds" serves it too.
_BILINEARS = {
    "rho": (),          # |phi|^2
    "J": (4,),          # Im(phi* d_mu phi)
    "R": (10,),         # Re(d_nu phi d_mu phi*), the ten pairs nu <= mu of _PAIRS
    "ds": (),           # Im(phi* d_s phi)
    "ds_grad": (4,),    # Re(phi* d_s d_mu phi)
    "b": (4,),          # Re(d_s phi* d_mu phi)
}
_PAIRS = np.triu_indices(4)


class PhiField:
    """A wave phi(x, s) that computes its jet in one pass; single parts read the jet.

    Subclasses implement _jet_axes(c, s, order): c holds four coordinate
    arrays that broadcast against each other and against s (a scalar, or
    nodes shaped (n, 1, ..., 1)); the parts come back full-size, gradients
    components first and with a lower index.  jet passes its events' columns,
    grid_jet the grid's open mesh, so a factor of one coordinate is made once
    per grid line.

    The grid kernels read only _s_sums(grid, s_nodes, s_weights, names): for
    each name of _BILINEARS, sum_n w_n of that bilinear at s_n on the grid's
    events in C order, lower indices and components first.  The potential
    A(x) leaves every s-integral, so the kernels apply it to these sums once
    per point.  The default sums the jet over chunks of s-nodes; a wave with
    a closed form or a separable structure overrides it.
    """

    def _jet_axes(self, c, s, order) -> WaveJet:
        raise NotImplementedError

    def _s_sums(self, grid: EventGrid, s_nodes, s_weights, names) -> dict:
        """The named bilinears' s-sums on the grid, from the jet _S_CHUNK nodes at a time."""
        n_pts = math.prod(grid.extents)
        sums = {name: np.zeros(_BILINEARS[name] + (n_pts,)) for name in names}
        if not sums:
            return sums
        mesh = _open_mesh(grid)
        order = 2 if "ds_grad" in sums else 1
        nu, mu = _PAIRS
        for k in range(0, s_nodes.size, _S_CHUNK):
            s, w = s_nodes[k:k + _S_CHUNK], s_weights[k:k + _S_CHUNK]
            jet = self._jet_axes(mesh, _jet_s(s, order, 4), order)
            v, ds = jet.value.reshape(s.size, n_pts), jet.ds.reshape(s.size, n_pts)
            grad = jet.grad.reshape(4, s.size, n_pts)
            for name, out in sums.items():
                if name == "rho":
                    out += _re_sum(w, v, v)
                elif name == "J":
                    out += _re_sum(w, v, grad, imag=True)
                elif name == "R":
                    for k_pair in range(nu.size):
                        out[k_pair] += _re_sum(w, grad[mu[k_pair]], grad[nu[k_pair]])
                elif name == "ds":
                    out += _re_sum(w, v, ds, imag=True)
                elif name == "ds_grad":
                    out += _re_sum(w, v, jet.ds_grad.reshape(4, s.size, n_pts))
                else:       # "b"
                    out += _re_sum(w, ds, grad)
        return sums

    def jet(self, x, s, order: int = 1) -> WaveJet:
        """Value, gradient, d_s and at order 2 d_s grad at the events x (..., 4)."""
        x = np.asarray(x, dtype=float)
        return self._jet_on(tuple(x.reshape(-1, 4).T), s, order, x.shape[:-1])

    def grid_jet(self, grid: EventGrid, s, order: int = 1) -> WaveJet:
        """The jet at the grid's events in C order: jet(grid.points() as (P, 4))."""
        return self._jet_on(_open_mesh(grid), s, order, (math.prod(grid.extents),))

    def _jet_on(self, c, s, order, shape) -> WaveJet:
        """_jet_axes at c, reshaped to s's shape + shape with gradients' components last."""
        jet = self._jet_axes(c, _jet_s(s, order, c[0].ndim), order)
        shape = np.shape(s) + shape

        def grad(d):
            return None if d is None else np.moveaxis(d.reshape((4,) + shape), 0, -1)
        return WaveJet(jet.value.reshape(shape), grad(jet.grad), jet.ds.reshape(shape),
                       grad(jet.ds_grad))

    def value(self, x, s):
        return self.jet(x, s).value

    def grad(self, x, s):
        return self.jet(x, s).grad

    def ds(self, x, s):
        return self.jet(x, s).ds

    def ds_grad(self, x, s):
        return self.jet(x, s, 2).ds_grad

    def abs2(self, x, s):
        """|phi|^2 at the events x (..., 4)."""
        v = self.value(x, s)
        return v.real * v.real + v.imag * v.imag


def _re_sum(w, f, h, imag: bool = False):
    """Re (or Im) of sum_n w_n f_n* h_n over the s-axis that leads f (n, P) and
    h, each of which may carry a components axis before it."""
    hr, hi = (h.imag, -h.real) if imag else (h.real, h.imag)     # Im z = Re(-i z)
    return (np.einsum("n,...np,...np->...p", w, f.real, hr)
            + np.einsum("n,...np,...np->...p", w, f.imag, hi))


def _open_mesh(grid: EventGrid):
    """The grid's four axes as an open mesh, broadcasting to its events in C order."""
    return np.meshgrid(*(grid.axis(mu) for mu in range(4)), indexing="ij", sparse=True)


class FreePhi(PhiField):
    """The exact calibrated free wave C e^{i(u.xi + u^2 s/2)} sinc(xi^2 / 2 eps).

    All derivatives are analytic, which keeps the current quadratures free of
    finite-difference noise.
    """

    def __init__(self, u, C, epsilon, x0=(0.0, 0.0, 0.0, 0.0)):
        self.u = as_four(u)
        self.C = complex(C)
        self.epsilon = float(epsilon)
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
        self.x0 = as_four(x0)
        self.u2 = minkowski_dot(self.u, self.u)

    def _sinc_axes(self, c, s):
        """y = x - x0 and xi = y - u s per axis, and _sinc's parts of
        a = xi^2 / 2 eps."""
        y = [cm - x0m for cm, x0m in zip(c, self.x0)]
        xi = [ym - um * s for ym, um in zip(y, self.u)]
        return (y, xi, *_sinc(sum(xm * (xm * g) for xm, g in zip(xi, self._scale()))))

    def _scale(self):
        """The factors g_mm / 2 eps of a = sum_m xi_m (xi_m g_mm / 2 eps)."""
        return [g / (2.0 * self.epsilon) for g in _METRIC_DIAG]

    def _s_sums(self, grid, s_nodes, s_weights, names):
        # phi = core S and d_mu phi = core (i u_mu S + S' xi_mu / eps), where
        # |core| = |C| and S = sinc a is real: so rho = |C|^2 S^2, J_mu = u_mu rho,
        # Im(phi* d_s phi) = -u^2 rho / 2 and
        # R_{nu mu} = |C|^2 (u_nu u_mu S^2 + S'^2 xi_nu xi_mu / eps^2).  With
        # xi = y - u s these need the s-sums of S^2 and s^k S'^2 (k = 0, 1, 2),
        # which depend on y = x - x0 only through (u.y, y^2): one event per pair
        closed = [name for name in names if name in ("rho", "J", "R", "ds")]
        sums = super()._s_sums(grid, s_nodes, s_weights,
                               [name for name in names if name not in closed])
        if not closed:
            return sums
        c = np.stack(np.broadcast_arrays(*_open_mesh(grid))).reshape(4, -1)
        y = c - self.x0[:, None]
        u_low, y_low = self.u * _METRIC_DIAG, _first(_METRIC_DIAG, y) * y
        _, first, inverse = np.unique(u_low @ y + 1j * np.sum(y_low * y, axis=0),
                                      return_index=True, return_inverse=True)
        moments = abs(self.C) ** 2 * self._sinc_moments(c[:, first], s_nodes, s_weights,
                                                        "R" in closed)[:, inverse]
        rho = moments[0]
        for name in closed:
            if name == "rho":
                sums[name] = rho
            elif name == "J":
                sums[name] = np.multiply.outer(u_low, rho)
            elif name == "ds":
                sums[name] = -0.5 * self.u2 * rho
            else:       # "R"
                nu, mu = _PAIRS
                uu = (u_low[nu] * u_low[mu])[:, None]
                cross = y_low[nu] * u_low[mu][:, None] + u_low[nu][:, None] * y_low[mu]
                sums[name] = uu * rho + (y_low[nu] * y_low[mu] * moments[1] - cross * moments[2]
                                         + uu * moments[3]) / self.epsilon ** 2
        return sums

    def _sinc_moments(self, c, s_nodes, s_weights, with_dS: bool):
        """sum_n w_n S^2, then with_dS sum_n w_n s_n^k S'^2 for k = 0, 1, 2, at
        the events c (4, K): shape (4 or 1, K).

        S = sin a / a and S' = (cos a - S) / a take sin a and cos a from unit
        phasors, not from a sine of the assembled a: a = sum_m t_m with
        t_m = xi_m (xi_m g_mm / 2 eps) and xi_m = y_m - u_m s, so
        e^{ia} = prod_m e^{i t_m}.  The axes with u_m = 0 fold into one phasor
        per event.  Each other axis has a table of e^{i t_m} over (s-node x
        distinct y_m), gathered per event, so a sine of a large argument is
        taken per table entry, not per (s-node x event).  In the light-cone
        band |a| < 1, where a phasor's rounding divided by a small a would
        grow, S and S' come from _sinc and _dsinc of a, series branch
        included.  Blocks of _SUM_ELEMENTS (s-node x event) elements work in
        three float, two complex and one bool buffer made once per call,
        0.9 MB in all."""
        n_events = c.shape[1]
        moments = np.zeros((4 if with_dS else 1, n_events))
        step = max(1, _SUM_ELEMENTS // n_events)
        y, scale = [cm - x0m for cm, x0m in zip(c, self.x0)], self._scale()
        moving = [m for m in range(4) if self.u[m] != 0.0] or [0]
        rest = sum((y[m] * (y[m] * scale[m]) for m in range(4) if m not in moving),
                   start=np.zeros(n_events))
        rest_phase = np.exp(1j * rest)
        tables = [(self.u[m], scale[m], *np.unique(y[m], return_inverse=True)) for m in moving]
        shape = (min(step, s_nodes.size), n_events)
        a_buf, sinc_buf, dS_buf = np.empty((3,) + shape)
        phase_buf, gather_buf = np.empty((2,) + shape, dtype=complex)
        band_buf = np.empty(shape, dtype=bool)
        for k in range(0, s_nodes.size, step):
            s, w = s_nodes[k:k + step], s_weights[k:k + step]
            a_out, phase_out, gather, sinc, dS2, band = (
                b[:s.size] for b in (a_buf, phase_buf, gather_buf, sinc_buf, dS_buf, band_buf))
            a, phase = rest, rest_phase
            for um, gm, values, inverse in tables:
                xi = values - um * s[:, None]
                t = xi * (xi * gm)
                # mode="clip": the default "raise" gathers into a temporary, not into out
                a = np.add(a, np.take(t, inverse, axis=1, mode="clip", out=sinc), out=a_out)
                phase = np.multiply(phase, np.take(np.exp(1j * t), inverse, axis=1, mode="clip",
                                                   out=gather), out=phase_out)
            # the band's elements by flat index; a = 1 there keeps the divisions finite
            band = np.flatnonzero(np.less(np.abs(a, out=sinc), 1.0, out=band))
            small, a_small, safe, _, band_sinc = _sinc(a.ravel()[band])
            a.ravel()[band] = 1.0
            np.divide(phase.imag, a, out=sinc).ravel()[band] = band_sinc
            moments[0] += w @ np.multiply(sinc, sinc, out=dS2)
            if with_dS:
                dS = np.subtract(phase.real, sinc, out=dS2)
                np.divide(dS, a, out=dS).ravel()[band] = _dsinc(small, a_small, safe, band_sinc)
                np.multiply(dS, dS, out=dS2)
                for out, ws in zip(moments[1:], (w, w * s, w * s * s)):
                    out += ws @ dS2
        return moments

    def _jet_axes(self, c, s, order):
        eps, u2 = self.epsilon, self.u2
        u_low = self.u * _METRIC_DIAG
        # the phase u.xi + u^2 s/2 = u.y - u^2 s/2, d_mu a = xi_mu / eps and
        # d_s a = -u.xi / eps
        y, xi, small, a_small, safe, sin_a, sinc = self._sinc_axes(c, s)
        ds_a = sum(xm * (-ul / eps) for xm, ul in zip(xi, u_low))
        core = math.prod((np.exp(1j * ul * ym) for ym, ul in zip(y, u_low)),
                         start=self.C * np.exp(-0.5j * u2 * s))
        # S' and S'' = -(sin a + 2 S') / a from sin a and one cos
        dS = _dsinc(small, a_small, safe, sinc)
        value = core * sinc
        core_dS = core * dS
        # the phase adds i u_mu to d_mu and -i u^2 / 2 to d_s
        xi_eps = [xm * (g / eps) for xm, g in zip(xi, _METRIC_DIAG)]
        grad = np.empty((4,) + value.shape, dtype=complex)
        for out, ul, xe in zip(grad, u_low, xi_eps):
            np.multiply(core_dS, xe, out=out)
            out += 1j * ul * value
        ds = -0.5j * u2 * value + core_dS * ds_a
        if order == 1:
            return WaveJet(value, grad, ds)
        d2S = -(sin_a + 2.0 * dS) / safe
        d2S[small] = a_small * a_small / 10.0 - 1.0 / 3.0
        ds_core_dS = -0.5j * u2 * core_dS + core * d2S * ds_a
        ds_grad = np.empty_like(grad)
        for out, ul, xe in zip(ds_grad, u_low, xi_eps):
            np.multiply(ds_core_dS, xe, out=out)
            out += 1j * ul * ds - core_dS * (ul / eps)
        return WaveJet(value, grad, ds, ds_grad)


def _sinc(a):
    """(small, a_small, safe, sin_a, sinc) of a: the mask |a| < 1e-4 and a
    under it, where sinc and its derivatives take their Taylor series (exact
    to rounding there), a with 1 in its place (safe to divide by), sin of that
    and sinc a."""
    small = np.abs(a) < 1e-4
    safe = np.where(small, 1.0, a)
    sin_a = np.sin(safe)
    sinc = sin_a / safe
    a_small = a[small]
    sinc[small] = 1.0 - a_small * a_small / 6.0
    return small, a_small, safe, sin_a, sinc


def _dsinc(small, a_small, safe, sinc):
    """S' = (cos a - S) / a for _sinc's parts, by its Taylor series where
    |a| < 1e-4."""
    dS = np.cos(safe)
    dS -= sinc
    dS /= safe
    dS[small] = a_small * (a_small * a_small / 30.0 - 1.0 / 3.0)
    return dS


class GaussianSolutionPhi(PhiField):
    """Closed-form exact solution of i d_s phi = -(1/2) box phi.

    A product of one-dimensional Gaussians, sigma0 = a + i s on the time axis
    and sigma = a - i s on each spatial axis; |phi| decays in s fast enough
    that every s-integrated bilinear converges.  Because the proper-time
    equation holds pointwise, all the conservation laws built from this wave
    hold exactly in the continuum -- it is the oracle against which the grid
    audits are validated.  All derivatives are analytic.
    """

    def __init__(self, a: float = 1.0):
        if a <= 0:
            raise ValueError("width parameter a must be positive")
        self.a = float(a)

    def _jet_axes(self, c, s, order):
        inv0 = 1.0 / (self.a + 1j * s)          # 1 / sigma0
        invs = 1.0 / (self.a - 1j * s)          # 1 / sigma
        inv = (inv0, invs, invs, invs)
        # phi = prod_mu sqrt(inv_mu) e^{-x_mu^2 inv_mu / 2}, d_mu log phi = -x_mu inv_mu,
        # and d_s inv_mu = -i g_mu inv_mu^2 makes d_s log phi a sum over the axes
        x2 = [xm * xm for xm in c]
        value = math.prod(np.sqrt(im) * np.exp(-0.5 * x2m * im) for x2m, im in zip(x2, inv))
        x_inv = [xm * im for xm, im in zip(c, inv)]
        grad = np.empty((4,) + value.shape, dtype=complex)
        for out, xm in zip(grad, x_inv):
            np.multiply(-xm, value, out=out)
        ds = sum(0.5j * g * im * (x2m * im - 1.0) for x2m, im, g in zip(x2, inv, _METRIC_DIAG))
        ds *= value
        if order == 1:
            return WaveJet(value, grad, ds)
        # d_s d_mu phi = x_mu inv_mu (i g_mu inv_mu phi - d_s phi), one inv_mu in space
        rest = [(1j * g * im) * value - ds for g, im in ((1.0, inv0), (-1.0, invs))]
        ds_grad = np.empty_like(grad)
        for mu, (out, xm) in enumerate(zip(ds_grad, x_inv)):
            np.multiply(xm, rest[mu > 0], out=out)
        return WaveJet(value, grad, ds, ds_grad)

    def _s_sums(self, grid, s_nodes, s_weights, names):
        return _separable_sums(self._axis_factors(s_nodes, grid), s_weights, names)

    def _axis_factors(self, s_nodes, grid: EventGrid):
        """Per axis lambda, the factor f_lambda(x_lambda, s) of phi and its d_x,
        d_s and d_s d_x, each (n_s, n_lambda): indexed by the flags _DX + _DS."""
        inv0 = 1.0 / (self.a + 1j * s_nodes[:, None])
        invs = 1.0 / (self.a - 1j * s_nodes[:, None])
        factors = []
        for mu, (im, g) in enumerate(zip((inv0, invs, invs, invs), _METRIC_DIAG)):
            x = grid.axis(mu)
            x2 = x * x
            f = np.sqrt(im) * np.exp(-0.5 * x2 * im)
            ds = 0.5j * g * im * (x2 * im - 1.0) * f
            x_inv = x * im
            factors.append((f, -x_inv * f, ds, x_inv * ((1j * g) * im * f - ds)))
        return factors


# A derivative of a product wave phi = prod_lambda f_lambda is a sum of
# products of per-axis factors; a term lists, per axis, d_x (flag _DX) and
# d_s (flag _DS) applied to that axis's factor.
_DX, _DS = 1, 2


def _product_terms(mu=None, ds: bool = False):
    """The terms of d_s^ds d_mu phi (mu None: no d_mu) for a product wave."""
    base = [_DX * (lam == mu) for lam in range(4)]
    if not ds:
        return [base]
    return [[k + _DS * (lam == nu) for lam, k in enumerate(base)] for nu in range(4)]


def _separable_sums(factors, s_weights, names) -> dict:
    """PhiField._s_sums of a product wave from its per-axis factors (_axis_factors).

    Each bilinear Re or Im of (d phi)* (d' phi) is a sum over term pairs of
    sum_n w_n prod_lambda h_lambda[n, x_lambda], with h_lambda the product of
    two factors of axis lambda, and each such sum is one matrix product
    (n_t n_x, n_s) @ (n_s, n_y n_z) on the grid's events in C order.
    """
    pair_tables = {}

    def table(lam, a, b):          # conj(factor a) factor b on axis lam
        if (lam, a, b) not in pair_tables:
            fa, fb = factors[lam][a], factors[lam][b]
            pair_tables[lam, a, b] = (fa.real * fa.real + fa.imag * fa.imag if a == b
                                      else np.conj(fa) * fb)
        return pair_tables[lam, a, b]

    def bilinear(left, right, imag=False):      # Re (or Im) of sum_n w_n left* right
        return sum(_separable_sum(s_weights, [table(lam, a[lam], b[lam]) for lam in range(4)],
                                  imag)
                   for a in left for b in right)

    nu, mu = _PAIRS
    phi, phi_s = _product_terms(), _product_terms(ds=True)
    sums = {}
    for name in names:
        if name == "rho":
            sums[name] = bilinear(phi, phi)
        elif name == "J":
            sums[name] = np.array([bilinear(phi, _product_terms(m), True) for m in range(4)])
        elif name == "R":
            sums[name] = np.array([bilinear(_product_terms(m), _product_terms(n))
                                   for n, m in zip(nu, mu)])
        elif name == "ds":
            sums[name] = bilinear(phi, phi_s, True)
        elif name == "ds_grad":
            sums[name] = np.array([bilinear(phi, _product_terms(m, True)) for m in range(4)])
        else:       # "b"
            sums[name] = np.array([bilinear(phi_s, _product_terms(m)) for m in range(4)])
    return sums


def _separable_sum(w, h, imag: bool = False):
    """Re (or Im) of sum_n w_n prod_lambda h[lambda][n, x_lambda], flat in C order."""
    left = (w[:, None, None] * h[0][:, :, None] * h[1][:, None, :]).reshape(w.size, -1)
    right = (h[2][:, :, None] * h[3][:, None, :]).reshape(w.size, -1)
    if imag:                    # Im z = Re(-i z)
        if np.iscomplexobj(left):
            left = -1j * left
        else:
            right = -1j * right
    out = left.real.T @ right.real
    if np.iscomplexobj(left) and np.iscomplexobj(right):
        out -= left.imag.T @ right.imag
    return out.ravel()


class ConjugatedPhi(PhiField):
    """Charge conjugation phi(x, s) -> phi*(x, -s)."""

    def __init__(self, base: PhiField):
        self.base = base

    def _jet_axes(self, c, s, order):
        j = self.base._jet_axes(c, -s, order)
        return WaveJet(np.conj(j.value), np.conj(j.grad), -np.conj(j.ds),
                       None if j.ds_grad is None else -np.conj(j.ds_grad))


class GaugeShiftedPhi(PhiField):
    """phi -> phi e^{i q alpha(x)} for a linear alpha(x) = k.x (Minkowski)."""

    def __init__(self, base: PhiField, k, q):
        self.base = base
        self.k = as_four(k)
        self.q = float(q)

    def _jet_axes(self, c, s, order):
        j = self.base._jet_axes(c, s, order)
        k_lower = self.k * _METRIC_DIAG
        fac = math.prod(np.exp(1j * self.q * km * xm) for km, xm in zip(k_lower, c))

        def shifted(f, df):         # e^{i q k.x} (df + i q k_mu f)
            return fac * (df + 1j * self.q * _first(k_lower, df) * f)

        return WaveJet(fac * j.value, shifted(j.value, j.grad), fac * j.ds,
                       None if j.ds_grad is None else shifted(j.ds, j.ds_grad))


def covariant_derivative(phi: PhiField, x, s, A: Optional[Callable], q: float):
    """D^mu phi = d^mu phi - i q A^mu phi (upper index), vectorized."""
    jet = phi.jet(x, s)
    re, im = _covariant_parts(jet.grad, jet.value, _potential(A, x, q), q)
    return np.moveaxis(re + 1j * im, 0, -1)


# ---------------------------------------------------------------------------
# s-quadrature helpers


def s_panels(s_range, epsilon: float):
    """Composite Gauss-Legendre nodes resolving the sinc oscillation in s.

    The free-wave phase varies like (s - t)^2 / (2 eps), so the panel width is
    chosen to bound the phase change per panel.
    """
    lo, hi = float(s_range[0]), float(s_range[1])
    rate = max(abs(lo), abs(hi)) / epsilon + 1.0
    width = max((hi - lo) / _MAX_PANELS, min(_PANEL_NODES / rate, (hi - lo) / 8))
    n_panels = max(8, int(np.ceil((hi - lo) / width)))
    edges = np.linspace(lo, hi, n_panels + 1)
    gx, gw = np.polynomial.legendre.leggauss(_PANEL_NODES)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * gx).ravel(), (half[:, None] * gw).ravel()


# ---------------------------------------------------------------------------
# grid currents

# s-nodes per jet evaluation in PhiField._s_sums
_S_CHUNK = 8
# (s-node x event) elements per block of the free wave's sinc moments
_SUM_ELEMENTS = 1 << 14


def _potential(A: Optional[Callable], x, q: float):
    """A^mu(x) components first, or None where it drops out of D."""
    if A is None or q == 0.0:
        return None
    return np.moveaxis(np.asarray(A(x), dtype=float), -1, 0)


def _covariant_parts(d_lower, f, A_c, q: float):
    """Re and Im of d^mu f - i q A^mu f, components first.

    d_lower (..., 4) is the gradient of f; A_c is A^mu components first, or None.
    """
    d = np.moveaxis(d_lower, -1, 0)
    g = _first(_METRIC_DIAG, d)
    re, im = d.real * g, d.imag * g
    if A_c is not None:
        re += q * A_c * f.imag
        im -= q * A_c * f.real
    return re, im


def _grid_potential(A: Optional[Callable], grid: EventGrid):
    """A^mu at the grid's events (4, P), components first; the events are built
    only for a given A."""
    if A is None:
        return None
    return np.moveaxis(np.asarray(A(grid.points().reshape(-1, 4)), dtype=float), -1, 0)


def _on_grid(grid: EventGrid, values_c):
    """(4, P) components-first point values as a grid array (..., 4)."""
    return values_c.T.reshape(grid.extents + (4,))


def _raised(v):
    """A lower-index sum (4, P) with its index raised."""
    return _first(_METRIC_DIAG, v) * v


def ecd_electric_current(phi: PhiField, A: Optional[Callable], grid: EventGrid,
                         s_nodes, s_weights, q: float) -> CurrentField:
    """j^mu(x) = int ds q Im[phi* D^mu phi] sampled on the grid.

    Im[phi* D^mu phi] = g^{mu mu} J_mu - q A^mu rho for the wave's bilinears
    rho = |phi|^2 and J_mu = Im(phi* d_mu phi), so the kernel reads their
    s-sums.  For the free wave J_mu = u_mu rho and rho = |C|^2 sinc^2(xi^2 /
    2 eps): j^mu = q |C|^2 u^mu int ds sinc^2 when A = 0.
    """
    if q == 0.0:
        return CurrentField(grid, np.zeros(grid.extents + (4,)))
    sums = phi._s_sums(grid, np.asarray(s_nodes, dtype=float),
                       np.asarray(s_weights, dtype=float), ("J",) if A is None else ("J", "rho"))
    values = q * _raised(sums["J"])
    if A is not None:
        values -= (q * q) * _grid_potential(A, grid) * sums["rho"]
    return CurrentField(grid, _on_grid(grid, values))


def mass_current_b(phi: PhiField, A: Optional[Callable], grid: EventGrid,
                   s_nodes, s_weights, q: float,
                   trajectory: Optional[Trajectory] = None,
                   calibration: Optional[EpsilonCalibration] = None) -> CurrentField:
    """b = bbar + bbreve: the bulk term Re[d_s phi* D^mu phi] integrated over s,
    plus, given trajectory and calibration, the (2/N)|phi|^2 gamma_dot deposit.

    Re[d_s phi* D^mu phi] = g^{mu mu} Re(d_s phi* d_mu phi) - q A^mu Im(phi* d_s phi).
    """
    A_c = None if q == 0.0 else _grid_potential(A, grid)
    sums = phi._s_sums(grid, np.asarray(s_nodes, dtype=float), np.asarray(s_weights, dtype=float),
                       ("b",) if A_c is None else ("b", "ds"))
    values = _raised(sums["b"])
    if A_c is not None:
        values -= q * A_c * sums["ds"]
    values = _on_grid(grid, values)
    if trajectory is not None and calibration is not None:
        values = values + deposit_line_current(
            trajectory, grid, DepositKernel("trilinear"),
            lambda s, gamma, gdot: (2.0 / calibration.N) * float(phi.abs2(gamma, s))).values
    return CurrentField(grid, values)


def ecd_energy_momentum(phis: Sequence[PhiField], A: Optional[Callable],
                        grid: EventGrid, s_nodes, s_weights, qs) -> TensorField:
    """p^{nu mu} = sum_k m_k^{nu mu}, the waves' part (no field stress Theta), symmetric.

    m^{nu mu} = int ds [g^{nu mu} L_m + B^{nu mu}] with the bilinear
    B^{nu mu} = Re(D^nu phi (D^mu phi)*) = R^{nu mu} - q (A^nu J^mu + A^mu J^nu)
    + q^2 A^nu A^mu rho and L_m = -Im(phi* d_s phi) - (1/2) g_mu B^{mu mu}.
    """
    s_nodes = np.asarray(s_nodes, dtype=float)
    s_weights = np.asarray(s_weights, dtype=float)
    n_pts = math.prod(grid.extents)
    nu, mu = _PAIRS                     # the ten pairs nu <= mu of a symmetric tensor
    A_c = _grid_potential(A, grid)
    bilinear = np.zeros((nu.size, n_pts))
    phase = np.zeros(n_pts)             # int ds -Im(phi* d_s phi)
    for phi, q in zip(phis, qs):
        charged = A_c is not None and q != 0.0
        sums = phi._s_sums(grid, s_nodes, s_weights,
                           ("R", "ds") + (("J", "rho") if charged else ()))
        bilinear += (_METRIC_DIAG[nu] * _METRIC_DIAG[mu])[:, None] * sums["R"]
        if charged:
            J = _raised(sums["J"])
            bilinear -= q * (A_c[nu] * J[mu] + A_c[mu] * J[nu])
            bilinear += (q * q) * (A_c[nu] * A_c[mu]) * sums["rho"]
        phase -= sums["ds"]
    # the sign of the bilinear relative to g L is fixed by requiring
    # d_nu m^{nu mu} = 0 for exact solutions (checked against a closed-form
    # Gaussian solution of the proper-time equation)
    values = np.empty((n_pts, 4, 4))
    values[:, nu, mu] = values[:, mu, nu] = bilinear.T
    lagrangian = phase - 0.5 * (_METRIC_DIAG @ bilinear[nu == mu])
    values[:, range(4), range(4)] += lagrangian[:, None] * _METRIC_DIAG
    return TensorField(grid, values.reshape(grid.extents + (4, 4)), symmetric=True)


def ecd_dilatation_current(p: TensorField, phis: Sequence[PhiField],
                           A: Optional[Callable], s_nodes, s_weights, qs) -> CurrentField:
    """xi^mu = p^{mu nu} x_nu + sum_k 2 int ds s Bbar2^mu, the waves' part
    (no worldline deposit Bbreve2).

    Bbar2^mu = -Re[phi* d_s D^mu phi] is the s-weighted piece in the form
    that makes xi divergence-free pointwise for exact solutions; it absorbs
    the d^mu |phi|^2 improvement term coming from the scaling weight of phi
    (the two bulk forms differ by a total s-derivative, so only this one may
    sit under the s-weight).  Re[phi* d_s D^mu phi] = Re[phi* d_s d^mu phi]
    + q A^mu Im(phi* d_s phi), summed with the weights 2 w s.
    """
    from .em_sources import geometric_dilatation_term

    grid = p.grid
    s_nodes = np.asarray(s_nodes, dtype=float)
    s_weights = 2.0 * np.asarray(s_weights, dtype=float) * s_nodes
    A_c = _grid_potential(A, grid)
    bulk = np.zeros((4, math.prod(grid.extents)))
    for phi, q in zip(phis, qs):
        charged = A_c is not None and q != 0.0
        sums = phi._s_sums(grid, s_nodes, s_weights, ("ds_grad", "ds") if charged else ("ds_grad",))
        bulk -= _raised(sums["ds_grad"])
        if charged:
            bulk -= q * A_c * sums["ds"]
    xi = geometric_dilatation_term(p).values + _on_grid(grid, bulk)
    return CurrentField(grid, xi)


# ---------------------------------------------------------------------------
# static radial profiles of the free charge


# Fourier transforms on [0, 2] (zero outside) as coefficients of the
# polynomials in k = v^2: triangle pi (1 - k/2) for sinc^2,
# pi (k^3 - 6k + 4)/12 for sinc'^2, and twice i pi (k^2 - 2)/4 for the odd
# a*sinc'^2.
_CW_SINC2 = (np.pi, -np.pi / 2.0)
_CW_DSINC2 = (np.pi / 3.0, -np.pi / 2.0, 0.0, np.pi / 12.0)
_CW_2ADSINC2 = (-1j * np.pi, 0.0, 0.5j * np.pi)
_PREF = (2.0 / np.pi) * np.sqrt(2.0 * np.pi)
_SERIES_BETA = 1.125    # below it (x < 1.5) the Fresnel moments use their series
_SERIES_TERMS = 40


def _fresnel_moments(beta, n_max: int):
    """I_n(beta) = int_0^sqrt2 v^{2n} e^{-i beta v^2} dv for n = 0 .. n_max.

    Above _SERIES_BETA, I_0 = sqrt(pi/beta) e^{-i pi/4} (1/2 - e^{-2i beta}
    K_-(sqrt(2 beta))) with the modified Fresnel integral K_- (Abramowitz &
    Stegun 7.3), whose phase comes from beta itself rather than a rounded
    argument; parts integration then raises n:
    I_n = (i / 2 beta) [2^{n-1/2} e^{-2i beta} - (2n-1) I_{n-1}].  K_- is
    _modfresnel_k, a numpy port of routine FFK of Zhang & Jin, Computation of
    Special Functions (1996), the routine behind scipy.special.modfresnelm,
    and equals scipy's value bit for bit.  The recursion loses digits as
    beta -> 0, so below _SERIES_BETA the power series
    I_n = sum_m (-i beta)^m / m! 2^{n+m+1/2} / (2n+2m+1) is summed instead;
    _SERIES_BETA = 1.125 puts that switch at FFK's own x = sqrt(2 beta) = 1.5
    boundary.  Returns shape (n_max + 1,) + beta.shape.
    """
    beta = np.asarray(beta, dtype=float)
    out = np.empty((n_max + 1,) + beta.shape, dtype=complex)
    n = np.arange(n_max + 1)[:, None]
    small = beta < _SERIES_BETA
    z = -2j * beta[small]
    term, acc = np.ones_like(z), np.zeros((n_max + 1, z.size), dtype=complex)
    for m in range(_SERIES_TERMS):            # term = (-2i beta)^m / m!
        acc += term / (2 * n + 2 * m + 1)
        term = term * z / (m + 1)
    out[:, small] = 2.0 ** (n + 0.5) * acc
    b = beta[~small]
    phase = np.exp(-2j * b)
    moment = (np.sqrt(np.pi / b) * np.exp(-0.25j * np.pi)
              * (0.5 - phase * _modfresnel_k(np.sqrt(2.0 * b))))
    out[0, ~small] = moment
    for k in range(1, n_max + 1):
        moment = 0.5j / b * (2.0 ** (k - 0.5) * phase - (2 * k - 1) * moment)
        out[k, ~small] = moment
    return out


# FFK's constants as its source spells them (PP2 is sqrt(pi/2) to 13 digits)
_FFK_PI = 3.141592653589793
_FFK_PP2 = 1.2533141373155
_FFK_P2P = 0.7978845608028654
_FFK_EPS = 1e-15


def _modfresnel_k(x):
    """K_-(x) = pi^{-1/2} e^{i(x^2 + pi/4)} F_-(x) for x > 0 (Abramowitz &
    Stegun 7.3): routine FFK with ks = 1 (Zhang & Jin 1996), each region of x
    vectorised with FFK's operations in FFK's order, so it equals
    scipy.special.modfresnelm(x)[1] to the bit.  A NaN gives NaN."""
    x = np.asarray(x, dtype=float)
    xa = np.abs(x)
    x2 = x * x
    x4 = x2 * x2
    c1, s1 = np.empty_like(xa), np.empty_like(xa)
    series, miller = xa <= 2.5, (xa > 2.5) & (xa < 5.5)
    asymptotic = ~(series | miller)                 # x >= 5.5, and NaN
    a, a4 = xa[series], x4[series]
    c1[series] = _ffk_series(_FFK_P2P * a, a4, (-3.0, -1.0, 1.0))
    s1[series] = _ffk_series(_FFK_P2P * a * a * a / 3.0, a4, (-1.0, 1.0, 3.0))
    c1[miller], s1[miller] = _ffk_miller(xa[miller], x2[miller])
    c1[asymptotic], s1[asymptotic] = _ffk_asymptotic(xa[asymptotic], x2[asymptotic],
                                                     x4[asymptotic])
    fr = _FFK_PP2 * (0.5 - c1)
    fi0 = _FFK_PP2 * (0.5 - s1)
    xp = x2 + _FFK_PI / 4.0
    cs, ss = np.cos(xp), np.sin(xp)
    xq2 = 1.0 / np.sqrt(_FFK_PI)
    return xq2 * (fr * cs + fi0 * ss) + 1j * (xq2 * (fr * ss - fi0 * cs))


def _ffk_series(first, x4, shifts):
    """FFK's power series for x <= 2.5: term k is term k-1 times
    -(4k + p) x^4 / (2 k (2k + q) (4k + r)) for shifts (p, q, r); each element
    stops at its own first term below 1e-15 of its sum."""
    p, q, r = shifts
    term, total = first, first
    going = np.ones(first.shape, dtype=bool)
    for k in range(1, 51):
        if not going.any():
            break
        term = np.where(going, -0.5 * term * (4.0 * k + p) / k / (2.0 * k + q)
                        / (4.0 * k + r) * x4, term)
        total = np.where(going, total + term, total)
        going &= ~(np.abs(term / total) < _FFK_EPS)
    return total


def _ffk_miller(xa, x2):
    """FFK's Miller backward recurrence for 2.5 < x < 5.5, each element
    started at its own m = int(42 + 1.75 x^2)."""
    m = (42 + 1.75 * x2).astype(int)
    xc, xs, xsu, xf1 = (np.zeros_like(xa) for _ in range(4))
    xf0 = np.full_like(xa, 1e-100)
    for k in range(int(m.max(initial=0)), -1, -1):
        on = k <= m
        xf = np.where(on, (2.0 * k + 3.0) * xf0 / x2 - xf1, xf0)
        if k % 2 == 0:
            xc = np.where(on, xc + xf, xc)
        else:
            xs = np.where(on, xs + xf, xs)
        xsu = np.where(on, xsu + (2.0 * k + 1.0) * xf * xf, xsu)
        xf1 = np.where(on, xf0, xf1)
        xf0 = xf
    xw = _FFK_P2P * xa / np.sqrt(xsu)
    return xc * xw, xs * xw


def _ffk_asymptotic(xa, x2, x4):
    """FFK's 12-term asymptotic sums for x >= 5.5."""
    xr = xf = 1.0
    for k in range(1, 13):
        xr = -0.25 * xr * (4.0 * k - 1.0) * (4.0 * k - 3.0) / x4
        xf = xf + xr
    xr = xg = 1.0 / (2.0 * xa * xa)
    for k in range(1, 13):
        xr = -0.25 * xr * (4.0 * k + 1.0) * (4.0 * k - 1.0) / x4
        xg = xg + xr
    sn, cs = np.sin(x2), np.cos(x2)
    root = np.sqrt(2.0 * _FFK_PI)
    return (0.5 + (xf * sn - xg * cs) / root / xa,
            0.5 - (xf * cs + xg * sn) / root / xa)


def _profile(moments, coeffs):
    """int dtau P((tau^2 - x^2)/2) for the P whose Fourier transform on [0, 2]
    is sum_n coeffs[n] k^n, from the moments I_n(x^2 / 2).

    Derivation: insert the Fourier representation, do the Gaussian tau
    integral (Fresnel phase e^{i pi/4} sqrt(2 pi / k)), substitute k = v^2;
    what is left is the sum over n of coeffs[n] I_n.
    """
    total = sum(c * moment for c, moment in zip(coeffs, moments))
    return _PREF * np.real(np.exp(0.25j * np.pi) * total)


def charge_profile_shape(xs):
    """f(x) = int dtau sinc^2((tau^2 - x^2)/2); tail 2 pi / x."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return _profile(_fresnel_moments(xs ** 2 / 2.0, 1), _CW_SINC2)


def mass_profile_shape(xs):
    """h(x) = int dtau tau^2 sinc'^2((tau^2 - x^2)/2); tail 2 pi x / 3.

    Uses tau^2 = 2a + x^2 to split into the a-weighted and plain sinc'^2
    profiles, each with a polynomial Fourier weight.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    moments = _fresnel_moments(xs ** 2 / 2.0, 3)
    return _profile(moments, _CW_2ADSINC2) + xs ** 2 * _profile(moments, _CW_DSINC2)


def free_charge_j0(r, u, C, cal: EpsilonCalibration, q: float = 1.0):
    """Static charge density j^0(r) of the free calibrated wave at rest.

    j^0(r) = q |C|^2 u^0 int ds sinc^2(((u^0 s)^2 - r^2) / (2 eps)); the
    calibration prefactor 1/(4 pi^4 N^2 eps^2) is identically 1.  Scaling
    form: j^0 = q |C|^2 sign(u^0) sqrt(eps) f(r / sqrt(eps)), with f the
    closed-form charge_profile_shape.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r <= 0):
        raise ValueError("radius must be positive")
    u = as_four(u)
    if np.any(u[1:] != 0.0):
        raise ValueError("the static profile is defined in the charge rest frame")
    eps = cal.epsilon
    amp = q * abs(C) ** 2 * np.sign(u[0]) * np.sqrt(eps)
    return amp * charge_profile_shape(r / np.sqrt(eps))


def charge_tail(r, C, cal: EpsilonCalibration, q: float = 1.0):
    """The light-cone (divergent) part of j^0 at rest (u^0 > 0): 2 pi q |C|^2 eps / r."""
    return divergent_coefficient(C, cal, q) / np.asarray(r, dtype=float)


def divergent_coefficient(C, cal: EpsilonCalibration, q: float = 1.0) -> float:
    """Coefficient of int ds delta[(x-gamma)^2] gamma_dot matching the tail.

    Computed from the calibration, never fitted: the delta-composition of the
    static light-cone deposit gives coeff / r, and matching the exact
    asymptotic 2 pi q |C|^2 eps / r fixes coeff = 2 pi q |C|^2 eps.
    """
    return 2.0 * np.pi * q * abs(C) ** 2 * cal.epsilon


def free_mass_b0(r, C, cal: EpsilonCalibration):
    """Static bbar^0(r) of the free wave at rest (analytic s-integral reduction).

    bbar^0 = -|C|^2 int ds [sinc^2 a / 2 + sinc'^2 a (t - s)^2 / eps^2]
           = -|C|^2 sqrt(eps) [f(x)/2 + h(x)/eps],  x = r / sqrt(eps).
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    eps = cal.epsilon
    x = r / np.sqrt(eps)
    return -abs(C) ** 2 * np.sqrt(eps) * (0.5 * charge_profile_shape(x)
                                          + mass_profile_shape(x) / eps)


def mass_truncation_tail(C, s_range) -> float:
    """Large-|s| part of bbar^0 at t = 0 lost to truncating the s-quadrature.

    The free-wave integrand behaves like -4 |C|^2 cos^2(a) / s^2 for large
    |s|; its oscillation average integrates to -2 |C|^2 [1/s_hi - 1/s_lo]
    beyond the window.  Adding this to a truncated bulk integral recovers the
    full profile to O(1/S^2).
    """
    lo, hi = float(s_range[0]), float(s_range[1])
    return -2.0 * abs(C) ** 2 * (1.0 / hi - 1.0 / lo)


def radial_smear(fn, r0, width):
    """Average fn over [r0 - width/2, r0 + width/2] (Simpson) for each of the
    centres r0, with one call of fn on the (len(r0), _SMEAR_POINTS) samples."""
    r0 = np.asarray(r0, dtype=float)
    rs = np.linspace(r0 - width / 2.0, r0 + width / 2.0, _SMEAR_POINTS, axis=-1)
    ys = np.asarray(fn(rs), dtype=float).reshape(rs.shape)
    return np.array([_simpson(y, r) / width for y, r in zip(ys, rs)])


def fit_loglog_slope(r, values):
    """Least-squares slope of log|values| vs log r; returns (slope, intercept)."""
    r = np.asarray(r, dtype=float)
    v = np.abs(np.asarray(values, dtype=float))
    if np.any(v == 0):          # a profile that underflowed: a numeric failure
        raise FloatingPointError("cannot fit a power law through zero values")
    coef, _, rank, _, _ = np.polyfit(np.log(r), np.log(v), 1, full=True)
    if rank < 2:                # radii a few ulps apart: polyfit's RankWarning
        raise FloatingPointError("the fit radii are too close together for a slope")
    return float(coef[0]), float(coef[1])


def fit_radii(eps: float, x_window):
    """The _PROFILE_POINTS geometric radii of a profile fit over x_window,
    which is given in units of sqrt(eps)."""
    return np.geomspace(x_window[0], x_window[1], _PROFILE_POINTS) * np.sqrt(eps)


def subtracted_profile_slope(kind: str, C, cal: EpsilonCalibration, q: float = 1.0,
                             x_window=TAIL_WINDOW_X, smear_width_x: float = SMEAR_WIDTH_X):
    """Log-log slope of the radially smeared post-subtraction remainder.

    kind must be 'charge': the 2 pi eps / r tail is subtracted from j^0.  The
    raw remainder oscillates like cos(r^2 / eps) under an r^{-4} envelope;
    averaging over a radial window of a few sqrt(eps) suppresses the
    oscillation by a further 1 / r and exposes the r^{-5} law.  Returns
    (slope, fit window in r).
    """
    if kind != "charge":
        raise ValueError(f"unknown profile kind {kind!r}")
    rs = fit_radii(cal.epsilon, x_window)
    smeared = smeared_remainder(C, cal, q, rs, smear_width_x * np.sqrt(cal.epsilon))
    slope, _ = fit_loglog_slope(rs, smeared)
    return slope, (rs[0], rs[-1])


def smeared_remainder(C, cal: EpsilonCalibration, q: float, rs, width):
    """The charge remainder j^0 - tail, averaged by radial_smear over a window
    of the given width around each of rs."""
    def remainder(r):
        return free_charge_j0(r, (1, 0, 0, 0), C, cal, q) - charge_tail(r, C, cal, q)
    return radial_smear(remainder, rs, width)


# ---------------------------------------------------------------------------
# light-cone deposit and subtraction


def lightcone_deposit_uniform(grid: EventGrid, u, x0, coefficient: float) -> CurrentField:
    """coefficient * int ds delta[(x - gamma_s)^2] gamma_dot on the grid.

    Uses both roots of the light-cone condition (no retarded theta: the
    divergent piece carries the full delta) with the standard composition
    weight 1 / (2 |gamma_dot . (x - gamma)|).  For gamma_s = x0 + u s every
    root of (x - x0 - u s)^2 = 0 has |u . (x - gamma)| = sqrt((u.d)^2 - u^2 d^2)
    with d = x - x0; a null u leaves one root of the then linear condition.
    """
    u = as_four(u)
    d = grid.points() - as_four(x0)
    u2 = minkowski_dot(u, u)
    u_dot_d = np.sum(d * (u * _METRIC_DIAG), axis=-1)
    half = np.sqrt(np.maximum(u_dot_d ** 2 - u2 * np.sum(d * d * _METRIC_DIAG, axis=-1), 0.0))
    amp = coefficient * (1.0 if u2 != 0.0 else 0.5)
    weight = np.where(half >= 1e-12, amp / np.maximum(half, 1e-12), 0.0)
    return CurrentField(grid, weight[..., None] * u)


def subtract_divergent(j: CurrentField, traj: Trajectory, coefficient: float) -> CurrentField:
    """The finite part of a sampled current: j minus its light-cone divergent piece."""
    if coefficient == 0.0:
        return j
    du = np.diff(traj.gamma_dots, axis=0)
    if np.abs(du).max() > 1e-9:
        raise NotImplementedError("light-cone subtraction implemented for uniform worldlines")
    u = traj.gamma_dots[0]
    x0 = traj.gammas[0] - traj.s[0] * u
    div = lightcone_deposit_uniform(j.grid, u, x0, coefficient)
    return CurrentField(j.grid, j.values - div.values)


# ---------------------------------------------------------------------------
# audits


@dataclass(frozen=True)
class AuditReport:
    slice_charges: tuple
    charge_spread: float
    interior_corrected_spread: float


def continuity_residual(j: CurrentField) -> AuditReport:
    """Per-slice charges and their spread, raw and flux-corrected on the interior."""
    charges = tuple(grid_charge(j, k) for k in range(j.grid.extents[0]))
    spread = max(charges) - min(charges)
    # flux correction: add back the charge that left through the spatial
    # boundary up to each slice (trapezoid in time)
    dt = j.grid.spacings[0]
    fluxes = [boundary_flux3(j, k) for k in range(len(charges))]
    leaked = np.concatenate([[0.0], np.cumsum(dt * 0.5 * (np.array(fluxes[:-1])
                                                          + np.array(fluxes[1:])))])
    corrected = list(np.asarray(charges) + leaked)
    # the boundary slices see only one-sided flux information (same reason the
    # divergence stencil excludes them); the interior spread is the audit figure
    interior = corrected[1:-1] if len(corrected) >= 4 else corrected
    interior_spread = max(interior) - min(interior)
    return AuditReport(charges, float(spread), float(interior_spread))


# ---------------------------------------------------------------------------
# pointwise continuity lemmas


def unitarity_lemma_residual(f: Callable, g: Callable, A: Optional[Callable],
                             x, s: float, h: float, q: float = 0.0) -> float:
    """|d_s(f g*) - d_mu[(i/2)(D^mu f g* - (D^mu g)* f)]| at (x, s).

    f and g are scalar callables (x, s) -> complex solving the proper-time
    equation; all derivatives are (nested) central differences of step h.
    """
    x = as_four(x)

    def D_up(fun, y, sv):
        A_up = np.zeros(4) if A is None else np.asarray(A(y), dtype=complex)
        return (_METRIC_DIAG * fd_grad(lambda z: fun(z, sv), y, h)
                - 1j * q * A_up * fun(y, sv))

    def current(y):
        return 0.5j * (D_up(f, y, s) * np.conj(g(y, s))
                       - np.conj(D_up(g, y, s)) * f(y, s))

    lhs = (f(x, s + h) * np.conj(g(x, s + h))
           - f(x, s - h) * np.conj(g(x, s - h))) / (2 * h)
    return float(abs(lhs - np.trace(fd_grad(current, x, h))))


def s_continuity_residual(phi: Callable, A: Optional[Callable], x, s: float,
                          h: float, q: float = 1.0) -> float:
    """|d_s rho + d_mu J^mu| with rho = q phi phi*, J = q Im phi* D phi.

    This is q times the unitarity lemma with f = g = phi.
    """
    return abs(q) * unitarity_lemma_residual(phi, phi, A, x, s, h, q)
