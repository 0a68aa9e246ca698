"""Gauge-invariant currents of an extended charge and their conservation audits.

The electric current j^mu = int ds q Im[phi* D^mu phi] has scaling dimension
-3; for the free calibrated wave its static profile splits into a light-cone
tail ~ eps/r (the divergent piece, supported on (x - gamma_s)^2 = 0) and a
finite remainder.  The mass current b = bbar + bbreve (dimension -5) has an
analogous split with an additional r/eps light-cone piece.

Static radial profiles are computed two ways: a direct adaptive s-quadrature,
and an exact reduction using the compactly supported Fourier transforms of
sinc^2 and its derivative -- the latter turns each profile into a finite
Fresnel-type integral that is evaluated to near machine precision and makes
the remainder power-law fits possible (the raw remainder oscillates like
cos(r^2 / eps) with an r^{-4} envelope; a radial average over a few sqrt(eps)
is what decays like r^{-5}).

Units are hbar = c = 1 (see propagators), so D^mu = d^mu - i q A^mu.
"""

from __future__ import annotations

import contextvars
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad, simpson

from .minkowski import METRIC, as_four, minkowski_dot
from .dynamics import Trajectory
from .ecd_core import EpsilonCalibration
from .grids import (CurrentField, DepositKernel, EventGrid, TensorField,
                    boundary_flux3, deposit_line_current, fd_grad, grid_charge)

_METRIC_DIAG = np.array([1.0, -1.0, -1.0, -1.0])
_PANEL_NODES = 8        # Gauss-Legendre nodes per s-panel
_MAX_PANELS = 4000      # panel count at which s_panels stops refining
_SMEAR_POINTS = 81      # Simpson samples of radial_smear
_PROFILE_POINTS = 14    # geometric radii of subtracted_profile_slope's fit


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


def _jet_args(x, s, order):
    """Checked x and s; 1-D s becomes (n, 1, ..., 1) and x gains a leading axis."""
    if order not in (1, 2):
        raise ValueError(f"jet order must be 1 or 2, got {order!r}")
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    if s.ndim > 1:
        raise ValueError("s must be a scalar or a 1-D array of s-nodes")
    if s.ndim:
        x = x[None]
    return x, s.reshape(s.shape + (1,) * (x.ndim - 1 - s.ndim))


def _first(v, a):
    """A 4-vector shaped to broadcast along the first axis of a.

    Jets and kernels keep components first in memory, so that numpy's inner
    loops run over points, not over the four components.
    """
    return np.asarray(v).reshape((4,) + (1,) * (a.ndim - 1))


class PhiField:
    """Vectorized wave evaluator: value/gradient/s-derivative over event arrays.

    Subclasses may override the derivatives with closed forms; the default is
    central differences with step fd_step.  Gradients carry a lower index.
    """

    fd_step = 1e-4

    def value(self, x, s):
        raise NotImplementedError

    def grad(self, x, s):
        return np.moveaxis(fd_grad(lambda y: self.value(y, s), x, self.fd_step), 0, -1)

    def ds(self, x, s):
        return (self.value(x, s + self.fd_step) - self.value(x, s - self.fd_step)) \
            / (2 * self.fd_step)

    def ds_grad(self, x, s):
        """d_s d_mu phi (lower index), by central differences of grad in s."""
        return (self.grad(x, s + self.fd_step) - self.grad(x, s - self.fd_step)) \
            / (2 * self.fd_step)

    def jet(self, x, s, order: int = 1) -> WaveJet:
        """Value, gradient, d_s and at order 2 d_s grad, one s-node at a time."""
        _jet_args(x, s, order)
        if np.ndim(s):
            parts = zip(*(self.jet(x, sv, order) for sv in s))
            return WaveJet(*(None if p[0] is None else np.stack(p) for p in parts))
        return WaveJet(self.value(x, s), self.grad(x, s), self.ds(x, s),
                       self.ds_grad(x, s) if order == 2 else None)

    def abs2(self, x, s):
        v = self.value(x, s)
        return (v * np.conj(v)).real


class JetPhiField(PhiField):
    """A wave that computes its jet in one pass; single parts read the jet."""

    def value(self, x, s):
        return self.jet(x, s).value

    def grad(self, x, s):
        return self.jet(x, s).grad

    def ds(self, x, s):
        return self.jet(x, s).ds

    def ds_grad(self, x, s):
        return self.jet(x, s, 2).ds_grad


class FreePhi(JetPhiField):
    """The exact calibrated free wave C e^{i(u.xi + u^2 s/2)} sinc(xi^2 / 2 eps).

    All derivatives are analytic, which keeps the current quadratures free of
    finite-difference noise.
    """

    def __init__(self, u, C, epsilon, x0=(0.0, 0.0, 0.0, 0.0)):
        self.u = as_four(u)
        self.C = complex(C)
        self.epsilon = float(epsilon)
        self.x0 = as_four(x0)
        self.u2 = minkowski_dot(self.u, self.u)

    def jet(self, x, s, order: int = 1) -> WaveJet:
        x, s = _jet_args(x, s, order)
        eps, u2 = self.epsilon, self.u2
        g = _first(_METRIC_DIAG, x)
        u = _first(self.u, x)
        # xi = y - u s with y = x - x0, so u.xi and xi^2 come from per-point
        # and per-node parts, and so does the phase u.xi + u^2 s/2 = u.y - u^2 s/2
        y = np.ascontiguousarray(np.moveaxis(x - self.x0, -1, 0))
        u_dot_y = np.sum(y * u * g, axis=0)
        a = (np.sum(y * y * g, axis=0) - 2.0 * s * u_dot_y + u2 * s * s) / (2.0 * eps)
        core = self.C * np.exp(1j * u_dot_y) * np.exp(-0.5j * u2 * s)
        # sinc(a) = sin a / a and its a-derivatives from one sin and one cos;
        # below |a| = 1e-4 their Taylor series are exact to rounding
        small = np.abs(a) < 1e-4
        safe = np.where(small, 1.0, a)
        sin_a, cos_a = np.sin(safe), np.cos(safe)
        value = core * np.where(small, 1.0 - a * a / 6.0, sin_a / safe)
        core_dS = core * np.where(small, a * (a * a / 30.0 - 1.0 / 3.0),
                                  (safe * cos_a - sin_a) / (safe * safe))
        # d_mu a = xi_mu / eps, d_s a = -u.xi / eps; the phase adds i u_mu and -i u^2 / 2
        xi_eps = (y - u * s) * (g / eps)
        ds_a = (u2 * s - u_dot_y) / eps
        grad = np.moveaxis(1j * u * g * value + core_dS * xi_eps, 0, -1)
        ds = -0.5j * u2 * value + core_dS * ds_a
        if order == 1:
            return WaveJet(value, grad, ds)
        d2S = np.where(small, a * a / 10.0 - 1.0 / 3.0,
                       ((2.0 - safe * safe) * sin_a - 2.0 * safe * cos_a) / safe ** 3)
        ds_core_dS = -0.5j * u2 * core_dS + core * d2S * ds_a
        ds_grad = 1j * u * g * ds + ds_core_dS * xi_eps - core_dS * (u * g / eps)
        return WaveJet(value, grad, ds, np.moveaxis(ds_grad, 0, -1))


class GaussianSolutionPhi(JetPhiField):
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

    def jet(self, x, s, order: int = 1) -> WaveJet:
        x, s = _jet_args(x, s, order)
        x = np.ascontiguousarray(np.moveaxis(x, -1, 0))
        inv0 = 1.0 / (self.a + 1j * s)          # 1 / sigma0
        invs = 1.0 / (self.a - 1j * s)          # 1 / sigma
        t2 = x[0] ** 2
        r2 = x[1] ** 2 + x[2] ** 2 + x[3] ** 2
        value = np.sqrt(inv0) * invs * np.sqrt(invs) \
            * np.exp(-0.5 * (t2 * inv0 + r2 * invs))
        # d_mu log phi = -x_mu inv_mu with 1 / sigma per axis in inv
        inv = np.stack(np.broadcast_arrays(inv0, invs, invs, invs))
        x_inv = x * inv
        grad = np.moveaxis(-x_inv * value, 0, -1)
        ds = 0.5j * (t2 * inv0 ** 2 - inv0 + 3.0 * invs - r2 * invs ** 2) * value
        if order == 1:
            return WaveJet(value, grad, ds)
        # d_s inv_mu = -i inv_mu^2 on the time axis and +i inv_mu^2 in space
        ds_grad = x_inv * (1j * _first(_METRIC_DIAG, x) * inv * value - ds)
        return WaveJet(value, grad, ds, np.moveaxis(ds_grad, 0, -1))


class ConjugatedPhi(JetPhiField):
    """Charge conjugation phi(x, s) -> phi*(x, -s)."""

    def __init__(self, base: PhiField):
        self.base = base

    def jet(self, x, s, order: int = 1) -> WaveJet:
        j = self.base.jet(x, -np.asarray(s, dtype=float), order)
        return WaveJet(np.conj(j.value), np.conj(j.grad), -np.conj(j.ds),
                       None if j.ds_grad is None else -np.conj(j.ds_grad))


class GaugeShiftedPhi(JetPhiField):
    """phi -> phi e^{i q alpha(x)} for a linear alpha(x) = k.x (Minkowski)."""

    def __init__(self, base: PhiField, k, q):
        self.base = base
        self.k = as_four(k)
        self.q = float(q)

    def jet(self, x, s, order: int = 1) -> WaveJet:
        j = self.base.jet(x, s, order)
        k_lower = self.k * _METRIC_DIAG
        fac = np.exp(1j * self.q * np.einsum("...m,m->...", x, k_lower))

        def shifted(f, df):         # e^{i q k.x} (df + i q k_mu f)
            return fac[..., None] * (df + 1j * self.q * k_lower * f[..., None])

        return WaveJet(fac * j.value, shifted(j.value, j.grad), fac * j.ds,
                       None if j.ds_grad is None else shifted(j.ds, j.ds_grad))


def covariant_derivative(phi: PhiField, x, s, A: Optional[Callable], q: float):
    """D^mu phi = d^mu phi - i q A^mu phi (upper index), vectorized."""
    jet = phi.jet(x, s)
    re, im = _covariant_parts(jet.grad, jet.value, _potential(A, x, q), q)
    return np.moveaxis(re + 1j * im, 0, -1)


# ---------------------------------------------------------------------------
# s-quadrature helpers


def _composite_gauss(edges, n: int):
    """Nodes and weights of n-point Gauss-Legendre on each panel between edges."""
    gx, gw = np.polynomial.legendre.leggauss(n)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * gx).ravel(), (half[:, None] * gw).ravel()


def s_panels(s_range, epsilon: float):
    """Composite Gauss-Legendre nodes resolving the sinc oscillation in s.

    The free-wave phase varies like (s - t)^2 / (2 eps), so the panel width is
    chosen to bound the phase change per panel.
    """
    lo, hi = float(s_range[0]), float(s_range[1])
    rate = max(abs(lo), abs(hi)) / epsilon + 1.0
    width = max((hi - lo) / _MAX_PANELS, min(_PANEL_NODES / rate, (hi - lo) / 8))
    n_panels = max(8, int(np.ceil((hi - lo) / width)))
    return _composite_gauss(np.linspace(lo, hi, n_panels + 1), _PANEL_NODES)


# ---------------------------------------------------------------------------
# grid currents

# s-nodes per jet evaluation in the grid kernels
_S_CHUNK = 8


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


def _jet_chunks(phi: PhiField, pts, s_nodes, s_weights, A: Optional[Callable],
                q: float, order: int = 1):
    """(s, w, jet, D) per chunk of s-nodes on points (P, 4), in node order.

    D is (Re, Im) of D phi at order 1 and of d_s D phi at order 2.  Fixed
    chunks in a fixed order keep every kernel's sums reproducible.
    """
    s_nodes = np.asarray(s_nodes, dtype=float)
    s_weights = np.asarray(s_weights, dtype=float)
    A_c = _potential(A, pts[None], q)       # (4, 1, P): against the s-axis
    for k in range(0, s_nodes.size, _S_CHUNK):
        s = s_nodes[k:k + _S_CHUNK]
        jet = phi.jet(pts, s, order)
        D = (_covariant_parts(jet.grad, jet.value, A_c, q) if order == 1
             else _covariant_parts(jet.ds_grad, jet.ds, A_c, q))
        yield s, s_weights[k:k + _S_CHUNK], jet, D


def _conj_dot(w, f, D, imag: bool):
    """Re (or Im) of sum_n w_n f_n* D_n^mu for D = (Re, Im); shape (4, P)."""
    re, im = (D[1], -D[0]) if imag else D       # Im(f* D) = Re(f* (-i D))
    return np.einsum("n,np,mnp->mp", w, f.real, re) \
        + np.einsum("n,np,mnp->mp", w, f.imag, im)


def _on_grid(grid: EventGrid, values_c):
    """(4, P) components-first point values as a grid array (..., 4)."""
    return values_c.T.reshape(grid.extents + (4,))


def ecd_electric_current(phi: PhiField, A: Optional[Callable], grid: EventGrid,
                         s_nodes, s_weights, q: float) -> CurrentField:
    """j^mu(x) = int ds q Im[phi* D^mu phi] sampled on the grid."""
    pts = grid.points().reshape(-1, 4)
    values = np.zeros((4, pts.shape[0]))
    if q != 0.0:
        for _, w, jet, D in _jet_chunks(phi, pts, s_nodes, s_weights, A, q):
            values += _conj_dot(q * w, jet.value, D, imag=True)
    return CurrentField(grid, _on_grid(grid, values))


def mass_current_b(phi: PhiField, A: Optional[Callable], grid: EventGrid,
                   s_nodes, s_weights, q: float,
                   trajectory: Optional[Trajectory] = None,
                   calibration: Optional[EpsilonCalibration] = None) -> CurrentField:
    """b = bbar + bbreve: the bulk term Re[d_s phi* D^mu phi] integrated over s,
    plus, given trajectory and calibration, the (2/N)|phi|^2 gamma_dot deposit."""
    pts = grid.points().reshape(-1, 4)
    values = np.zeros((4, pts.shape[0]))
    for _, w, jet, D in _jet_chunks(phi, pts, s_nodes, s_weights, A, q):
        values += _conj_dot(w, jet.ds, D, imag=False)
    values = _on_grid(grid, values)
    if trajectory is not None and calibration is not None:
        values = values + deposit_line_current(
            trajectory, grid, DepositKernel("trilinear"),
            lambda s, gamma, gdot: (2.0 / calibration.N) * float(phi.abs2(gamma, s))).values
    return CurrentField(grid, values)


def _lagrangian(jet: WaveJet, D):
    """L_m of a jet whose D phi has the components-first parts D = (re, im)."""
    re, im = D
    kinetic = 0.5 * np.sum((re * re + im * im) * _first(_METRIC_DIAG, re), axis=0)
    v, dv = jet.value, jet.ds
    return -(v.real * dv.imag - v.imag * dv.real) - kinetic


def ecd_energy_momentum(phis: Sequence[PhiField], A: Optional[Callable],
                        grid: EventGrid, s_nodes, s_weights, qs) -> TensorField:
    """p^{nu mu} = sum_k m_k^{nu mu}, the waves' part (no field stress Theta), symmetric.

    m^{nu mu} = int ds [g^{nu mu} L_m + Re(D^nu phi (D^mu phi)*)], where the
    bilinear is a^nu a^mu + b^nu b^mu for D phi = a + i b.
    """
    pts = grid.points().reshape(-1, 4)
    bilinear = np.zeros((4, 4, pts.shape[0]))
    lagrangian = np.zeros(pts.shape[0])
    for phi, q in zip(phis, qs):
        for _, w, jet, D in _jet_chunks(phi, pts, s_nodes, s_weights, A, q):
            lagrangian += np.einsum("n,np->p", w, _lagrangian(jet, D))
            for part in D:
                bilinear += np.einsum("inp,jnp->ijp", w[:, None] * part, part)
    # the sign of the bilinear relative to g L is fixed by requiring
    # d_nu m^{nu mu} = 0 for exact solutions (checked against a closed-form
    # Gaussian solution of the proper-time equation)
    values = np.moveaxis(bilinear, -1, 0) + lagrangian[:, None, None] * METRIC
    values = 0.5 * (values + np.swapaxes(values, -1, -2))
    return TensorField(grid, values.reshape(grid.extents + (4, 4)), symmetric=True)


def ecd_dilatation_current(p: TensorField, phis: Sequence[PhiField],
                           A: Optional[Callable], s_nodes, s_weights, qs) -> CurrentField:
    """xi^mu = p^{mu nu} x_nu + sum_k 2 int ds s Bbar2^mu, the waves' part
    (no worldline deposit Bbreve2).

    Bbar2^mu = -Re[phi* d_s D^mu phi] is the s-weighted piece in the form
    that makes xi divergence-free pointwise for exact solutions; it absorbs
    the d^mu |phi|^2 improvement term coming from the scaling weight of phi
    (the two bulk forms differ by a total s-derivative, so only this one may
    sit under the s-weight).
    """
    from .em_sources import geometric_dilatation_term

    grid = p.grid
    pts = grid.points().reshape(-1, 4)
    bulk = np.zeros((4, pts.shape[0]))
    for phi, q in zip(phis, qs):
        for s, w, jet, D in _jet_chunks(phi, pts, s_nodes, s_weights, A, q, 2):
            bulk -= _conj_dot(2.0 * w * s, jet.value, D, imag=False)
    xi = geometric_dilatation_term(p).values + _on_grid(grid, bulk)
    return CurrentField(grid, xi)


# ---------------------------------------------------------------------------
# static radial profiles of the free charge


_V_NODES, _V_WEIGHTS = _composite_gauss(np.linspace(0.0, np.sqrt(2.0), 6001), 10)
_K2 = _V_NODES ** 2
# Fourier transforms on [0, 2] (zero outside): triangle for sinc^2,
# pi (k^3 - 6k + 4)/12 for sinc'^2, i pi (k^2 - 2)/4 for the odd a*sinc'^2.
_CW_SINC2 = np.pi * (1.0 - _K2 / 2.0) + 0j
_CW_DSINC2 = np.pi * (_K2 ** 3 - 6.0 * _K2 + 4.0) / 12.0 + 0j
_CW_ADSINC2 = 1j * np.pi * (_K2 ** 2 - 2.0) / 4.0
_PREF = (2.0 / np.pi) * np.sqrt(2.0 * np.pi)
# radii per pool task: each thread's malloc arena keeps its block buffers,
# so peak memory grows with the block
_PROFILE_BLOCK = 2
_POOL = ThreadPoolExecutor(len(os.sched_getaffinity(0)))


def _profile_rows(xs, cw):
    """The weighted Fourier sum of _profile_master for a 1-D block of radii.

    Re(e^{i alpha} c) = cos(alpha) Re c - sin(alpha) Im c is summed in real
    arithmetic on one buffer of phases alpha; a zero weight skips its trig.
    Each weighted row is summed by numpy's pairwise sum: a BLAS
    matrix-vector product sums in an order that follows the BLAS thread
    count (and so do the last bits of profile.csv), and einsum's running sum
    loses about 2e-14 over the 60000 nodes.
    """
    alpha = np.multiply.outer(xs ** 2, -0.5 * _K2)
    alpha += np.pi / 4.0
    out = np.zeros(xs.shape)
    if np.any(cw.imag):
        terms = np.sin(alpha, out=None if np.any(cw.real) else alpha)
        terms *= cw.imag
        out -= terms.sum(axis=-1)
    if np.any(cw.real):
        terms = np.cos(alpha, out=alpha)
        terms *= cw.real
        out += terms.sum(axis=-1)
    return out


def _profile_master(xs, cw):
    """int dtau P((tau^2 - x^2)/2) for P with Fourier transform cw on [0, 2].

    Derivation: insert the Fourier representation, do the Gaussian tau
    integral (Fresnel phase e^{i pi/4} sqrt(2 pi / k)), substitute k = v^2.
    Every row is an independent sum, so blocks of _PROFILE_BLOCK radii run
    on the thread pool and give the same bytes for any number of threads.
    Each block runs in a copy of the caller's context, which carries the
    caller's np.errstate into the pool thread.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    flat = xs.ravel()
    cw = cw * _V_WEIGHTS
    blocks = [_POOL.submit(contextvars.copy_context().run, _profile_rows,
                           flat[k:k + _PROFILE_BLOCK], cw)
              for k in range(0, flat.size, _PROFILE_BLOCK)]
    # flat[:0] keeps an empty input empty
    out = np.concatenate([flat[:0]] + [block.result() for block in blocks])
    return _PREF * out.reshape(xs.shape)


def charge_profile_shape(xs):
    """f(x) = int dtau sinc^2((tau^2 - x^2)/2); tail 2 pi / x."""
    return _profile_master(xs, _CW_SINC2)


def mass_profile_shape(xs):
    """h(x) = int dtau tau^2 sinc'^2((tau^2 - x^2)/2); tail 2 pi x / 3.

    Uses tau^2 = 2a + x^2 to split into the a-weighted and plain sinc'^2
    profiles, each with a polynomial Fourier weight.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return (_profile_master(xs, 2.0 * _CW_ADSINC2)
            + xs ** 2 * _profile_master(xs, _CW_DSINC2))


def free_charge_j0(r, u, C, cal: EpsilonCalibration, q: float = 1.0,
                   method: str = "fourier"):
    """Static charge density j^0(r) of the free calibrated wave at rest.

    j^0(r) = q |C|^2 u^0 int ds sinc^2(((u^0 s)^2 - r^2) / (2 eps)); the
    calibration prefactor 1/(4 pi^4 N^2 eps^2) is identically 1.  Scaling
    form: j^0 = q |C|^2 sign(u^0) sqrt(eps) f(r / sqrt(eps)).
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r <= 0):
        raise ValueError("radius must be positive")
    u = as_four(u)
    if np.any(u[1:] != 0.0):
        raise ValueError("the static profile is defined in the charge rest frame")
    eps = cal.epsilon
    amp = q * abs(C) ** 2 * np.sign(u[0]) * np.sqrt(eps)
    if method == "fourier":
        return amp * charge_profile_shape(r / np.sqrt(eps))
    if method == "quad":
        out = np.empty(r.size)
        for i, rv in enumerate(r):
            def f(tau):
                return np.sinc((tau ** 2 - rv ** 2) / (2 * eps) / np.pi) ** 2
            T = max(60.0 * rv, 60.0 * np.sqrt(eps))
            with warnings.catch_warnings():
                # the subdivision cap only limits the last digit here; the
                # cross-check against the Fourier evaluator bounds the error
                warnings.simplefilter("ignore", IntegrationWarning)
                val, _ = quad(f, 0, T, limit=2000,
                              points=[rv], epsabs=1e-12, epsrel=1e-10)
            # analytic tail of the truncated half-line: int_T^inf ~ 2 eps^2/(3 T^3)
            out[i] = 2.0 * val / np.sqrt(eps) + 4.0 * eps ** 2 / (3.0 * T ** 3 * np.sqrt(eps))
        return amp * out
    raise ValueError(f"unknown method {method!r}")


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


def mass_tail(r, C, cal: EpsilonCalibration):
    """Light-cone part of bbar^0: -|C|^2 [pi eps / r + 2 pi r / (3 eps)]."""
    r = np.asarray(r, dtype=float)
    eps = cal.epsilon
    return -abs(C) ** 2 * (np.pi * eps / r + 2.0 * np.pi * r / (3.0 * eps))


def radial_smear(fn, r0, width):
    """Average fn over [r0 - width/2, r0 + width/2] (Simpson)."""
    rs = np.linspace(r0 - width / 2.0, r0 + width / 2.0, _SMEAR_POINTS)
    return float(simpson(np.asarray(fn(rs), dtype=float).ravel(), x=rs)) / width


def fit_loglog_slope(r, values):
    """Least-squares slope of log|values| vs log r; returns (slope, intercept)."""
    r = np.asarray(r, dtype=float)
    v = np.abs(np.asarray(values, dtype=float))
    if np.any(v == 0):          # a profile that underflowed: a numeric failure
        raise FloatingPointError("cannot fit a power law through zero values")
    coef = np.polyfit(np.log(r), np.log(v), 1)
    return float(coef[0]), float(coef[1])


def subtracted_profile_slope(kind: str, C, cal: EpsilonCalibration, q: float = 1.0,
                             x_window=(5.0, 60.0), smear_width_x: float = 2.0):
    """Log-log slope of the radially smeared post-subtraction remainder.

    kind 'charge' subtracts the 2 pi eps / r tail from j^0; kind 'mass'
    subtracts both light-cone pieces from bbar^0.  The raw remainder
    oscillates like cos(r^2 / eps) under an r^{-4} envelope; averaging over a
    radial window of a few sqrt(eps) suppresses the oscillation by a further
    1 / r and exposes the r^{-5} law.  Returns (slope, fit window in r).
    """
    sq = np.sqrt(cal.epsilon)
    rs = np.geomspace(x_window[0], x_window[1], _PROFILE_POINTS) * sq
    smeared = _smeared_remainder(kind, C, cal, q, rs, smear_width_x * sq)
    slope, _ = fit_loglog_slope(rs, smeared)
    return slope, (rs[0], rs[-1])


def _smeared_remainder(kind: str, C, cal: EpsilonCalibration, q: float, rs, width):
    """The post-subtraction remainder of subtracted_profile_slope, averaged
    by radial_smear over a window of the given width around each of rs."""
    if kind == "charge":
        def remainder(r):
            return free_charge_j0(r, (1, 0, 0, 0), C, cal, q) - charge_tail(r, C, cal, q)
    elif kind == "mass":
        def remainder(r):
            return free_mass_b0(r, C, cal) - mass_tail(r, C, cal)
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    return np.array([radial_smear(remainder, r, width) for r in rs])


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
