import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from ecdlab.dynamics import Trajectory
from ecdlab.ecd_core import calibrate
from ecdlab.ecd_currents import (ConjugatedPhi, FreePhi, GaugeShiftedPhi,
                                 GaussianSolutionPhi,
                                 charge_profile_shape,
                                 charge_tail, continuity_residual,
                                 covariant_derivative, divergent_coefficient,
                                 ecd_dilatation_current, ecd_electric_current,
                                 ecd_energy_momentum, fit_loglog_slope,
                                 free_charge_j0, free_mass_b0,
                                 lightcone_deposit_uniform, mass_current_b,
                                 mass_profile_shape, mass_truncation_tail,
                                 s_continuity_residual, s_panels,
                                 subtract_divergent, subtracted_profile_slope,
                                 unitarity_lemma_residual, WaveJet)
from ecdlab.em_sources import deposit_electric_current
from ecdlab.grids import (CurrentField, DepositKernel, EventGrid,
                          deposit_line_current, fd_grad, grid_divergence)

EPS = 0.05
MD = np.array([1.0, -1.0, -1.0, -1.0])


# ---------------------------------------------------------------------------
# static radial profiles


def test_profile_shape_oracles():
    """Frozen values from an independent adaptive quadrature of the defining
    tau-integrals, converged to 10 digits."""
    assert charge_profile_shape(3.0)[0] == pytest.approx(2.1052541669, abs=1e-8)
    assert charge_profile_shape(5.454)[0] == pytest.approx(1.1552084548, abs=1e-8)
    assert mass_profile_shape(3.0)[0] == pytest.approx(6.3034371203, abs=1e-8)


def test_profile_shapes_pinned():
    """Values of the complex-arithmetic Fourier kernel, frozen before it moved
    to real arithmetic."""
    xs = np.array([5.0, 30.0, 61.0])
    np.testing.assert_allclose(
        charge_profile_shape(xs),
        [1.2533828330207721, 0.20943621423334152, 0.10300282208444717], rtol=1e-12)
    np.testing.assert_allclose(
        mass_profile_shape(xs),
        [10.469780445801684, 62.83185451502887, 127.75810131496274], rtol=1e-12)


PROFILE_REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "profile_reference.json").read_text())


def test_profile_shapes_match_reference():
    """The closed forms against a 30-digit mpmath quadrature of the Fourier
    v-integral (the file's "generator" entry says how it was made), on both
    sides of the series / recursion switch at x = 1.5."""
    ref = PROFILE_REFERENCE
    xs = np.array(ref["x"])
    np.testing.assert_allclose(charge_profile_shape(xs), ref["charge_shape"],
                               rtol=1e-14, atol=0)
    np.testing.assert_allclose(mass_profile_shape(xs), ref["mass_shape"],
                               rtol=1e-14, atol=0)
    j0 = ref["free_charge_j0"]
    np.testing.assert_allclose(
        free_charge_j0(j0["r"], (1, 0, 0, 0), j0["C"], calibrate(j0["epsilon"]),
                       q=j0["q"]), j0["j0"], rtol=1e-14, atol=0)
    grid = np.random.default_rng(7).uniform(0.1, 60.0, (9, 37))
    for shape in (charge_profile_shape, mass_profile_shape):
        assert shape(grid).shape == (9, 37)
        assert np.array_equal(shape(-grid), shape(grid))
        assert shape(7.5).shape == (1,)
        assert shape(np.array([])).shape == (0,)


def test_profile_shapes_do_not_depend_on_thread_count():
    """The closed forms hold no shared state: calls from 1 or 3 worker
    threads give the arrays of a call in the caller's thread, bit for bit."""
    inputs = [np.geomspace(0.05, 80.0, 333),
              np.random.default_rng(7).uniform(0.1, 60.0, (9, 37)), 7.5]
    calls = [(f, x) for f in (charge_profile_shape, mass_profile_shape)
             for x in inputs]
    default = [f(x) for f, x in calls]
    assert [d.shape for d in default] == [(333,), (9, 37), (1,)] * 2
    for threads in (1, 3):
        with ThreadPoolExecutor(threads) as pool:
            got = list(pool.map(lambda c: c[0](c[1]), calls))
        for want, g in zip(default, got):
            assert g.shape == want.shape
            assert np.array_equal(g, want)


def test_charge_profile_closed_form_vs_quad():
    """free_charge_j0 against a direct adaptive quadrature of its defining
    s-integral, q |C|^2 int ds sinc^2((s^2 - r^2) / (2 eps)), plus the
    analytic tail 4 eps^2 / (3 T^3) of the half-line cut at T."""
    cal = calibrate(EPS)
    rs = np.array([0.3, 0.7, 1.2])
    C, q = 0.8, 1.3
    closed = free_charge_j0(rs, (1, 0, 0, 0), C, cal, q=q)
    direct = np.empty(rs.size)
    for i, rv in enumerate(rs):
        T = max(60.0 * rv, 60.0 * np.sqrt(EPS))
        with warnings.catch_warnings():
            # the subdivision cap only limits the last digit here
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(lambda s: np.sinc((s ** 2 - rv ** 2) / (2 * EPS) / np.pi) ** 2,
                          0, T, limit=2000, points=[rv], epsabs=1e-12, epsrel=1e-10)
        direct[i] = q * C ** 2 * (2.0 * val + 4.0 * EPS ** 2 / (3.0 * T ** 3))
    assert np.abs(closed / direct - 1.0).max() < 1e-6


def test_profile_kernel_keeps_the_callers_errstate():
    """The closed forms run under the caller's np.errstate: an infinite radius
    raises as any invalid operation would."""
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        charge_profile_shape([np.inf])


def test_charge_profile_input_validation():
    cal = calibrate(EPS)
    with pytest.raises(ValueError):
        free_charge_j0(-0.1, (1, 0, 0, 0), 1.0, cal)
    with pytest.raises(ValueError):
        free_charge_j0(0.5, (1.1, 0.3, 0, 0), 1.0, cal)
    with pytest.raises(ValueError):     # 'charge' is the only fitted profile
        subtracted_profile_slope("mass", 1.0, cal)


def test_charge_tail_is_exact_inverse_power():
    cal = calibrate(EPS)
    rs = np.geomspace(0.5, 5.0, 9)
    slope, _ = fit_loglog_slope(rs, charge_tail(rs, 1.0, cal))
    assert slope == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(FloatingPointError):     # |C|^2 underflows: a numeric failure
        fit_loglog_slope(rs, charge_tail(rs, 1e-170, cal))
    assert divergent_coefficient(0.7, cal, q=2.0) == pytest.approx(
        2.0 * np.pi * 2.0 * 0.49 * EPS)


def test_grid_charge_density_matches_analytic_profile():
    cal = calibrate(EPS)
    phi = FreePhi((1, 0, 0, 0), 1.0, EPS)
    grid = EventGrid(origin=(0.0, 0.3, 0.0, 0.0), spacings=(1.0, 0.1, 1.0, 1.0),
                     extents=(1, 5, 1, 1))
    sn, w = s_panels((-12, 12), EPS)
    j = ecd_electric_current(phi, None, grid, sn, w, q=1.0)
    ana = free_charge_j0(grid.axis(1), (1, 0, 0, 0), 1.0, cal, 1.0)
    assert np.abs(j.values[0, :, 0, 0, 0] / ana - 1.0).max() < 1e-4


def test_mass_profile_truncation_tail():
    cal = calibrate(EPS)
    phi = FreePhi((1, 0, 0, 0), 1.0, EPS)
    x = np.array([0.0, 0.35, 0.0, 0.0])
    S = 20.0
    sn, w = s_panels((-S, S), EPS)
    dv = phi.ds(x, sn)
    D = covariant_derivative(phi, x, sn, None, 1.0)      # one jet over the nodes
    b0 = w @ np.real(np.conj(dv) * D[:, 0])
    ana = free_mass_b0(0.35, 1.0, cal)[0]
    raw_err = abs(b0 - ana)
    corrected_err = abs(b0 + mass_truncation_tail(1.0, (-S, S)) - ana)
    assert raw_err > 0.1                       # the 1/s^2 tail is not negligible
    assert corrected_err < 1e-4 * abs(ana)     # and the correction removes it


def test_mass_current_b_matches_static_profile():
    cal = calibrate(EPS)
    phi = FreePhi((1, 0, 0, 0), 1.0, EPS)
    grid = EventGrid(origin=(0.0, 0.25, 0.0, 0.0), spacings=(1.0, 0.1, 1.0, 1.0),
                     extents=(1, 3, 1, 1))
    S = 20.0
    sn, w = s_panels((-S, S), EPS)
    b = mass_current_b(phi, None, grid, sn, w, q=1.0)
    ana = free_mass_b0(grid.axis(1), 1.0, cal)
    b0 = b.values[0, :, 0, 0, 0] + mass_truncation_tail(1.0, (-S, S))
    assert np.abs(b0 / ana - 1.0).max() < 1e-4
    assert np.abs(b.values[0, :, 0, 0, 1:]).max() < 1e-12 * np.abs(ana).max()


def test_mass_current_b_worldline_deposit():
    """The bbreve term is the (2/N)|phi|^2 deposit along the worldline."""
    cal = calibrate(EPS)
    phi = GaussianSolutionPhi(1.0)
    grid = EventGrid(origin=(-0.4, -1.0, -1.0, -1.0),
                     spacings=(0.2, 0.25, 0.25, 0.25), extents=(5, 9, 9, 9))
    traj = Trajectory.uniform((1.0, 0.2, 0.1, 0.0), s_span=(-4, 4), n=401, q=1.0)
    sn = np.linspace(-3.0, 3.0, 13)
    w = np.full(sn.size, 0.5)
    bulk = mass_current_b(phi, None, grid, sn, w, q=1.0)
    full = mass_current_b(phi, None, grid, sn, w, q=1.0, trajectory=traj,
                          calibration=cal)
    direct = deposit_line_current(
        traj, grid, DepositKernel("trilinear"),
        lambda s, gamma, gdot: (2.0 / cal.N) * abs(complex(phi.value(gamma, s))) ** 2)
    scale = np.abs(direct.values).max()
    assert scale > 0.0
    assert np.abs(full.values - bulk.values - direct.values).max() < 1e-12 * scale


# ---------------------------------------------------------------------------
# wave jets


def jet_reference_waves():
    def free():
        return FreePhi((1.1, 0.3, -0.2, 0.1), 0.8 + 0.3j, EPS, x0=(0.1, 0.0, -0.05, 0.02))

    return {"free": free(), "gaussian": GaussianSolutionPhi(0.8),
            "conjugated": ConjugatedPhi(free()),
            "gauge_shifted": GaugeShiftedPhi(GaussianSolutionPhi(1.2),
                                             (0.3, -0.5, 0.2, 0.7), 1.3)}


@pytest.mark.parametrize("name", ["free", "gaussian", "conjugated", "gauge_shifted"])
def test_jet_matches_frozen_per_method_values(name):
    """jet over an array of s-nodes against value/grad/ds/ds_grad as computed,
    one method and one s at a time, by the per-method closed forms that the
    jet replaced (frozen in tests/data at random events)."""
    ref = json.loads((Path(__file__).parent / "data" / "wave_jet_reference.json").read_text())
    x, s = np.array(ref["x"]), np.array(ref["s"])
    wave = jet_reference_waves()[name]
    jet = wave.jet(x, s, order=2)
    first = wave.jet(x, s)
    assert first.ds_grad is None
    for part in ("value", "grad", "ds", "ds_grad"):
        frozen = ref["waves"][name][part]
        want = np.array(frozen["re"]) + 1j * np.array(frozen["im"])
        got = getattr(jet, part)
        scale = np.abs(want).max()
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * scale, part
        for k, sv in enumerate(s):      # the single-part methods read the same jet
            assert np.abs(getattr(wave, part)(x, sv) - got[k]).max() <= 1e-15 * scale
        if part != "ds_grad":
            assert np.array_equal(getattr(first, part), got)


@pytest.mark.parametrize("s", [0.37, np.array([-1.1, 0.2, 0.75])], ids=["scalar", "array"])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", ["free", "gaussian", "conjugated", "gauge_shifted"])
def test_grid_jet_matches_pointwise_jet(name, order, s):
    """grid_jet evaluates per-axis factors on the grid's open mesh; it must
    give the jet at the grid's events, flattened in C order."""
    wave = jet_reference_waves()[name]
    grid = EventGrid(origin=(0.13, -0.41, 0.27, -0.09), spacings=(0.11, 0.13, 0.17, 0.19),
                     extents=(3, 4, 2, 5))
    got = wave.grid_jet(grid, s, order)
    want = wave.jet(grid.points().reshape(-1, 4), s, order)
    assert (got.ds_grad is None) == (order == 1)
    for part in WaveJet._fields[:4 if order == 2 else 3]:
        g, w = getattr(got, part), getattr(want, part)
        assert g.shape == w.shape == np.shape(s) + (120,) + ((4,) if "grad" in part else ())
        assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max(), part


def test_jet_rejects_bad_order_and_s_shape():
    phi = FreePhi((1, 0, 0, 0), 1.0, EPS)
    x = np.zeros(4)
    with pytest.raises(ValueError):
        phi.jet(x, 0.1, order=3)
    with pytest.raises(ValueError):
        phi.jet(x, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# symmetries of the grid currents


k_strat = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 4)


@given(k=k_strat)
@settings(max_examples=15, deadline=None)
def test_electric_current_gauge_invariance(k):
    """A linear phase e^{i q k.x} with the matching potential A = k leaves j alone."""
    phi = FreePhi((1, 0, 0, 0), 1.0, EPS)
    q = 1.3
    shifted = GaugeShiftedPhi(phi, k, q)
    A = lambda pts: np.broadcast_to(np.asarray(k, float), np.shape(pts))
    grid = EventGrid(origin=(0.0, 0.2, -0.1, 0.0), spacings=(0.3, 0.3, 0.3, 0.3),
                     extents=(2, 2, 2, 2))
    sn = np.array([-0.7, 0.2, 0.9])
    w = np.ones(3)
    j0 = ecd_electric_current(phi, None, grid, sn, w, q)
    j1 = ecd_electric_current(shifted, A, grid, sn, w, q)
    assert np.abs(j1.values - j0.values).max() < 1e-13


def test_grid_currents_build_no_events_without_a_potential(monkeypatch):
    """With A = None the kernels read only the grid's axes: EventGrid.points,
    the (P, 4) array of events, is never built."""
    phi = GaussianSolutionPhi(0.8)
    grid = EventGrid(origin=(0.0, 0.2, -0.1, 0.0), spacings=(0.3, 0.3, 0.3, 0.3),
                     extents=(2, 3, 2, 2))
    sn, w = np.array([-0.7, 0.2, 0.9]), np.ones(3)
    kernels = (lambda: ecd_electric_current(phi, None, grid, sn, w, 1.0).values,
               lambda: mass_current_b(phi, None, grid, sn, w, 1.0).values,
               lambda: ecd_energy_momentum([phi], None, grid, sn, w, [1.0]).values)
    want = [k() for k in kernels]

    def no_points(self):
        raise AssertionError("EventGrid.points built without a potential")
    monkeypatch.setattr(EventGrid, "points", no_points)
    for k, v in zip(kernels, want):
        assert np.array_equal(k(), v)


def test_conjugation_flips_electric_current():
    phi = FreePhi((1.0, 0.2, 0.0, 0.0), 0.8 + 0.1j, EPS)
    grid = EventGrid(origin=(0.0, 0.2, -0.1, 0.0), spacings=(0.3, 0.3, 0.3, 0.3),
                     extents=(2, 2, 2, 2))
    sn = np.array([-0.9, -0.2, 0.2, 0.9])   # symmetric nodes
    w = np.ones(4)
    j = ecd_electric_current(phi, None, grid, sn, w, q=1.0)
    j_conj = ecd_electric_current(ConjugatedPhi(phi), None, grid, sn, w, q=1.0)
    assert np.abs(j_conj.values + j.values).max() < 1e-14


def test_dimension_law_of_currents():
    """j has scaling dimension -3 and b dimension -5: mapping (u, C, eps, x, s)
    by the dilatation and the quadrature nodes by lambda^2 reproduces the
    currents exactly, term by term."""
    u = np.array([1.02, 0.2, 0.0, 0.0])
    u = u / np.sqrt(u[0] ** 2 - u[1] ** 2)
    C = 0.8 + 0.3j
    lam = 1.3
    phi1 = FreePhi(u, C, EPS)
    phi2 = FreePhi(u / lam, C / lam ** 2, lam ** 2 * EPS)
    nodes, w = s_panels((-10, 10), EPS)
    x = np.array([0.15, 0.3, -0.2, 0.1])

    def point_currents(phi, x, nodes, wts):
        jet = phi.jet(x, nodes)
        D = covariant_derivative(phi, x, nodes, None, 1.0)
        j = wts @ np.imag(np.conj(jet.value)[:, None] * D)
        b = wts @ np.real(np.conj(jet.ds)[:, None] * D)
        return j, b

    j1, b1 = point_currents(phi1, x, nodes, w)
    j2, b2 = point_currents(phi2, lam * x, lam ** 2 * nodes, lam ** 2 * w)
    assert np.abs(j2 - j1 / lam ** 3).max() < 1e-12 * np.abs(j1).max()
    assert np.abs(b2 - b1 / lam ** 5).max() < 1e-12 * np.abs(b1).max()


# ---------------------------------------------------------------------------
# conservation oracle: exact closed-form solution


def test_gaussian_wave_solves_proper_time_equation():
    g = GaussianSolutionPhi(1.0)
    x = np.array([0.3, 0.25, -0.1, 0.2])
    h = 1e-3
    ds = (g.value(x, 0.4 + h) - g.value(x, 0.4 - h)) / (2 * h)
    box = 0.0
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = h
        box += MD[mu] * (g.value(x + e, 0.4) - 2 * g.value(x, 0.4)
                         + g.value(x - e, 0.4)) / h ** 2
    assert abs(1j * ds + 0.5 * box) < 1e-5
    with pytest.raises(ValueError):
        GaussianSolutionPhi(-1.0)


def test_gaussian_analytic_derivatives_match_differences():
    g = GaussianSolutionPhi(0.8)
    z = np.array([0.3, 0.25, -0.1, 0.2, 0.4])       # the event x, then s
    x, s = z[:4], z[4]
    # central differences in (x, s): the last row is the s-derivative
    d_value = fd_grad(lambda w: g.value(w[:4], w[4]), z, 1e-4)
    d_grad = fd_grad(lambda w: g.grad(w[:4], w[4]), z, 1e-4)
    assert np.abs(g.grad(x, s) - d_value[:4]).max() < 1e-7
    assert abs(g.ds(x, s) - d_value[4]) < 1e-7
    assert np.abs(g.ds_grad(x, s) - d_grad[4]).max() < 1e-6


def gaussian_grid_and_quadrature():
    h = 0.05
    grid = EventGrid(origin=(0.2 - 2 * h, 0.1 - 2 * h, -0.3 - 2 * h, 0.15 - 2 * h),
                     spacings=(h, h, h, h), extents=(5, 5, 5, 5))
    sn = np.linspace(-20, 20, 401)
    w = np.full(sn.size, sn[1] - sn[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return grid, sn, w


def test_energy_momentum_divergence_free_for_exact_solution():
    g = GaussianSolutionPhi(1.0)
    grid, sn, w = gaussian_grid_and_quadrature()
    p = ecd_energy_momentum([g], None, grid, sn, w, [0.0])
    col = CurrentField(grid, p.values[..., :, 0])
    div = grid_divergence(col)
    scale = np.abs(p.values[..., 0, 0]).max()
    assert np.nanmax(np.abs(div)) < 5e-4 * max(scale, 1.0)


def test_energy_momentum_matches_sixteen_pair_reference():
    """p from the ten nu <= mu bilinear pairs, with the kinetic part of L_m
    read off the bilinear's diagonal, against the full 16-pair bilinear plus
    g L_m, symmetrized, summed here from pointwise jets."""
    phis = [GaussianSolutionPhi(0.9), FreePhi((1.1, 0.3, -0.2, 0.1), 0.8 + 0.3j, EPS)]
    qs = [0.0, 1.3]
    A = lambda pts: 0.2 * pts[..., ::-1] + np.array([0.1, -0.3, 0.05, 0.2])
    grid = EventGrid(origin=(0.13, -0.41, 0.27, -0.09), spacings=(0.11, 0.13, 0.17, 0.19),
                     extents=(3, 4, 2, 5))
    sn = np.linspace(-2.0, 2.0, 19)        # two full s-chunks and a partial one
    w = np.full(sn.size, sn[1] - sn[0])
    p = ecd_energy_momentum(phis, A, grid, sn, w, qs)

    pts = grid.points().reshape(-1, 4)
    want = np.zeros((pts.shape[0], 4, 4))
    for phi, q in zip(phis, qs):
        jet = phi.jet(pts, sn)
        D = MD * jet.grad - 1j * q * A(pts) * jet.value[..., None]     # D^mu phi
        kinetic = 0.5 * np.einsum("npi,npi,i->np", D, np.conj(D), MD).real
        lagrangian = -np.imag(np.conj(jet.value) * jet.ds) - kinetic
        want += np.einsum("n,npi,npj->pij", w, D, np.conj(D)).real
        want += (w @ lagrangian)[:, None, None] * np.diag(MD)
    want = 0.5 * (want + np.swapaxes(want, -1, -2)).reshape(grid.extents + (4, 4))
    assert np.abs(p.values - want).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(p.values, np.swapaxes(p.values, -1, -2))


def test_dilatation_divergence_free_for_exact_solution():
    g = GaussianSolutionPhi(1.0)
    grid, sn, w = gaussian_grid_and_quadrature()
    p = ecd_energy_momentum([g], None, grid, sn, w, [0.0])
    xi = ecd_dilatation_current(p, [g], None, sn, w, [0.0])
    div = grid_divergence(xi)
    scale = np.abs(xi.values).max()
    assert np.nanmax(np.abs(div)) < 5e-3 * max(scale, 1.0)


def test_windowed_free_wave_is_worldline_sourced():
    """The calibrated sinc wave solves a sourced proper-time equation: off the
    light cone its homogeneous residual is O(1) relative to |phi|, unlike the
    closed-form solution above.  This is why s-weighted (dilatation) audits of
    the free wave retain a bulk drift at finite epsilon while the electric and
    energy-momentum contractions, where the source cancels, do not."""
    phi = FreePhi((1, 0, 0, 0), 1.0, EPS)
    x = np.array([0.3, 0.25, -0.1, 0.2])
    h = 1e-3
    ds = (phi.value(x, 0.4 + h) - phi.value(x, 0.4 - h)) / (2 * h)
    box = 0.0
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = h
        box += MD[mu] * (phi.value(x + e, 0.4) - 2 * phi.value(x, 0.4)
                         + phi.value(x - e, 0.4)) / h ** 2
    assert abs(1j * ds + 0.5 * box) > abs(phi.value(x, 0.4))


# ---------------------------------------------------------------------------
# light-cone deposit and subtraction


def test_lightcone_deposit_matches_static_tail():
    grid = EventGrid(origin=(0.0, 0.4, 0.0, 0.0), spacings=(1.0, 0.2, 1.0, 1.0),
                     extents=(1, 4, 1, 1))
    coeff = 0.37
    dep = lightcone_deposit_uniform(grid, (1, 0, 0, 0), (0, 0, 0, 0), coeff)
    rs = grid.axis(1)
    assert np.allclose(dep.values[0, :, 0, 0, 0], coeff / rs, atol=1e-14)
    assert np.allclose(dep.values[0, :, 0, 0, 1:], 0.0)


def test_lightcone_deposit_null_worldline_has_one_root():
    """For a null u the light-cone condition is linear in s: a single root."""
    grid = EventGrid(origin=(1.0, -0.5, 0.0, 0.0), spacings=(1.0, 0.5, 1.0, 1.0),
                     extents=(1, 3, 1, 1))
    u = np.array([1.0, 1.0, 0.0, 0.0])
    dep = lightcone_deposit_uniform(grid, u, (0, 0, 0, 0), 0.37)
    for x, val in zip(grid.points().reshape(-1, 4), dep.values.reshape(-1, 4)):
        s_root = (x @ (MD * x)) / (2.0 * (u @ (MD * x)))     # (x - u s)^2 = 0
        denom = abs(u @ (MD * (x - u * s_root)))
        np.testing.assert_allclose(val, 0.37 * u / (2.0 * denom), rtol=1e-14)


def test_subtract_divergent_removes_tail():
    cal = calibrate(EPS)
    grid = EventGrid(origin=(0.0, 0.4, 0.0, 0.0), spacings=(1.0, 0.2, 1.0, 1.0),
                     extents=(1, 4, 1, 1))
    phi = FreePhi((1, 0, 0, 0), 1.0, EPS)
    sn, w = s_panels((-12, 12), EPS)
    j = ecd_electric_current(phi, None, grid, sn, w, q=1.0)
    traj = Trajectory.uniform((1, 0, 0, 0), s_span=(-1, 1), n=5, q=1.0)
    coeff = divergent_coefficient(1.0, cal, 1.0)
    reg = subtract_divergent(j, traj, coeff)
    rs = grid.axis(1)
    tail = charge_tail(rs, 1.0, cal, 1.0)
    raw = np.abs(j.values[0, :, 0, 0, 0])
    finite = np.abs(reg.values[0, :, 0, 0, 0])
    # at several eps-lengths out the profile is tail-dominated: subtracting the
    # light-cone deposit must remove most of it
    assert finite.max() < 0.35 * raw.max()
    assert np.abs(reg.values[0, :, 0, 0, 0]
                  - (j.values[0, :, 0, 0, 0] - tail)).max() < 1e-3 * raw.max()


def test_subtract_divergent_requires_uniform_worldline():
    grid = EventGrid(origin=(0.0, 0.4, 0.0, 0.0), spacings=(1.0, 0.2, 1.0, 1.0),
                     extents=(1, 4, 1, 1))
    j = CurrentField(grid, np.zeros(grid.extents + (4,)))
    s = np.linspace(-1, 1, 21)
    gam = np.stack([s, 0.1 * s ** 2, 0 * s, 0 * s], axis=1)
    gd = np.stack([np.ones_like(s), 0.2 * s, 0 * s, 0 * s], axis=1)
    bent = Trajectory(s, gam, gd, q=1.0)
    with pytest.raises(NotImplementedError):
        subtract_divergent(j, bent, 1.0)


# ---------------------------------------------------------------------------
# audits and pointwise lemmas


def test_continuity_audit_on_deposited_charge():
    grid = EventGrid(origin=(-0.4, -1.0, -1.0, -1.0),
                     spacings=(0.2, 0.25, 0.25, 0.25), extents=(5, 9, 9, 9))
    traj = Trajectory.uniform((1.0, 0.2, 0.1, 0.0), s_span=(-4, 4), n=401, q=1.0)
    j = deposit_electric_current(traj, grid, DepositKernel("trilinear"))
    rep = continuity_residual(j)
    assert rep.charge_spread < 1e-12
    assert rep.interior_corrected_spread <= rep.charge_spread + 1e-12
    assert rep.slice_charges == pytest.approx([1.0] * 5)


def test_unitarity_lemma_second_order():
    f = GaussianSolutionPhi(1.0)
    g = GaussianSolutionPhi(1.4)
    fv = lambda x, s: complex(f.value(x, s))
    gv = lambda x, s: complex(g.value(x, s))
    x = np.array([0.2, 0.3, -0.1, 0.15])
    res = [unitarity_lemma_residual(fv, gv, None, x, 0.3, h)
           for h in (2e-2, 1e-2, 5e-3)]
    assert 3.5 < res[0] / res[1] < 4.5
    assert 3.5 < res[1] / res[2] < 4.5


def test_unitarity_lemma_detects_non_solution():
    f = GaussianSolutionPhi(1.0)
    g = GaussianSolutionPhi(1.4)
    fv = lambda x, s: complex(f.value(x, s))
    bad = lambda x, s: complex(g.value(x, s)) * (1 + 0.3 * float(np.asarray(x)[1]) ** 2)
    x = np.array([0.2, 0.3, -0.1, 0.15])
    res = [unitarity_lemma_residual(fv, bad, None, x, 0.3, h)
           for h in (2e-2, 1e-2)]
    assert min(res) > 1e-2        # does not converge to zero
    assert res[1] / res[0] > 0.9  # and does not shrink at second order


def test_s_continuity_second_order():
    phi = FreePhi((1, 0, 0, 0), 1.0, EPS)
    fv = lambda x, s: complex(phi.value(x, s))
    x = np.array([0.2, 0.3, -0.1, 0.15])
    res = [s_continuity_residual(fv, None, x, 0.3, h) for h in (2e-2, 1e-2, 5e-3)]
    assert res[0] > res[1] > res[2]
    assert 3.5 < res[0] / res[1] < 4.5
