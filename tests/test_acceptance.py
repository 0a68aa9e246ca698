"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (outside pytest's capture) with the measured figure and its
target, so a full run yields one line per criterion.
"""

import json

import numpy as np
import pytest

from ecdlab.dynamics import (IntegratorConfig, Trajectory,
                             apply_scaling, charge_conjugate, effective_mass,
                             integrate_worldline)
from ecdlab.ecd_core import (EcdPair, EpsilonCalibration, calibrate,
                             consistency_residual, scale_transform_pair,
                             surfing_residual)
from ecdlab.ecd_currents import (ConjugatedPhi, CurrentField, FreePhi,
                                 GaussianSolutionPhi, continuity_residual,
                                 covariant_derivative, ecd_dilatation_current,
                                 ecd_energy_momentum, fit_loglog_slope,
                                 free_charge_j0, s_panels,
                                 subtracted_profile_slope,
                                 unitarity_lemma_residual)
from ecdlab.em_sources import (deposit_electric_current,
                               dilatation_shift_check, stress_tensor)
from ecdlab.grids import DepositKernel, EventGrid, grid_charge, slice_integral
from ecdlab.minkowski import METRIC, AntisymTensor
from ecdlab.propagators import (ActionProvider, ClassicalPath,
                                classical_path_bvp,
                                constant_field_action_provider,
                                constant_field_van_vleck,
                                delta_potential_propagator, free_action_provider,
                                free_propagator, semiclassical_propagator,
                                van_vleck)
from ecdlab.scenarios import Scenario, run_scenario


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance criterion {n:2d}: "
              f"{'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


def test_criterion_01_calibration(capsys):
    N = calibrate(1e-3).N
    ok = abs(N - (-50.6606)) < 1e-4
    report(capsys, 1, ok, f"N(1e-3) = {N:.5f} (target -50.6606 +/- 1e-4)")


def test_criterion_02_consistency_order_epsilon(capsys):
    eps_list = np.array([1e-1, 1e-2, 1e-3])
    res = np.array([consistency_residual(EcdPair.free((1, 0, 0, 0), calibrate(e)),
                                         [0.0, 0.7]) for e in eps_list])
    expo = float(np.polyfit(np.log(eps_list), np.log(res), 1)[0])

    class WrongN(EpsilonCalibration):
        @property
        def N(self):
            return 1.5 * super().N

    bad = consistency_residual(EcdPair.free((1, 0, 0, 0), WrongN(1e-2)), [0.0])
    ok = 0.8 <= expo <= 1.2 and bad > 0.2
    report(capsys, 2, ok,
           f"residual ~ eps^{expo:.3f} (target [0.8, 1.2]); "
           f"wrong-N control residual {bad:.2f} (target O(1))")


def test_criterion_03_surfing_convergence(capsys):
    eps = 0.05
    g0 = 1.0 / np.sqrt(1 - 0.09)
    u = np.array([g0, 0.3 * g0, 0.0, 0.0])
    phi = FreePhi(u, 1.0, eps)
    pc = lambda x, s: complex(phi.value(np.asarray(x, float), s))
    s0 = 0.7
    probe = u * s0 + np.array([0.0, 0.04, -0.03, 0.02])
    exact = np.real(phi.grad(probe, s0) * np.conj(phi.value(probe, s0)))
    errs = [np.abs(surfing_residual(pc, probe, s0, h) - exact).max()
            for h in (2e-2, 1e-2, 5e-3)]
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    ok = min(ratios) >= 3.5
    report(capsys, 3, ok,
           f"surfing step-halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
           f"(target >= 3.5)")


def test_criterion_04_current_tail(capsys):
    cal = calibrate(1e-3)
    xs = np.geomspace(5.0, 60.0, 14)
    rs = xs * np.sqrt(1e-3)
    tail_slope, _ = fit_loglog_slope(rs, free_charge_j0(rs, (1, 0, 0, 0),
                                                        1.0, cal, 1.0))
    sub_slope, _ = subtracted_profile_slope("charge", 1.0, cal, 1.0,
                                            x_window=(5, 60), smear_width_x=2.0)
    base = free_charge_j0(rs, (1, 0, 0, 0), 1.0, cal, 1.0) / np.sqrt(1e-3)
    collapse = 0.0
    for e2 in (1e-2, 1e-4):
        prof = free_charge_j0(xs * np.sqrt(e2), (1, 0, 0, 0), 1.0,
                              calibrate(e2), 1.0) / np.sqrt(e2)
        collapse = max(collapse, float(np.abs(prof / base - 1.0).max()))
    ok = (abs(tail_slope + 1.0) < 0.02 and sub_slope <= -4.0
          and abs(sub_slope + 5.0) <= 0.5 and collapse < 0.01)
    report(capsys, 4, ok,
           f"tail slope {tail_slope:.4f} (target -1.00 +/- 0.02); "
           f"subtracted slope {sub_slope:.2f} (target -5 +/- 0.5, <= -4); "
           f"collapse {collapse:.1e} (target < 1e-2)")


def test_criterion_05_conservation_audits(capsys):
    # (a) gamma_dot^2 drift in a constant field
    F = np.asarray(AntisymTensor.from_fields((0.3, 0.0, 0.0)))
    traj = integrate_worldline(((0, 0, 0, 0), (1, 0, 0, 0)),
                               F, 1.0, (0.0, 10.0),
                               IntegratorConfig(step=1e-3, tolerance=1e-9))
    n2 = traj.norm2_samples()
    drift = float(np.abs(n2 - n2[0]).max())
    ok_a = drift < 1e-10

    # (b) electromagnetic stress tensor symmetric and traceless
    T = stress_tensor(np.asarray(AntisymTensor.from_fields((1.0, -0.5, 0.2),
                                                           (0.3, 0.7, -1.1))))
    sym = float(np.abs(T - T.T).max())
    trace = float(abs(np.trace(METRIC @ T)))
    ok_b = sym < 1e-12 and trace < 1e-12 * np.abs(T).max()

    # (c) deposited classical charge constant across slices
    grid = EventGrid(origin=(-0.4, -1.0, -1.0, -1.0),
                     spacings=(0.2, 0.25, 0.25, 0.25), extents=(5, 9, 9, 9))
    wl = Trajectory.uniform((1.0, 0.2, 0.1, 0.0), s_span=(-4, 4), n=401, q=1.0)
    j = deposit_electric_current(wl, grid, DepositKernel("trilinear"))
    charges = [grid_charge(j, k) for k in range(5)]
    spread_c = max(charges) - min(charges)
    ok_c = spread_c < 1e-13

    # (d) free-pair windowed-equation residual strictly decreasing in eps
    res_d = [consistency_residual(EcdPair.free((1, 0, 0, 0), calibrate(e)),
                                  [0.0, 0.7]) for e in (1e-1, 3e-2, 1e-2)]
    ok_d = res_d[0] > res_d[1] > res_d[2]

    # (e) p^00 and xi^0 slice charges on desk grids, <= 1e-2 relative.
    # Free wave: p^00 only (its s-weighted dilatation audit is obstructed by
    # the wave's worldline source at finite eps); the exact closed-form
    # solution audits both currents.
    # relative to the slice L1 norm of the density: the net charge of an
    # antisymmetric density (xi^0 below) crosses zero, so charge-normalized
    # ratios would be ill-conditioned
    def rel_spread(grid, current):
        rep = continuity_residual(current)
        l1 = max(slice_integral(grid, np.abs(current.values[..., 0]), k)
                 for k in range(grid.extents[0]))
        return rep.interior_corrected_spread / l1

    phi = FreePhi((1, 0, 0, 0), 1.0, 0.05)
    fgrid = EventGrid(origin=(-0.4, -0.825, -0.825, -0.825),
                      spacings=(0.2, 0.15, 0.15, 0.15), extents=(5, 12, 12, 12))
    sn, w = s_panels((-8, 8), 0.05)
    p_free = ecd_energy_momentum([phi], None, fgrid, sn, w, [0.0])
    rel_free = rel_spread(fgrid, CurrentField(fgrid, p_free.values[..., :, 0]))

    g = GaussianSolutionPhi(1.0)
    ggrid = EventGrid(origin=(-0.4, -2.85, -2.85, -2.85),
                      spacings=(0.2, 0.3, 0.3, 0.3), extents=(5, 20, 20, 20))
    sg = np.linspace(-25, 25, 601)
    wg = np.full(sg.size, sg[1] - sg[0])
    wg[0] *= 0.5
    wg[-1] *= 0.5
    p_g = ecd_energy_momentum([g], None, ggrid, sg, wg, [0.0])
    rel_p = rel_spread(ggrid, CurrentField(ggrid, p_g.values[..., :, 0]))
    xi = ecd_dilatation_current(p_g, [g], None, sg, wg, [0.0])
    rel_xi = rel_spread(ggrid, xi)
    ok_e = rel_free <= 1e-2 and rel_p <= 1e-2 and rel_xi <= 1e-2

    ok = ok_a and ok_b and ok_c and ok_d and ok_e
    report(capsys, 5, ok,
           f"(a) drift {drift:.1e} < 1e-10; (b) sym {sym:.1e} / trace "
           f"{trace:.1e} < 1e-12; (c) charge spread {spread_c:.1e}; "
           f"(d) residuals {res_d[0]:.1e} > {res_d[1]:.1e} > {res_d[2]:.1e}; "
           f"(e) p00/xi0 interior rel spreads {rel_free:.1e}, {rel_p:.1e}, "
           f"{rel_xi:.1e} <= 1e-2")


def test_criterion_06_dilatation_shift_identity(capsys):
    trajs = [Trajectory.uniform((1.2, 0.3, 0.0, 0.0), x0=(0, 0.5, 0, 0),
                                s_span=(-5, 5), n=201),
             Trajectory.uniform((1.0, -0.2, 0.1, 0.0), s_span=(-5, 5), n=201)]
    res = dilatation_shift_check(trajs, a=(0.3, -0.2, 0.5), b=(0.4, -0.7),
                                 time=0.2)
    ok = res < 1e-6
    report(capsys, 6, ok, f"shift-identity residual {res:.1e} (target < 1e-6)")


def test_criterion_07_scale_covariance(capsys):
    # classical worldlines: the scaled solution re-integrates exactly
    F = np.asarray(AntisymTensor.from_fields((0.3, 0.0, 0.1)))
    cfg = IntegratorConfig(step=1e-2, tolerance=1e-6)
    traj = integrate_worldline(((0, 0, 0, 0), (1, 0, 0, 0)),
                               F, 1.0, (0.0, 2.0), cfg)
    worst_cl = 0.0
    for lam in (0.5, 2.0, 10.0):
        cfg2 = IntegratorConfig(step=lam ** 2 * 1e-2, tolerance=np.inf)
        direct = integrate_worldline(((0, 0, 0, 0), (1.0 / lam, 0, 0, 0)),
                                     F / lam ** 2, 1.0,
                                     (0.0, lam ** 2 * 2.0), cfg2)
        scaled = apply_scaling(traj, lam)
        worst_cl = max(worst_cl, float(np.abs(direct.gammas
                                              - scaled.gammas).max()))
    ok_cl = worst_cl < 1e-6

    # ECD pair: consistency residual invariant under the dilatation
    pair = EcdPair.free((1, 0, 0, 0), calibrate(1e-2, s_max=20.0))
    base = consistency_residual(pair, [0.3])
    scaled_res = consistency_residual(scale_transform_pair(pair, 1.5),
                                      [0.3 * 1.5 ** 2])
    inv_err = abs(scaled_res - base) / base
    ok_pair = inv_err < 2e-3

    # sampled currents: dimension laws lambda^-3 (j) and lambda^-5 (b)
    u = np.array([1.02, 0.2, 0.0, 0.0])
    u = u / np.sqrt(u[0] ** 2 - u[1] ** 2)
    lam = 1.3
    phi1 = FreePhi(u, 0.8 + 0.3j, 0.05)
    phi2 = FreePhi(u / lam, (0.8 + 0.3j) / lam ** 2, lam ** 2 * 0.05)
    nodes, w = s_panels((-10, 10), 0.05)
    x = np.array([0.15, 0.3, -0.2, 0.1])

    def point_currents(phi, x, nodes, wts):
        jet = phi.jet(x, nodes)
        D = covariant_derivative(phi, x, nodes, None, 1.0)
        return (wts @ np.imag(np.conj(jet.value)[:, None] * D),
                wts @ np.real(np.conj(jet.ds)[:, None] * D))

    j1, b1 = point_currents(phi1, x, nodes, w)
    j2, b2 = point_currents(phi2, lam * x, lam ** 2 * nodes, lam ** 2 * w)
    err_j = float(np.abs(j2 - j1 / lam ** 3).max() / np.abs(j1).max())
    err_b = float(np.abs(b2 - b1 / lam ** 5).max() / np.abs(b1).max())
    ok_dim = err_j < 1e-12 and err_b < 1e-12

    ok = ok_cl and ok_pair and ok_dim
    report(capsys, 7, ok,
           f"classical rescaling deviation {worst_cl:.1e}; consistency "
           f"invariance {inv_err:.1e}; dimension-law errors j {err_j:.1e}, "
           f"b {err_b:.1e}")


def test_criterion_08_charge_conjugation(capsys):
    # electric current flips sign exactly under phi -> phi*(x, -s)
    phi = FreePhi((1.0, 0.2, 0.0, 0.0), 0.8 + 0.1j, 0.05)
    x = np.array([0.15, 0.3, -0.2, 0.1])
    sn = np.array([-0.9, -0.2, 0.2, 0.9])
    j = np.zeros(4)
    jc = np.zeros(4)
    conj_phi = ConjugatedPhi(phi)
    for s in sn:
        j += np.imag(np.conj(phi.value(x, s))
                     * covariant_derivative(phi, x, s, None, 1.0))
        jc += np.imag(np.conj(conj_phi.value(x, s))
                      * covariant_derivative(conj_phi, x, s, None, 1.0))
    flip = float(np.abs(jc + j).max())

    # worldline point set and effective mass preserved exactly
    F = np.asarray(AntisymTensor.from_fields((0.4, 0.0, 0.0)))
    traj = integrate_worldline(((0, 0, 0, 0), (1, 0, 0, 0)),
                               F, 1.0, (0.0, 1.0),
                               IntegratorConfig(step=1e-2, tolerance=1e-6))
    conj = charge_conjugate(traj)
    points_ok = np.array_equal(np.sort(conj.gammas, axis=0),
                               np.sort(traj.gammas, axis=0))
    m2_a, m2_b = effective_mass(conj)[0], effective_mass(traj)[0]
    m2_ok = abs(m2_a - m2_b) <= 1e-14 * abs(m2_b)  # summation-order rounding

    ok = flip < 1e-14 and points_ok and m2_ok
    report(capsys, 8, ok,
           f"current flip residual {flip:.1e} (exact); point set and m^2 "
           f"preserved: {points_ok and m2_ok}")


def test_criterion_09_propagators(capsys):
    x = np.array([0.85, 0.4, 0.1, -0.2])
    xp = np.zeros(4)

    conj_err = abs(free_propagator(x, xp, -0.8)
                   - np.conj(free_propagator(x, xp, 0.8)))

    prov0 = free_action_provider()
    path = ClassicalPath(action=prov0.action(x, xp, 0.8),
                         van_vleck=van_vleck(prov0, x, xp, 0.8))
    semi_err = abs(semiclassical_propagator([path], 0.8)
                   - free_propagator(x, xp, 0.8)) / abs(free_propagator(x, xp, 0.8))

    F = np.asarray(AntisymTensor.from_fields((0.4, 0.0, 0.0), (0.0, 0.0, 0.7)))
    provF = constant_field_action_provider(F, q=1.0)
    vv_err = abs(van_vleck(provF, x, np.array([0.0, 0.1, 0.0, 0.0]), 0.9)
                 / constant_field_van_vleck(F, 0.9, 1.0) - 1.0)

    def delta_residual(h):
        xd = np.array([0.9, 0.8, -0.5, 0.4])
        xdp = np.array([0.0, 0.3, 0.2, 0.1])
        G = delta_potential_propagator
        ds = (G(xd, xdp, 1.3 + h) - G(xd, xdp, 1.3 - h)) / (2 * h)
        box = 0.0
        for mu in range(4):
            e = np.zeros(4)
            e[mu] = h
            box += METRIC[mu, mu] * (G(xd + e, xdp, 1.3) - 2 * G(xd, xdp, 1.3)
                                     + G(xd - e, xdp, 1.3)) / h ** 2
        return abs(1j * ds + 0.5 * box)

    dres = [delta_residual(h) for h in (4e-3, 2e-3, 1e-3)]
    delta_ok = dres[0] > dres[1] > dres[2]

    F2 = np.asarray(AntisymTensor.from_fields((0.3, 0.0, 0.1)))
    F2_lower = METRIC @ F2 @ METRIC
    A = lambda y: METRIC @ (-0.5 * F2_lower @ np.asarray(y, float))

    def bvp_action(x_, xp_, s_):
        return classical_path_bvp(F2, xp_, x_, s_, 1.0).action

    def bvp_grad(x_, xp_, s_):
        p = classical_path_bvp(F2, xp_, x_, s_, 1.0)
        return METRIC @ p.final_velocity + METRIC @ A(np.asarray(x_, float))

    from ecdlab.propagators import hamilton_jacobi_residual
    hj = hamilton_jacobi_residual(ActionProvider(action=bvp_action,
                                                 grad_x=bvp_grad),
                                  A, x, xp, 0.8, q=1.0)

    ok = (conj_err < 1e-14 and semi_err < 1e-12 and vv_err < 1e-4
          and delta_ok and hj < 1e-6)
    report(capsys, 9, ok,
           f"conjugation {conj_err:.1e} (exact); semiclassical-vs-free "
           f"{semi_err:.1e}; Van Vleck {vv_err:.1e} < 1e-4; delta-kernel "
           f"residuals decreasing: {delta_ok}; BVP Hamilton-Jacobi {hj:.1e} "
           f"< 1e-6")


def test_criterion_10_classical_limit(capsys, tmp_path):
    scenario = Scenario(kind="classical-limit-sweep", parameters={
        "electric": [0.1, 0.0, 0.0],
        "factors": [1.0, 0.5],
        "ratio_bound": 0.6,
        "epsilon": 1e-2,
    })
    manifest = run_scenario(scenario, tmp_path / "sweep", workers=1)
    ratio = max(manifest.residuals["ratios"])
    rec = max(manifest.residuals["velocity_recovery_rel"])
    ok = ratio <= 0.6 and rec < 0.01
    report(capsys, 10, ok,
           f"half-field residual ratio {ratio:.3f} (target <= 0.6); "
           f"trajectory recovery {rec:.1e} (target < 1e-2)")


def test_criterion_11_unitarity_lemma(capsys):
    f = GaussianSolutionPhi(1.0)
    g = GaussianSolutionPhi(1.4)
    fv = lambda x, s: complex(f.value(x, s))
    gv = lambda x, s: complex(g.value(x, s))
    x = np.array([0.2, 0.3, -0.1, 0.15])
    res = [unitarity_lemma_residual(fv, gv, None, x, 0.3, h)
           for h in (2e-2, 1e-2, 5e-3)]
    ratios = (res[0] / res[1], res[1] / res[2])
    bad = lambda xx, s: complex(g.value(xx, s)) \
        * (1 + 0.3 * float(np.asarray(xx)[1]) ** 2)
    detuned = [unitarity_lemma_residual(fv, bad, None, x, 0.3, h)
               for h in (2e-2, 1e-2)]
    ok = min(ratios) >= 3.5 and min(detuned) > 1e-2 \
        and detuned[1] / detuned[0] > 0.9
    report(capsys, 11, ok,
           f"step-halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
           f"(target >= 3.5); detuned control stuck at {min(detuned):.2f}")


def test_criterion_12_determinism(capsys, tmp_path):
    params = {
        "worldline": {"u": [1, 0, 0, 0], "s_span": [-50, 50], "n": 1001,
                      "q": 1.0},
        "grid": {"origin": [0, -0.5, -0.5, -0.5],
                 "spacings": [0.5, 0.5, 0.5, 0.5], "extents": [1, 3, 3, 3]},
    }
    scenario = Scenario(kind="lw-field-map", parameters=params)
    outs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 2)):
        run_scenario(scenario, tmp_path / name, workers=workers)
        outs.append((tmp_path / name / "fields.csv").read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    report(capsys, 12, ok,
           "byte-identical CSVs across re-runs and worker counts: "
           f"{ok}")
