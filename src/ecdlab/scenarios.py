"""Declarative scenario runner: JSON configs in, CSV data and a JSON manifest out.

Every scenario kind owns a schema (unknown keys are errors), a runner, and a
CSV column contract documented in the runner docstring.  Data files carry no
timestamps and use fixed summation orders, so identical configs reproduce
byte-identical CSVs; wall-clock metadata lives only in the manifest.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import jsonschema

from . import __version__
from .minkowski import as_four
from .dynamics import (FieldProvider, IntegratorConfig, Trajectory,
                       integrate_worldline, step_count)
from .grids import DepositError, DepositKernel, EventGrid, grid_charge
from .em_sources import deposit_electric_current, lw_fields
from .ecd_core import (EcdPair, calibrate, classical_phase_gradient_check,
                       consistency_residual, constant_field_pair, integrate_guiding)
from .ecd_currents import (_smeared_remainder, charge_tail, divergent_coefficient,
                           fit_loglog_slope, free_charge_j0)

SCHEMA_VERSION = "1"
OUT_DIR_ENV = "ECDLAB_OUT_DIR"
_FREE_ECD_S_MAX = 50.0          # default s'-window of free-ecd
_LW_FD_STEP = 1e-4              # default finite-difference step of lw-field-map
_SWEEP_S_MAX = 10.0             # s'-window of classical-limit-sweep
_SWEEP_SPAN = 2 * _SWEEP_S_MAX + 5  # worldline half-span of classical-limit-sweep, from s = 0
_SWEEP_EPSILON = 1e-2           # default epsilon of classical-limit-sweep
_SWEEP_STEP = 1e-2              # default RK4 step of classical-limit-sweep
_TAIL_WINDOW_X = (5.0, 60.0)    # default fit window of current-regularization, r / sqrt(eps)
_SMEAR_WIDTH_X = 2.0            # default radial smear width of current-regularization

SCENARIO_KINDS = (
    "classical-orbit",
    "lw-field-map",
    "conservation-audit",
    "free-ecd",
    "guiding-run",
    "classical-limit-sweep",
    "current-regularization",
)


class ScenarioValidationError(ValueError):
    """Config fails schema or semantic validation; carries all diagnostics."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


class NumericFailure(ArithmeticError):
    """A computation blew up or a precondition failed mid-run."""


class AccuracyFailure(AssertionError):
    """A residual exceeded the tolerance declared in the scenario."""


# ---------------------------------------------------------------------------
# schemas


def _num(minimum=None, exclusive_minimum=None):
    s = {"type": "number"}
    if minimum is not None:
        s["minimum"] = minimum
    if exclusive_minimum is not None:
        s["exclusiveMinimum"] = exclusive_minimum
    return s


def _arr(n, item=None):
    return {"type": "array", "items": item or {"type": "number"},
            "minItems": n, "maxItems": n}


_GRID_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["origin", "spacings", "extents"],
    "properties": {
        "origin": _arr(4),
        "spacings": _arr(4, _num(exclusive_minimum=0)),
        "extents": _arr(4, {"type": "integer", "minimum": 1}),
    },
}

_WORLDLINE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["u"],
    "properties": {
        "u": _arr(4),
        "x0": _arr(4),
        "s_span": _arr(2),
        "n": {"type": "integer", "minimum": 2},
        "q": {"type": "number"},
    },
}

_PARAM_SCHEMAS = {
    "classical-orbit": {
        "type": "object",
        "additionalProperties": False,
        "required": ["electric", "magnetic", "charge", "x0", "u0", "s_span",
                     "step", "tolerance"],
        "properties": {
            "electric": _arr(3),
            "magnetic": _arr(3),
            "charge": {"type": "number"},
            "x0": _arr(4),
            "u0": _arr(4),
            "s_span": _arr(2),
            "step": _num(exclusive_minimum=0),
            "tolerance": _num(exclusive_minimum=0),
        },
    },
    "lw-field-map": {
        "type": "object",
        "additionalProperties": False,
        "required": ["worldline", "grid"],
        "properties": {
            "worldline": _WORLDLINE_SCHEMA,
            "grid": _GRID_SCHEMA,
            "fd_step": _num(exclusive_minimum=0),
        },
    },
    "conservation-audit": {
        "type": "object",
        "additionalProperties": False,
        "required": ["worldlines", "grid", "tolerance"],
        "properties": {
            "worldlines": {"type": "array", "items": _WORLDLINE_SCHEMA,
                           "minItems": 1},
            "grid": _GRID_SCHEMA,
            "kernel": {"type": "string", "enum": ["nearest", "trilinear"]},
            "tolerance": _num(exclusive_minimum=0),
        },
    },
    "free-ecd": {
        "type": "object",
        "additionalProperties": False,
        "required": ["epsilons", "tolerance_factor"],
        "properties": {
            "epsilons": {"type": "array", "items": _num(exclusive_minimum=0),
                         "minItems": 1},
            "s_max": _num(exclusive_minimum=0),
            "u": _arr(4),
            "c0": {"type": "number"},
            "tolerance_factor": _num(exclusive_minimum=0),
        },
    },
    "guiding-run": {
        "type": "object",
        "additionalProperties": False,
        "required": ["packet", "s_span", "steps", "tolerance"],
        "properties": {
            "packet": {
                "type": "object",
                "additionalProperties": False,
                "required": ["M_diag", "x0", "u"],
                "properties": {
                    "M_diag": _arr(4, _num(exclusive_minimum=0)),
                    "x0": _arr(4),
                    "u": _arr(4),
                    "wobble_amp": _arr(4),
                    "wobble_freq": {"type": "number"},
                },
            },
            "s_span": _arr(2),
            "steps": {"type": "integer", "minimum": 2},
            "fd_step": _num(exclusive_minimum=0),
            "tolerance": _num(exclusive_minimum=0),
        },
    },
    "classical-limit-sweep": {
        "type": "object",
        "additionalProperties": False,
        "required": ["electric", "factors", "ratio_bound"],
        "properties": {
            "electric": _arr(3),
            "charge": {"type": "number"},
            "u0": _arr(4),
            "s_span": _arr(2),
            "step": _num(exclusive_minimum=0),
            "factors": {"type": "array", "items": _num(exclusive_minimum=0),
                        "minItems": 2},
            "epsilon": _num(exclusive_minimum=0),
            "ratio_bound": _num(exclusive_minimum=0),
        },
    },
    "current-regularization": {
        "type": "object",
        "additionalProperties": False,
        "required": ["epsilon", "c0", "charge"],
        "properties": {
            "epsilon": _num(exclusive_minimum=0),
            "epsilons_collapse": {"type": "array",
                                  "items": _num(exclusive_minimum=0)},
            "c0": {"type": "number"},
            "charge": {"type": "number"},
            "tail_window_x": _arr(2, _num(exclusive_minimum=0)),
            "smear_width_x": _num(exclusive_minimum=0),
            "slope_tolerance": _num(exclusive_minimum=0),
        },
    },
}

_TOP_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "kind", "parameters"],
    "properties": {
        "schema_version": {"type": "string", "enum": [SCHEMA_VERSION]},
        "kind": {"type": "string", "enum": list(SCENARIO_KINDS)},
        "parameters": {"type": "object"},
    },
}


@dataclass(frozen=True)
class Scenario:
    kind: str
    parameters: dict


@dataclass
class RunManifest:
    kind: str
    scenario: dict
    tool_version: str
    wall_time_s: float
    tolerances: dict
    residuals: dict
    outputs: list
    timestamp: str
    schema_version: str = SCHEMA_VERSION

    def to_json(self) -> str:
        return strict_json(self.__dict__, indent=2, sort_keys=True)


def _finite_only(obj):
    """(obj with each non-finite float set to None, its "inf"/"-inf"/"nan" tags).

    A dict gains a sibling "<key>_nonfinite" for each entry that has tags; a
    list's tags are a list, None for each entry that needs none.
    """
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            out[key], tag = _finite_only(value)
            if tag is not None:
                out[f"{key}_nonfinite"] = tag
        return out, None
    if isinstance(obj, (list, tuple)):
        pairs = [_finite_only(v) for v in obj]
        tags = [t for _, t in pairs]
        return [v for v, _ in pairs], None if all(t is None for t in tags) else tags
    if isinstance(obj, float) and not math.isfinite(obj):
        return None, "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj, None


def strict_json(obj, **kwargs) -> str:
    """json.dumps without NaN or Infinity tokens: see _finite_only."""
    return json.dumps(_finite_only(obj)[0], allow_nan=False, **kwargs)


def validate_config(doc) -> list:
    """Schema, then semantic, diagnostics; empty list means valid."""
    diags = []
    validator = jsonschema.Draft202012Validator(_TOP_SCHEMA)
    for err in sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path)):
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        if list(err.absolute_path) == ["kind"]:
            diags.append(f"kind: must be one of {', '.join(SCENARIO_KINDS)}")
        else:
            diags.append(f"{path}: {err.message}")
    if diags:
        return diags
    kind = doc["kind"]
    pvalidator = jsonschema.Draft202012Validator(_PARAM_SCHEMAS[kind])
    for err in sorted(pvalidator.iter_errors(doc["parameters"]),
                      key=lambda e: list(e.absolute_path)):
        path = "parameters." + ".".join(str(p) for p in err.absolute_path)
        diags.append(f"{path.rstrip('.')}: {err.message}")
    if diags:
        return diags
    diags = [f"{path}: an integer beyond the float range"
             for path in _float_overflows(doc["parameters"], "parameters")]
    return diags or _semantic_diagnostics(kind, doc["parameters"])


def _float_overflows(obj, path) -> list:
    """Paths of the JSON integers under obj that no float can hold."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [bad for key, value in items
                for bad in _float_overflows(value, f"{path}.{key}")]
    return [path] if isinstance(obj, int) and abs(obj) > sys.float_info.max else []


def _semantic_diagnostics(kind, p) -> list:
    """Constraints between schema-valid values that the schema cannot state."""
    if kind in ("classical-orbit", "classical-limit-sweep"):
        span = p["s_span"] if kind == "classical-orbit" else (0.0, _SWEEP_SPAN)
        try:
            step_count(span, p.get("step", _SWEEP_STEP))
        except ValueError as exc:
            return [f"parameters.step: {exc}"]
    if kind == "free-ecd":
        s_max, eps = p.get("s_max", _FREE_ECD_S_MAX), max(p["epsilons"])
        if s_max <= eps:
            return [f"parameters.s_max: {s_max:g} must exceed the largest "
                    f"epsilon {eps:g}"]
        return _calibration_diagnostics(p, ("epsilons",), s_max=s_max)
    if kind == "classical-limit-sweep":
        f = p["factors"]
        # the runner's residual ratios compare each factor with a stronger one
        diags = [] if all(a > b for a, b in zip(f, f[1:])) else [
            f"parameters.factors: {f} must strictly decrease (weakening field)"]
        return diags + _calibration_diagnostics(p, ("epsilon",), s_max=_SWEEP_S_MAX)
    if kind == "current-regularization":
        diags = [f"parameters.{name}: must be nonzero, or the profile vanishes "
                 f"and has no power law" for name in ("c0", "charge") if p[name] == 0]
        diags += _calibration_diagnostics(p, ("epsilon", "epsilons_collapse"))
        # the profile scales with q |c0/eps|^2 sqrt(eps), which must not over- or
        # underflow; numpy turns a float overflow into inf instead of raising
        for eps in [] if diags else [p["epsilon"], *p.get("epsilons_collapse", [])]:
            with np.errstate(all="ignore"):
                amp = p["charge"] * np.float64(p["c0"] / eps) ** 2 * np.sqrt(eps)
            if not (np.isfinite(amp) and amp != 0):
                diags.append(f"parameters.c0: the profile amplitude charge |c0/epsilon|^2 "
                             f"sqrt(epsilon) is {amp:g} at epsilon {eps:g}")
        low = min(p.get("tail_window_x", _TAIL_WINDOW_X))
        width = p.get("smear_width_x", _SMEAR_WIDTH_X)
        if low <= width / 2:
            diags.append(f"parameters.tail_window_x: {low:g} must exceed half the "
                         f"smear width {width / 2:g}, so that every smeared radius is positive")
        return diags
    if kind == "lw-field-map":
        worldlines = {"worldline": p["worldline"]}
    elif kind == "conservation-audit":
        worldlines = {f"worldlines.{i}": wl for i, wl in enumerate(p["worldlines"])}
    else:
        return []
    diags, trajs = [], {}
    for path, wl in worldlines.items():
        try:        # s_span and n must give strictly increasing samples
            trajs[path] = _traj_from(wl)
        except ValueError as exc:
            diags.append(f"parameters.{path}.s_span: {exc}")
    if kind == "conservation-audit" and not diags:
        # the runner's deposit: each worldline must cross every slice inside the grid
        grid = _grid_from(p["grid"])
        kernel = DepositKernel(p.get("kernel", "trilinear"))
        for path, traj in trajs.items():
            try:
                deposit_electric_current(traj, grid, kernel)
            except DepositError as exc:
                diags.append(f"parameters.{path}: {exc}")
    return diags


def _calibration_diagnostics(p, names, **calibration) -> list:
    """Each epsilon under names must build the calibration that its runner
    builds: below the s'-window s_max and with a finite N."""
    diags = []
    for name in names:
        for eps in np.atleast_1d(p.get(name, [])):
            try:
                calibrate(float(eps), **calibration)
            except ValueError as exc:
                diags.append(f"parameters.{name}: {exc}")
    return diags


def validate_file(path) -> list:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"parse failure at line {exc.lineno} column {exc.colno}: {exc.msg}"]
    return validate_config(doc)


def load_scenario(path, overrides=()) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ScenarioValidationError([f"cannot read {path}: {exc}"])
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError(
            [f"parse failure at line {exc.lineno} column {exc.colno}: {exc.msg}"])
    for key, raw in overrides:
        node = doc
        parts = key.split(".")
        for p in parts[:-1]:
            if not isinstance(node, dict) or p not in node:
                raise ScenarioValidationError([f"override path {key!r} not in config"])
            node = node[p]
        if not isinstance(node, dict) or parts[-1] not in node:
            raise ScenarioValidationError([f"override path {key!r} not in config"])
        try:
            node[parts[-1]] = json.loads(raw)
        except json.JSONDecodeError:
            node[parts[-1]] = raw
    diags = validate_config(doc)
    if diags:
        raise ScenarioValidationError(diags)
    return Scenario(kind=doc["kind"], parameters=doc["parameters"])


# ---------------------------------------------------------------------------
# CSV helpers: repr() round-trips doubles exactly


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (int, float, np.floating))
                        else str(v) for v in row])


def _grid_from(params) -> EventGrid:
    return EventGrid(origin=params["origin"], spacings=params["spacings"],
                     extents=tuple(params["extents"]))


def _traj_from(wl) -> Trajectory:
    return Trajectory.uniform(wl["u"], x0=wl.get("x0", (0, 0, 0, 0)),
                              s_span=tuple(wl.get("s_span", (-10.0, 10.0))),
                              n=wl.get("n", 201), q=wl.get("q", 1.0))


# ---------------------------------------------------------------------------
# per-kind runners


def _run_classical_orbit(p, out: Path):
    """trajectory.csv columns: s, gamma0..3, gamma_dot0..3, norm2_drift."""
    from .minkowski import AntisymTensor

    F = AntisymTensor.from_fields(p["electric"], p["magnetic"])
    cfg = IntegratorConfig(step=p["step"], tolerance=p["tolerance"])
    traj = integrate_worldline((p["x0"], p["u0"]), FieldProvider.constant(np.asarray(F)),
                               p["charge"], tuple(p["s_span"]), cfg)
    n2 = traj.norm2_samples()
    drift = np.abs(n2 - n2[0])
    rows = [[traj.s[i], *traj.gammas[i], *traj.gamma_dots[i], drift[i]]
            for i in range(traj.s.size)]
    _write_csv(out / "trajectory.csv",
               ["s"] + [f"gamma{m}" for m in range(4)]
               + [f"gamma_dot{m}" for m in range(4)] + ["norm2_drift"], rows)
    residuals = {"norm2_drift_max": float(drift.max())}
    if drift.max() >= p["tolerance"]:
        raise AccuracyFailure(f"norm2 drift {drift.max():g} >= tolerance {p['tolerance']:g}")
    return residuals, {"tolerance": p["tolerance"]}, ["trajectory.csv"]


def _run_lw_field_map(p, out: Path):
    """fields.csv columns: t,x,y,z, A0..3, E1..3, B1..3 (NaN where uncovered)."""
    traj = _traj_from(p["worldline"])
    grid = _grid_from(p["grid"])
    pts = grid.points().reshape(-1, 4)
    h = p.get("fd_step", _LW_FD_STEP)
    A, F, covered = lw_fields(pts, traj, h)
    E = F[:, 1:, 0]
    B = -F[:, [2, 3, 1], [3, 1, 2]]
    vals = np.hstack([A, E, B])
    vals[~covered] = np.nan
    _write_csv(out / "fields.csv",
               ["t", "x", "y", "z"] + [f"A{m}" for m in range(4)]
               + ["E1", "E2", "E3", "B1", "B2", "B3"], np.hstack([pts, vals]))
    residuals = {"covered_points": int(covered.sum()), "total_points": len(pts)}
    # Coulomb cross-check when the worldline is at rest
    u = as_four(p["worldline"]["u"])
    if np.all(u[1:] == 0.0) and covered.any():
        x0 = as_four(p["worldline"].get("x0", (0, 0, 0, 0)))
        r = np.linalg.norm(pts[:, 1:] - x0[1:], axis=1)
        far = covered & (r > 3 * max(grid.spacings[1:]))
        if far.any():
            q = p["worldline"].get("q", 1.0)
            coulomb = q / (4 * np.pi * r[far])
            residuals["coulomb_max_rel_error"] = float(
                (np.abs(A[far, 0] - coulomb) / np.abs(coulomb)).max())
    return residuals, {"fd_step": h}, ["fields.csv"]


def _run_conservation_audit(p, out: Path):
    """charges.csv columns: slice_index, t, then one charge column per worldline."""
    grid = _grid_from(p["grid"])
    kernel = DepositKernel(p.get("kernel", "trilinear"))
    trajs = [_traj_from(wl) for wl in p["worldlines"]]
    currents = [deposit_electric_current(t, grid, kernel) for t in trajs]
    n_t = grid.extents[0]
    charge_table = [[grid_charge(j, k) for j in currents] for k in range(n_t)]
    rows = [[k, grid.axis(0)[k]] + charge_table[k] for k in range(n_t)]
    _write_csv(out / "charges.csv",
               ["slice", "t"] + [f"charge{i}" for i in range(len(trajs))], rows)
    spreads = [max(col) - min(col) for col in zip(*charge_table)]
    residuals = {"charge_spread_max": float(max(spreads)),
                 "charge_spreads": [float(s) for s in spreads]}
    if max(spreads) > p["tolerance"]:
        raise AccuracyFailure(
            f"slice-charge spread {max(spreads):g} > tolerance {p['tolerance']:g}")
    return residuals, {"tolerance": p["tolerance"]}, ["charges.csv"]


def _run_free_ecd(p, out: Path):
    """consistency.csv columns: epsilon, N, residual, tail_bound."""
    u = tuple(p.get("u", (1.0, 0.0, 0.0, 0.0)))
    c0 = p.get("c0", 1.0)
    s_max = p.get("s_max", _FREE_ECD_S_MAX)
    s_samples = np.linspace(-2.0, 2.0, 5)
    rows = []
    residuals = {"by_epsilon": {}}
    worst = 0.0
    for eps in p["epsilons"]:
        cal = calibrate(eps, s_max=s_max)
        pair = EcdPair.free(u, cal, C=c0)
        res = consistency_residual(pair, s_samples)
        tail_bound = eps / s_max
        rows.append([eps, cal.N, res, tail_bound])
        residuals["by_epsilon"][repr(float(eps))] = {
            "N": cal.N, "residual": float(res), "tail_bound": tail_bound}
        worst = max(worst, res / eps)
    _write_csv(out / "consistency.csv", ["epsilon", "N", "residual", "tail_bound"], rows)
    residuals["max_residual_over_epsilon"] = float(worst)
    if worst > p["tolerance_factor"]:
        raise AccuracyFailure(
            f"consistency residual / epsilon = {worst:g} > {p['tolerance_factor']:g}")
    return residuals, {"tolerance_factor": p["tolerance_factor"], "s_max": s_max}, \
        ["consistency.csv"]


def _run_guiding_run(p, out: Path):
    """guiding.csv columns: s, gamma0..3, center0..3, deviation."""
    pk = p["packet"]
    M = np.diag(pk["M_diag"])
    x0 = as_four(pk["x0"])
    u = as_four(pk["u"])
    amp = as_four(pk.get("wobble_amp", (0.0, 0.0, 0.0, 0.0)))
    freq = pk.get("wobble_freq", 1.0)

    def center(s):
        return x0 + u * s + amp * np.sin(freq * s)

    def packet_phi(x, s):
        # integrate_guiding squares this amplitude to get |phi|^2 = e^{-d M d}
        d = np.asarray(x, dtype=float) - center(s)
        return float(np.exp(-0.5 * d @ M @ d))

    s0, s1 = p["s_span"]
    fd = p.get("fd_step", 1e-3)
    states, event = integrate_guiding(packet_phi, center(s0), (s0, s1),
                                      p["steps"], h=fd)
    rows = []
    devs = []
    for st in states:
        c = center(st.s)
        dev = float(np.linalg.norm(st.gamma - c))
        devs.append(dev)
        rows.append([st.s, *st.gamma, *c, dev])
    _write_csv(out / "guiding.csv",
               ["s"] + [f"gamma{m}" for m in range(4)]
               + [f"center{m}" for m in range(4)] + ["deviation"], rows)
    residuals = {"max_deviation": float(max(devs)),
                 "violent_event": None if event is None else
                 {"s": event.s, "condition_number": event.condition_number}}
    if max(devs) > p["tolerance"]:
        raise AccuracyFailure(f"guiding deviation {max(devs):g} > {p['tolerance']:g}")
    return residuals, {"tolerance": p["tolerance"], "fd_step": fd}, ["guiding.csv"]


def _run_classical_limit_sweep(p, out: Path):
    """sweep.csv columns: factor, phase_gradient_residual."""
    from .minkowski import AntisymTensor

    F_base = np.asarray(AntisymTensor.from_fields(p["electric"], (0, 0, 0)))
    q = p.get("charge", 1.0)
    u0 = as_four(p.get("u0", (1.0, 0.0, 0.0, 0.0)))
    s_span = tuple(p.get("s_span", (-1.0, 1.0)))
    step = p.get("step", _SWEEP_STEP)
    eps = p.get("epsilon", _SWEEP_EPSILON)
    s_max = _SWEEP_S_MAX
    cal = calibrate(eps, s_max=s_max)
    s_samples = np.linspace(s_span[0], s_span[1], 2)
    rows = []
    res_list = []
    rec_list = []
    for fac in p["factors"]:
        F = fac * F_base
        pair = constant_field_pair(F, u0, cal, q=q, step=step,
                                   s_span=(-_SWEEP_SPAN, _SWEEP_SPAN))
        resid, rec = classical_phase_gradient_check(pair, F, q, s_samples,
                                                    with_recovery=True)
        rows.append([fac, resid, rec])
        res_list.append(float(resid))
        rec_list.append(float(rec))
    _write_csv(out / "sweep.csv",
               ["factor", "phase_gradient_residual", "velocity_recovery_rel"], rows)
    ratios = [res_list[i + 1] / res_list[i] for i in range(len(res_list) - 1)
              if res_list[i] > 0]
    residuals = {"residuals": res_list, "ratios": ratios,
                 "velocity_recovery_rel": rec_list}
    bound = p["ratio_bound"]
    # factors strictly decrease (validated); each halving of the field should
    # shrink the residual by at least the declared ratio bound
    if ratios and max(ratios) > bound:
        raise AccuracyFailure(f"residual ratio {max(ratios):g} > bound {bound:g}")
    return residuals, {"ratio_bound": bound, "epsilon": eps}, ["sweep.csv"]


def _run_current_regularization(p, out: Path):
    """profile.csv columns: r, j0, tail, remainder, smeared_remainder."""
    eps = p["epsilon"]
    c0 = p["c0"]
    q = p["charge"]
    cal = calibrate(eps)
    C = c0 / eps
    xw = tuple(p.get("tail_window_x", _TAIL_WINDOW_X))
    smear_x = p.get("smear_width_x", _SMEAR_WIDTH_X)
    sq = np.sqrt(eps)
    xs = np.geomspace(xw[0], xw[1], 14)
    rs = xs * sq
    j0 = free_charge_j0(rs, (1, 0, 0, 0), C, cal, q)
    tail = charge_tail(rs, C, cal, q)
    remainder = j0 - tail
    smeared = _smeared_remainder("charge", C, cal, q, rs, smear_x * sq)
    rows = [[rs[i], j0[i], tail[i], remainder[i], smeared[i]] for i in range(len(rs))]
    _write_csv(out / "profile.csv", ["r", "j0", "tail", "remainder",
                                     "smeared_remainder"], rows)
    tail_slope, _ = fit_loglog_slope(rs, j0)
    sub_slope, _ = fit_loglog_slope(rs, smeared)
    residuals = {"tail_slope": float(tail_slope),
                 "subtracted_slope": float(sub_slope),
                 "fit_window_r": [float(rs[0]), float(rs[-1])],
                 "divergent_coefficient": divergent_coefficient(C, cal, q)}
    collapse = p.get("epsilons_collapse")
    if collapse:
        base = j0 / (q * abs(C) ** 2 * sq)
        worst = 0.0
        for e2 in collapse:
            cal2 = calibrate(e2)
            C2 = c0 / e2
            r2 = xs * np.sqrt(e2)
            prof = free_charge_j0(r2, (1, 0, 0, 0), C2, cal2, q) \
                / (q * abs(C2) ** 2 * np.sqrt(e2))
            worst = max(worst, float(np.abs(prof / base - 1.0).max()))
        residuals["collapse_max_rel"] = worst
    tol = p.get("slope_tolerance", 0.5)
    if abs(tail_slope + 1.0) > 0.02 or abs(sub_slope + 5.0) > tol:
        raise AccuracyFailure(
            f"slopes tail={tail_slope:.3f} subtracted={sub_slope:.3f} outside bounds")
    return residuals, {"slope_tolerance": tol, "smear_width_x": smear_x}, ["profile.csv"]


_RUNNERS = {
    "classical-orbit": _run_classical_orbit,
    "lw-field-map": _run_lw_field_map,
    "conservation-audit": _run_conservation_audit,
    "free-ecd": _run_free_ecd,
    "guiding-run": _run_guiding_run,
    "classical-limit-sweep": _run_classical_limit_sweep,
    "current-regularization": _run_current_regularization,
}


def run_scenario(scenario: Scenario, out_dir, workers: Optional[int] = None) -> RunManifest:
    """Run one scenario into out_dir; workers is accepted and ignored (no pools).

    Every numeric error of the library is an ArithmeticError; those and
    LinAlgError become a NumericFailure (exit 3)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    try:
        residuals, tolerances, outputs = _RUNNERS[scenario.kind](scenario.parameters, out)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        raise NumericFailure(str(exc)) from exc
    manifest = RunManifest(
        kind=scenario.kind,
        scenario={"kind": scenario.kind, "parameters": scenario.parameters,
                  "schema_version": SCHEMA_VERSION},
        tool_version=__version__,
        wall_time_s=time.time() - t0,
        tolerances=tolerances,
        residuals=residuals,
        outputs=outputs,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
    (out / "manifest.json").write_text(manifest.to_json() + "\n")
    return manifest
