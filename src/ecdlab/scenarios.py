"""Declarative scenario runner: JSON configs in, CSV data and a JSON manifest out.

Every scenario kind owns a schema (unknown keys are errors), its defaults in
_DEFAULTS, a set-up that validation and the run share (_prepare), a runner,
and a CSV column contract documented in the runner docstring.  Data files carry no
timestamps and use fixed summation orders, so identical configs reproduce
byte-identical CSVs; wall-clock metadata lives only in the manifest.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .minkowski import AntisymTensor, as_four
from .dynamics import IntegratorConfig, Trajectory, integrate_worldline, step_count
from .grids import DepositError, DepositKernel, EventGrid, grid_charge
from .em_sources import deposit_electric_current, lw_fields
from .ecd_core import (EcdPair, calibrate, classical_phase_gradient_check,
                       consistency_residual, constant_field_pair, integrate_guiding)
from .ecd_currents import (SMEAR_WIDTH_X, TAIL_WINDOW_X, charge_tail,
                           divergent_coefficient, fit_loglog_slope, fit_radii,
                           free_charge_j0, smeared_remainder)

SCHEMA_VERSION = "1"
OUT_DIR_ENV = "ECDLAB_OUT_DIR"
_SWEEP_S_MAX = 10.0             # s'-window of classical-limit-sweep
_SWEEP_SPAN = 2 * _SWEEP_S_MAX + 5  # worldline half-span of classical-limit-sweep, from s = 0

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
    """Config fails the schema or the run's set-up; carries the diagnostics."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


class NumericFailure(ArithmeticError):
    """A computation blew up or a precondition failed mid-run."""


class AccuracyFailure(AssertionError):
    """A residual exceeded the tolerance declared in the scenario."""


# ---------------------------------------------------------------------------
# schemas


_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
# no value meets it: as additionalProperties it fails each unknown key at its own
# path (_walk reports "not a known key" there, as a JSON Schema validator would)
_CLOSED = {"not": {}}


def _arr(n, item=None):
    return {"type": "array", "items": item or {"type": "number"},
            "minItems": n, "maxItems": n}


_GRID_SCHEMA = {
    "type": "object",
    "additionalProperties": _CLOSED,
    "required": ["origin", "spacings", "extents"],
    "properties": {
        "origin": _arr(4),
        "spacings": _arr(4, _POSITIVE),
        "extents": _arr(4, {"type": "integer", "minimum": 1}),
    },
}

_WORLDLINE_SCHEMA = {
    "type": "object",
    "additionalProperties": _CLOSED,
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
        "additionalProperties": _CLOSED,
        "required": ["electric", "magnetic", "charge", "x0", "u0", "s_span",
                     "step", "tolerance"],
        "properties": {
            "electric": _arr(3),
            "magnetic": _arr(3),
            "charge": {"type": "number"},
            "x0": _arr(4),
            "u0": _arr(4),
            "s_span": _arr(2),
            "step": _POSITIVE,
            "tolerance": _POSITIVE,
        },
    },
    "lw-field-map": {
        "type": "object",
        "additionalProperties": _CLOSED,
        "required": ["worldline", "grid"],
        "properties": {
            "worldline": _WORLDLINE_SCHEMA,
            "grid": _GRID_SCHEMA,
        },
    },
    "conservation-audit": {
        "type": "object",
        "additionalProperties": _CLOSED,
        "required": ["worldlines", "grid", "tolerance"],
        "properties": {
            "worldlines": {"type": "array", "items": _WORLDLINE_SCHEMA,
                           "minItems": 1},
            "grid": _GRID_SCHEMA,
            "kernel": {"type": "string", "enum": ["nearest", "trilinear"]},
            "tolerance": _POSITIVE,
        },
    },
    "free-ecd": {
        "type": "object",
        "additionalProperties": _CLOSED,
        "required": ["epsilons", "tolerance_factor"],
        "properties": {
            "epsilons": {"type": "array", "items": _POSITIVE,
                         "minItems": 1},
            "s_max": _POSITIVE,
            "u": _arr(4),
            "c0": {"type": "number"},
            "tolerance_factor": _POSITIVE,
        },
    },
    "guiding-run": {
        "type": "object",
        "additionalProperties": _CLOSED,
        "required": ["packet", "s_span", "steps", "tolerance"],
        "properties": {
            "packet": {
                "type": "object",
                "additionalProperties": _CLOSED,
                "required": ["M_diag", "x0", "u"],
                "properties": {
                    "M_diag": _arr(4, _POSITIVE),
                    "x0": _arr(4),
                    "u": _arr(4),
                    "wobble_amp": _arr(4),
                    "wobble_freq": {"type": "number"},
                },
            },
            "s_span": _arr(2),
            "steps": {"type": "integer", "minimum": 2},
            "fd_step": _POSITIVE,
            "tolerance": _POSITIVE,
        },
    },
    "classical-limit-sweep": {
        "type": "object",
        "additionalProperties": _CLOSED,
        "required": ["electric", "factors", "ratio_bound"],
        "properties": {
            "electric": _arr(3),
            "charge": {"type": "number"},
            "u0": _arr(4),
            "s_span": _arr(2),
            "step": _POSITIVE,
            "factors": {"type": "array", "items": _POSITIVE,
                        "minItems": 2},
            "epsilon": _POSITIVE,
            "ratio_bound": _POSITIVE,
        },
    },
    "current-regularization": {
        "type": "object",
        "additionalProperties": _CLOSED,
        "required": ["epsilon", "c0", "charge"],
        "properties": {
            "epsilon": _POSITIVE,
            "epsilons_collapse": {"type": "array",
                                  "items": _POSITIVE},
            "c0": {"type": "number"},
            "charge": {"type": "number"},
            "tail_window_x": _arr(2, _POSITIVE),
            "smear_width_x": _POSITIVE,
            "slope_tolerance": _POSITIVE,
        },
    },
}

_WORLDLINE_DEFAULTS = {"x0": (0.0, 0.0, 0.0, 0.0), "s_span": (-10.0, 10.0), "n": 201,
                       "q": 1.0}

# The value of each optional parameter a config leaves out.  A nested table
# fills the object under its key, or each object of the array under it.
_DEFAULTS = {
    "classical-orbit": {},
    "lw-field-map": {"worldline": _WORLDLINE_DEFAULTS},
    "conservation-audit": {"worldlines": _WORLDLINE_DEFAULTS, "kernel": "trilinear"},
    "free-ecd": {"s_max": 50.0, "u": (1.0, 0.0, 0.0, 0.0), "c0": 1.0},
    "guiding-run": {"packet": {"wobble_amp": (0.0, 0.0, 0.0, 0.0), "wobble_freq": 1.0},
                    "fd_step": 1e-3},
    "classical-limit-sweep": {"charge": 1.0, "u0": (1.0, 0.0, 0.0, 0.0),
                              "s_span": (-1.0, 1.0), "step": 1e-2, "epsilon": 1e-2},
    "current-regularization": {"epsilons_collapse": (), "tail_window_x": TAIL_WINDOW_X,
                               "smear_width_x": SMEAR_WIDTH_X, "slope_tolerance": 0.5},
}

_TOP_SCHEMA = {
    "type": "object",
    "additionalProperties": _CLOSED,
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
    """Diagnostics of a config document; an empty list means valid."""
    try:
        _set_up(doc)
    except ScenarioValidationError as exc:
        return exc.diagnostics
    return []


def _set_up(doc) -> dict:
    """The set-up of a config document: past the top-level schema, validation
    is the run's own set-up (see _prepare).  Raises ScenarioValidationError."""
    diags = [f"kind: must be one of {', '.join(SCENARIO_KINDS)}" if path == "kind"
             else f"{path}: {message}" for path, message in _schema_errors(_TOP_SCHEMA, doc)]
    if diags:
        raise ScenarioValidationError(diags)
    return _prepare(doc["kind"], doc["parameters"])


def _prepare(kind, params) -> dict:
    """The set-up of a run: params checked against kind's schema, completed
    from _DEFAULTS, then given the objects kind's runner takes.  It runs no
    worldline, quadrature, field solve or profile, so validation stays cheap.

    Raises ScenarioValidationError with every schema diagnostic, or else with
    the first value the set-up rejects."""
    diags = [f"{path}: {message}" for path, message
             in _schema_errors(_PARAM_SCHEMAS[kind], params, "parameters")]
    diags = diags or [f"{path}: an integer beyond the float range"
                      for path in _float_overflows(params, "parameters")]
    if diags:
        raise ScenarioValidationError(diags)
    return _PREPARERS[kind](_with_defaults(params, _DEFAULTS[kind]))


# the keywords _walk knows (it visits them in this order)
_KEYWORDS = frozenset(("type", "enum", "minimum", "exclusiveMinimum", "minItems", "maxItems",
                       "items", "required", "properties", "additionalProperties"))
_TYPES = {"number": numbers.Number, "string": str, "array": list, "object": dict}


def _is_type(instance, name) -> bool:
    """JSON Schema 2020-12's type test: a bool is not a number, and 1.0 is an integer."""
    if isinstance(instance, bool) and name in ("number", "integer"):
        return False
    if name == "integer":
        return isinstance(instance, int) or isinstance(instance, float) and instance.is_integer()
    return isinstance(instance, _TYPES[name])


def _walk(schema, instance, path=()):
    """Yield (path, message) of each error of instance under schema, in
    jsonschema's wording.  A keyword outside _KEYWORDS raises, and so does a
    value of one that the walker would misjudge or word differently: a type
    other than one name of _TYPES or "integer", an enum member that is not a
    string (True == 1 in Python) or a maxItems of 0 ("is expected to be empty")."""
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise ValueError(f"schema keywords {sorted(unknown)} are not validated")
    if (schema.get("type", "integer") not in (*_TYPES, "integer") or schema.get("maxItems") == 0
            or not all(isinstance(member, str) for member in schema.get("enum", ()))):
        raise ValueError(f"schema {schema!r} has a type, enum or maxItems that is not validated")
    if "type" in schema and not _is_type(instance, schema["type"]):
        yield path, f"{instance!r} is not of type {schema['type']!r}"
    if "enum" in schema and instance not in schema["enum"]:
        yield path, f"{instance!r} is not one of {schema['enum']!r}"
    if _is_type(instance, "number"):
        if "minimum" in schema and instance < schema["minimum"]:
            yield path, f"{instance!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and instance <= schema["exclusiveMinimum"]:
            yield path, (f"{instance!r} is less than or equal to the minimum of "
                         f"{schema['exclusiveMinimum']!r}")
    if isinstance(instance, list):
        if len(instance) < schema.get("minItems", 0):
            yield path, f"{instance!r} " + ("should be non-empty" if schema["minItems"] == 1
                                            else "is too short")
        if len(instance) > schema.get("maxItems", math.inf):
            yield path, f"{instance!r} is too long"
        for i, item in enumerate(instance if "items" in schema else ()):
            yield from _walk(schema["items"], item, (*path, i))
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                yield path, f"{key!r} is a required property"
        known = schema.get("properties", {})
        for key, sub in known.items():
            if key in instance:
                yield from _walk(sub, instance[key], (*path, key))
        if "additionalProperties" in schema:
            if schema["additionalProperties"] is not _CLOSED:
                raise ValueError("additionalProperties other than _CLOSED is not validated")
            yield from (((*path, key), "not a known key") for key in instance if key not in known)


def _schema_errors(schema, instance, *prefix) -> list:
    """(path, message) of each schema error of instance, stably sorted by path."""
    errors = sorted(_walk(schema, instance), key=lambda error: error[0])
    return [(".".join(map(str, (*prefix, *path))) or "<root>", message)
            for path, message in errors]


def _float_overflows(obj, path) -> list:
    """Paths of the JSON integers under obj that no float can hold."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [bad for key, value in items
                for bad in _float_overflows(value, f"{path}.{key}")]
    return [path] if isinstance(obj, int) and abs(obj) > sys.float_info.max else []


def _with_defaults(params, defaults) -> dict:
    """A copy of params with each absent key taken from defaults; a nested
    table fills the object under its key, or each object of the array under it."""
    out = dict(params)
    for key, default in defaults.items():
        if isinstance(default, dict):
            value = out[key]
            out[key] = ([_with_defaults(v, default) for v in value] if isinstance(value, list)
                        else _with_defaults(value, default))
        else:
            out.setdefault(key, default)
    return out


def _check(ok, path, message):
    if not ok:
        raise ScenarioValidationError([f"parameters.{path}: {message}"])


def _at(path, build, *args, **kwargs):
    """build(*args, **kwargs); the ValueError or DepositError it raises is
    reported against parameters.<path>."""
    try:
        return build(*args, **kwargs)
    except (ValueError, DepositError) as exc:
        raise ScenarioValidationError([f"parameters.{path}: {exc}"]) from None


def _read_config(path):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ScenarioValidationError([f"cannot read {path}: {exc}"])
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError(
            [f"parse failure at line {exc.lineno} column {exc.colno}: {exc.msg}"])


def validate_file(path) -> list:
    try:
        return validate_config(_read_config(path))
    except ScenarioValidationError as exc:
        return exc.diagnostics


def load_scenario(path, overrides=()) -> Scenario:
    """The config at path, overrides applied, validated."""
    return _load(path, overrides)[0]


def _load(path, overrides=()) -> tuple:
    """load_scenario's Scenario and the set-up (see _prepare) that validated
    it, which _run takes, so that ecdlab run sets its config up once."""
    doc = _read_config(path)
    for key, raw in overrides:
        *parents, last = key.split(".")
        node = doc
        for part in parents:
            node = node.get(part) if isinstance(node, dict) else None
        if not isinstance(node, dict) or last not in node:
            raise ScenarioValidationError([f"override path {key!r} not in config"])
        try:
            node[last] = json.loads(raw)
        except json.JSONDecodeError:
            node[last] = raw
    prepared = _set_up(doc)
    return Scenario(kind=doc["kind"], parameters=doc["parameters"]), prepared


# ---------------------------------------------------------------------------
# CSV helpers: repr() round-trips doubles exactly

# Values per formatted block: only one block's arrays, about 240 bytes a
# value, are alive at a time.  At seed 11, peak RSS of cli-suite (whose
# trajectory.csv has 10,001 rows of 10 values) read 46.2 MB in blocks of
# 8,192 values and 45.5 MB in blocks of 4,096; lw-map (fields.csv, 432 rows
# of 14) read 41.9 MB and 41.5 MB.  The larger blocks write a 10,001 x 10
# body in 29.8 ms against 31.7 ms (2-core x86-64 VM, medians of 40).
_CSV_BLOCK = 8192


def _write_csv(path, header, rows):
    """header, then one CRLF line per row of numbers (an array or nested
    sequences; no caller writes anything else), each as repr(float(v)).

    floattext.csv_rows lays out each block of rows at once in numpy, from
    Schubfach's shortest digits: byte for byte what repr and csv.writer give
    value by value.  It is imported here, so that a run writing no CSV does
    not compile it."""
    from .floattext import csv_rows
    table = np.asarray(rows, dtype=float)
    step = max(1, _CSV_BLOCK // max(1, table.shape[-1]))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(table), step):
            fh.write(csv_rows(table[start:start + step]))


# ---------------------------------------------------------------------------
# per-kind set-up: the parameters with defaults in, the same dict plus the
# objects the runner takes out (see _prepare).  A worldline's failure is its
# s_span's: with n, it must give increasing samples.


def _prepare_classical_orbit(p):
    _at("step", step_count, p["s_span"], p["step"])
    return dict(p, F=np.asarray(AntisymTensor.from_fields(p["electric"], p["magnetic"])),
                cfg=IntegratorConfig(step=p["step"], tolerance=p["tolerance"]))


def _prepare_lw_field_map(p):
    return dict(p, traj=_at("worldline.s_span", Trajectory.uniform, **p["worldline"]),
                grid=EventGrid(**p["grid"]))


def _prepare_conservation_audit(p):
    grid, kernel = EventGrid(**p["grid"]), DepositKernel(p["kernel"])
    trajs = [_at(f"worldlines.{i}.s_span", Trajectory.uniform, **wl)
             for i, wl in enumerate(p["worldlines"])]
    # each worldline must cross every slice inside the grid
    return dict(p, grid=grid, currents=[_at(f"worldlines.{i}", deposit_electric_current,
                                            traj, grid, kernel) for i, traj in enumerate(trajs)])


def _prepare_free_ecd(p):
    s_max, eps = p["s_max"], max(p["epsilons"])
    _check(s_max > eps, "s_max", f"{s_max:g} must exceed the largest epsilon {eps:g}")
    return dict(p, cals=[_at("epsilons", calibrate, e, s_max=s_max) for e in p["epsilons"]])


def _prepare_classical_limit_sweep(p):
    _at("step", step_count, (0.0, _SWEEP_SPAN), p["step"])
    _check(any(p["u0"]), "u0", "is all zero: a worldline that never moves has no "
           "velocity for the phase gradient to recover")
    f = p["factors"]
    # the runner's residual ratios compare each factor with a stronger one
    _check(all(a > b for a, b in zip(f, f[1:])), "factors",
           f"{f} must strictly decrease (weakening field)")
    return dict(p, cal=_at("epsilon", calibrate, p["epsilon"], s_max=_SWEEP_S_MAX),
                F_base=np.asarray(AntisymTensor.from_fields(p["electric"], (0, 0, 0))))


def _prepare_current_regularization(p):
    for name in ("c0", "charge"):
        _check(p[name] != 0, name, "must be nonzero, or the profile vanishes and has no power law")
    cals = [_at("epsilon", calibrate, p["epsilon"])]
    cals += [_at("epsilons_collapse", calibrate, e) for e in p["epsilons_collapse"]]
    # the profile scales with q |c0/eps|^2 sqrt(eps), which must not over- or
    # underflow; numpy turns a float overflow into inf instead of raising
    with np.errstate(all="ignore"):
        amps = [p["charge"] * np.float64(p["c0"] / cal.epsilon) ** 2 * np.sqrt(cal.epsilon)
                for cal in cals]
    for cal, amp in zip(cals, amps):
        _check(np.isfinite(amp) and amp != 0, "c0", f"the profile amplitude charge "
               f"|c0/epsilon|^2 sqrt(epsilon) is {amp:g} at epsilon {cal.epsilon:g}")
    xw, width = tuple(p["tail_window_x"]), p["smear_width_x"]
    _check(xw[0] != xw[1], "tail_window_x",
           f"its ends are both {xw[0]:g}; they must differ, or every fit radius is the same")
    _check(min(xw) > width / 2, "tail_window_x", f"{min(xw):g} must exceed half the smear "
           f"width {width / 2:g}, so that every smeared radius is positive")
    # one (calibration, amplitude, fit radii) per epsilon: the profile's, then each collapse's
    return dict(p, profiles=[(cal, amp, fit_radii(cal.epsilon, xw))
                             for cal, amp in zip(cals, amps)])


_PREPARERS = {
    "classical-orbit": _prepare_classical_orbit,
    "lw-field-map": _prepare_lw_field_map,
    "conservation-audit": _prepare_conservation_audit,
    "free-ecd": _prepare_free_ecd,
    "guiding-run": dict,        # the runner takes the parameters as they are
    "classical-limit-sweep": _prepare_classical_limit_sweep,
    "current-regularization": _prepare_current_regularization,
}


# ---------------------------------------------------------------------------
# per-kind runners: each takes its kind's _prepare output


def _run_classical_orbit(p, out: Path):
    """trajectory.csv columns: s, gamma0..3, gamma_dot0..3, norm2_drift."""
    traj = integrate_worldline((p["x0"], p["u0"]), p["F"], p["charge"], tuple(p["s_span"]),
                               p["cfg"])
    n2 = traj.norm2_samples()
    drift = np.abs(n2 - n2[0])
    _write_csv(out / "trajectory.csv",
               ["s"] + [f"gamma{m}" for m in range(4)]
               + [f"gamma_dot{m}" for m in range(4)] + ["norm2_drift"],
               np.column_stack([traj.s, traj.gammas, traj.gamma_dots, drift]))
    residuals = {"norm2_drift_max": float(drift.max())}
    if drift.max() >= p["tolerance"]:
        raise AccuracyFailure(f"norm2 drift {drift.max():g} >= tolerance {p['tolerance']:g}")
    return residuals, {"tolerance": p["tolerance"]}, ["trajectory.csv"]


def _run_lw_field_map(p, out: Path):
    """fields.csv columns: t,x,y,z, A0..3, E1..3, B1..3 (NaN where uncovered);
    E and B are exact on the interval that brackets the event's retarded root."""
    grid, wl = p["grid"], p["worldline"]
    pts = grid.points().reshape(-1, 4)
    A, F, covered = lw_fields(pts, p["traj"])
    E = F[:, 1:, 0]
    B = -F[:, [2, 3, 1], [3, 1, 2]]
    vals = np.hstack([A, E, B])
    vals[~covered] = np.nan
    _write_csv(out / "fields.csv",
               ["t", "x", "y", "z"] + [f"A{m}" for m in range(4)]
               + ["E1", "E2", "E3", "B1", "B2", "B3"], np.hstack([pts, vals]))
    residuals = {"covered_points": int(covered.sum()), "total_points": len(pts)}
    # Coulomb cross-check when the worldline is at rest
    if np.all(as_four(wl["u"])[1:] == 0.0) and covered.any():
        r = np.linalg.norm(pts[:, 1:] - as_four(wl["x0"])[1:], axis=1)
        far = covered & (r > 3 * max(grid.spacings[1:]))
        if far.any():
            coulomb = wl["q"] / (4 * np.pi * r[far])
            residuals["coulomb_max_rel_error"] = float(
                (np.abs(A[far, 0] - coulomb) / np.abs(coulomb)).max())
    return residuals, {}, ["fields.csv"]


def _run_conservation_audit(p, out: Path):
    """charges.csv columns: slice_index, t, then one charge column per worldline."""
    grid, currents = p["grid"], p["currents"]
    n_t = grid.extents[0]
    charges = np.array([[grid_charge(j, k) for j in currents] for k in range(n_t)])
    _write_csv(out / "charges.csv",
               ["slice", "t"] + [f"charge{i}" for i in range(len(currents))],
               np.column_stack([np.arange(n_t), grid.axis(0), charges]))
    spreads = [max(col) - min(col) for col in charges.T]
    residuals = {"charge_spread_max": float(max(spreads)),
                 "charge_spreads": [float(s) for s in spreads]}
    if max(spreads) > p["tolerance"]:
        raise AccuracyFailure(
            f"slice-charge spread {max(spreads):g} > tolerance {p['tolerance']:g}")
    return residuals, {"tolerance": p["tolerance"]}, ["charges.csv"]


def _run_free_ecd(p, out: Path):
    """consistency.csv columns: epsilon, N, residual, tail_bound."""
    s_max = p["s_max"]
    s_samples = np.linspace(-2.0, 2.0, 5)
    rows = []
    residuals = {"by_epsilon": {}}
    worst = 0.0
    for eps, cal in zip(p["epsilons"], p["cals"]):
        pair = EcdPair.free(tuple(p["u"]), cal, C=p["c0"])
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
    x0, u, amp = as_four(pk["x0"]), as_four(pk["u"]), as_four(pk["wobble_amp"])

    def center(s):
        s = np.asarray(s, dtype=float)[..., None]
        return x0 + u * s + amp * np.sin(pk["wobble_freq"] * s)

    def packet_phi(x, s):
        # integrate_guiding squares this amplitude to get |phi|^2 = e^{-d M d};
        # each row's d M d is one 1-D dot product (BLAS may fuse its
        # multiply-adds, np.sum does not), so it has a one-event call's bits
        d = np.asarray(x, dtype=float) - center(s)
        return np.exp(-0.5 * (d @ M)[..., None, :] @ d[..., None])[..., 0, 0]

    s0, s1 = p["s_span"]
    states, event = integrate_guiding(packet_phi, center(s0), (s0, s1),
                                      p["steps"], h=p["fd_step"])
    table = np.array([[st.s, *st.gamma, *center(st.s)] for st in states])
    devs = [float(np.linalg.norm(row[1:5] - row[5:])) for row in table]
    _write_csv(out / "guiding.csv",
               ["s"] + [f"gamma{m}" for m in range(4)]
               + [f"center{m}" for m in range(4)] + ["deviation"],
               np.column_stack([table, devs]))
    residuals = {"max_deviation": float(max(devs)),
                 "violent_event": None if event is None else
                 {"s": event.s, "condition_number": event.condition_number}}
    if max(devs) > p["tolerance"]:
        raise AccuracyFailure(f"guiding deviation {max(devs):g} > {p['tolerance']:g}")
    return residuals, {"tolerance": p["tolerance"], "fd_step": p["fd_step"]}, ["guiding.csv"]


def _run_classical_limit_sweep(p, out: Path):
    """sweep.csv columns: factor, phase_gradient_residual."""
    q, u0 = p["charge"], as_four(p["u0"])
    s_samples = np.linspace(p["s_span"][0], p["s_span"][1], 2)
    rows = []
    res_list = []
    rec_list = []
    for fac in p["factors"]:
        F = fac * p["F_base"]
        pair = constant_field_pair(F, u0, p["cal"], q=q, step=p["step"],
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
    return residuals, {"ratio_bound": bound, "epsilon": p["epsilon"]}, ["sweep.csv"]


def _run_current_regularization(p, out: Path):
    """profile.csv columns: r, j0, tail, remainder, smeared_remainder."""
    c0, q = p["c0"], p["charge"]
    (cal, amp, rs), *collapse = p["profiles"]
    C = c0 / cal.epsilon
    j0 = free_charge_j0(rs, (1, 0, 0, 0), C, cal, q)
    tail = charge_tail(rs, C, cal, q)
    remainder = j0 - tail
    smeared = smeared_remainder(C, cal, q, rs, p["smear_width_x"] * np.sqrt(cal.epsilon))
    _write_csv(out / "profile.csv", ["r", "j0", "tail", "remainder", "smeared_remainder"],
               np.column_stack([rs, j0, tail, remainder, smeared]))
    tail_slope, _ = fit_loglog_slope(rs, j0)
    sub_slope, _ = fit_loglog_slope(rs, smeared)
    residuals = {"tail_slope": float(tail_slope),
                 "subtracted_slope": float(sub_slope),
                 "fit_window_r": [float(rs[0]), float(rs[-1])],
                 "divergent_coefficient": divergent_coefficient(C, cal, q)}
    if collapse:
        base = j0 / amp
        worst = 0.0
        for cal2, amp2, r2 in collapse:
            prof = free_charge_j0(r2, (1, 0, 0, 0), c0 / cal2.epsilon, cal2, q) / amp2
            worst = max(worst, float(np.abs(prof / base - 1.0).max()))
        residuals["collapse_max_rel"] = worst
    tol = p["slope_tolerance"]
    if abs(tail_slope + 1.0) > 0.02 or abs(sub_slope + 5.0) > tol:
        raise AccuracyFailure(
            f"slopes tail={tail_slope:.3f} subtracted={sub_slope:.3f} outside bounds")
    return residuals, {"slope_tolerance": tol, "smear_width_x": p["smear_width_x"]}, \
        ["profile.csv"]


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

    The set-up is validate_config's, and raises ScenarioValidationError
    (exit 2).  Every numeric error of the library is an ArithmeticError; those
    and LinAlgError become a NumericFailure (exit 3)."""
    t0 = time.time()
    return _run(scenario, _prepare(scenario.kind, scenario.parameters), out_dir, t0)


def _run(scenario: Scenario, prepared: dict, out_dir, t0: float) -> RunManifest:
    """run_scenario from scenario's set-up prepared, timed from t0."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        residuals, tolerances, outputs = _RUNNERS[scenario.kind](prepared, out)
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
