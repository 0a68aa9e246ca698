import copy
import csv
import hashlib
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ecdlab import ecd_core, scenarios
from ecdlab.cli import (EXIT_ACCURACY, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION,
                        build_parser, main)
from ecdlab.dynamics import IntegrationBlowup
from ecdlab.ecd_core import QuadratureBudgetError
from ecdlab.em_sources import CoverageError, WorldlineSingularity
from ecdlab.grids import DepositError
from ecdlab.propagators import NoPathError
from ecdlab.scenarios import (SCENARIO_KINDS, ScenarioValidationError,
                              load_scenario, validate_config, validate_file)


def audit_config(tolerance=1e-9, x0=(0.0, 0.0, 0.0, 0.0)):
    return {
        "schema_version": "1",
        "kind": "conservation-audit",
        "parameters": {
            "worldlines": [{"u": [1.0, 0.2, 0.0, 0.0], "x0": list(x0),
                            "s_span": [-4, 4], "n": 201, "q": 1.0}],
            "grid": {"origin": [-0.4, -1, -1, -1],
                     "spacings": [0.2, 0.25, 0.25, 0.25],
                     "extents": [5, 9, 9, 9]},
            "tolerance": tolerance,
        },
    }


def lw_config():
    return {
        "schema_version": "1",
        "kind": "lw-field-map",
        "parameters": {
            "worldline": {"u": [1, 0, 0, 0], "s_span": [-50, 50], "n": 1001,
                          "q": 1.0},
            "grid": {"origin": [0, -0.5, -0.5, -0.5],
                     "spacings": [0.5, 0.5, 0.5, 0.5],
                     "extents": [1, 3, 3, 3]},
        },
    }


def guiding_config(tolerance=1e-4):
    return {
        "schema_version": "1",
        "kind": "guiding-run",
        "parameters": {
            "packet": {"M_diag": [1, 1, 1, 1], "x0": [0, 0, 0, 0],
                       "u": [1, 0.2, 0, 0]},
            "s_span": [0.0, 0.5],
            "steps": 10,
            "tolerance": tolerance,
        },
    }


def orbit_config():
    return {
        "schema_version": "1",
        "kind": "classical-orbit",
        "parameters": {
            "electric": [0.3, 0.0, 0.0], "magnetic": [0.0, 0.0, 0.2],
            "charge": 1.0, "x0": [0, 0, 0, 0], "u0": [1, 0, 0, 0],
            "s_span": [0.0, 1.0], "step": 0.25, "tolerance": 1e-6,
        },
    }


def write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# ---------------------------------------------------------------------------
# validation diagnostics


def test_unknown_kind_lists_allowed_kinds():
    doc = audit_config()
    doc["kind"] = "nope"
    diags = validate_config(doc)
    assert len(diags) == 1
    for kind in SCENARIO_KINDS:
        assert kind in diags[0]


def test_bad_parameter_reports_path():
    doc = {"schema_version": "1", "kind": "free-ecd",
           "parameters": {"epsilons": [-0.1], "tolerance_factor": 1.0}}
    diags = validate_config(doc)
    assert any(d.startswith("parameters.epsilons.0") for d in diags)


def test_unknown_key_is_rejected():
    """Each unknown key is reported at its own path, a nested one too."""
    doc = audit_config()
    doc["parameters"]["typo"] = 1
    doc["parameters"]["worldlines"][0]["mass"] = 2
    assert validate_config(doc) == ["parameters.typo: not a known key",
                                    "parameters.worldlines.0.mass: not a known key"]


def test_parse_failure_reports_line_and_column(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "kind": oops\n}\n')
    diags = validate_file(str(p))
    assert len(diags) == 1
    assert "line 2" in diags[0] and "column" in diags[0]


def test_missing_file_is_a_diagnostic(tmp_path):
    diags = validate_file(str(tmp_path / "absent.json"))
    assert diags and "absent.json" in diags[0]


def test_load_scenario_applies_overrides(tmp_path):
    path = write(tmp_path, audit_config())
    sc = load_scenario(path, overrides=[("parameters.tolerance", "0.5")])
    assert sc.parameters["tolerance"] == 0.5
    with pytest.raises(ScenarioValidationError):
        load_scenario(path, overrides=[("parameters.nonexistent", "1")])


# ---------------------------------------------------------------------------
# CLI exit codes


def test_cli_validate_ok_and_fail(tmp_path, capsys):
    good = write(tmp_path, audit_config(), "good.json")
    assert main(["validate", good]) == EXIT_OK
    assert "valid" in capsys.readouterr().out
    bad_doc = audit_config()
    bad_doc["kind"] = "nope"
    bad = write(tmp_path, bad_doc, "bad.json")
    assert main(["validate", bad]) == EXIT_VALIDATION
    assert "conservation-audit" in capsys.readouterr().err


def test_cli_run_success_writes_outputs(tmp_path, capsys):
    cfg = write(tmp_path, audit_config())
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--workers", "1"]) == EXIT_OK
    assert (out / "charges.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "conservation-audit"
    assert manifest["outputs"] == ["charges.csv"]
    assert "charge_spread_max" in manifest["residuals"]
    summary = json.loads(capsys.readouterr().out)
    assert summary["kind"] == "conservation-audit"


def test_cli_run_invalid_config(tmp_path, capsys):
    doc = audit_config()
    del doc["parameters"]["tolerance"]
    cfg = write(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert "tolerance" in capsys.readouterr().err


def test_cli_run_drift_failure_names_the_drift(tmp_path, capsys):
    """Every sample is finite and gamma_dot^2 drifts by ~1e-12, beyond the
    tolerance 1e-16: the message names the drift, not an overflow."""
    doc = orbit_config()
    doc["parameters"].update(electric=[1.0, 0.0, 0.0], magnetic=[0.0, 0.0, 0.0],
                             s_span=[0.0, 5.0], step=0.25, tolerance=1e-16)
    cfg = write(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric failure: gamma_dot^2 drift " in err
    assert "exceeds tolerance 1e-16, at s = 5" in err
    assert "non-finite" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_run_numeric_failure(tmp_path, capsys):
    # a field strong enough to overflow the worldline passes validation
    doc = orbit_config()
    doc["parameters"]["electric"] = [1e10, 0.0, 0.0]
    cfg = write(tmp_path, doc)
    assert main(["validate", cfg]) == EXIT_OK
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("grid, x0", [({}, (0.0, 5.0, 0.0, 0.0)),
                                      ({"origin": [-0.4, 10, 10, 10]}, (0, 0, 0, 0)),
                                      ({"extents": [5, 2, 9, 9]}, (0, 0, 0, 0))],
                         ids=["worldline-outside", "origin", "extents"])
def test_audit_worldline_must_be_deposited_inside_the_grid(grid, x0, tmp_path, capsys):
    """validate makes the runner's deposit, so a grid that misses its worldline
    exits 2 before the run; run exited 3 ("too close to the spatial grid edge")."""
    doc = audit_config(x0=x0)
    doc["parameters"]["grid"].update(grid)
    assert [d.split(":")[0] for d in validate_config(doc)] == ["parameters.worldlines.0"]
    cfg = write(tmp_path, doc)
    assert main(["validate", cfg]) == EXIT_VALIDATION
    assert "parameters.worldlines.0: " in capsys.readouterr().err
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_VALIDATION
    assert "parameters.worldlines.0: " in capsys.readouterr().err


@pytest.mark.parametrize("exc", [NoPathError("caustic"),
                                 QuadratureBudgetError("budget"),
                                 OverflowError("cosh overflow"),
                                 DepositError("outside the grid"),
                                 CoverageError("not bracketed"),
                                 IntegrationBlowup(0.5),
                                 WorldlineSingularity("on the worldline"),
                                 scenarios.NumericFailure("nested"),
                                 FloatingPointError("underflow"),
                                 ZeroDivisionError("division by zero"),
                                 np.linalg.LinAlgError("singular matrix")],
                         ids=lambda e: type(e).__name__)
def test_cli_run_numeric_exceptions_exit_3(tmp_path, capsys, monkeypatch, exc):
    def runner(p, out):
        raise exc

    monkeypatch.setitem(scenarios._RUNNERS, "guiding-run", runner)
    cfg = write(tmp_path, guiding_config())
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_NUMERIC
    assert f"numeric failure: {exc}" in capsys.readouterr().err


def test_free_ecd_s_max_must_exceed_epsilons(tmp_path, capsys):
    doc = {"schema_version": "1", "kind": "free-ecd",
           "parameters": {"epsilons": [0.01, 0.1], "s_max": 0.05,
                          "tolerance_factor": 1.0}}
    cfg = write(tmp_path, doc)
    assert main(["validate", cfg]) == EXIT_VALIDATION
    assert "parameters.s_max" in capsys.readouterr().err
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_VALIDATION
    assert "parameters.s_max" in capsys.readouterr().err
    # the default s_max (50) bounds the epsilons as well
    del doc["parameters"]["s_max"]
    assert validate_config(doc) == []
    doc["parameters"]["epsilons"] = [60.0]
    assert [d.split(":")[0] for d in validate_config(doc)] == ["parameters.s_max"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_free_ecd_non_finite_wave_is_numeric_failure(tmp_path, capsys):
    """u^2 overflows, so every integrand value is NaN; the run must not pass
    with a residual that dropped the NaN."""
    doc = {"schema_version": "1", "kind": "free-ecd",
           "parameters": {"epsilons": [0.1], "s_max": 1.0, "u": [1e200, 0, 0, 0],
                          "tolerance_factor": 1.0}}
    assert main(["run", write(tmp_path, doc), "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_NUMERIC
    assert "s'-quadrature error nan" in capsys.readouterr().err


@pytest.mark.parametrize("kind, name, value", [
    ("free-ecd", "epsilons", [5e-324]), ("classical-limit-sweep", "epsilon", 5e-324),
    ("current-regularization", "epsilon", 5e-324),
    ("current-regularization", "epsilons_collapse", [5e-324]),
    ("current-regularization", "epsilon", 60.0)])
def test_epsilon_without_calibration_is_rejected(kind, name, value, tmp_path, capsys):
    """N = -1/(2 pi^2 eps) overflows for the smallest double: free-ecd wrote
    N = -inf and exit 0.  current-regularization calibrates with s_max 50, so
    a larger epsilon raised a ValueError (exit 1)."""
    params = {"free-ecd": {"epsilons": [0.1], "c0": 0.0, "u": [0, 0, 0, 0],
                           "tolerance_factor": 1.0},
              "classical-limit-sweep": {"electric": [0.1, 0.0, 0.0],
                                        "factors": [1.0, 0.5], "ratio_bound": 1.0},
              "current-regularization": {"epsilon": 1e-3, "c0": 1e-3, "charge": 1.0}}[kind]
    doc = {"schema_version": "1", "kind": kind, "parameters": params}
    assert validate_config(doc) == []
    params[name] = value
    assert [d.split(":")[0] for d in validate_config(doc)] == [f"parameters.{name}"]
    cfg = write(tmp_path, doc)
    assert main(["validate", cfg]) == EXIT_VALIDATION
    assert f"parameters.{name}" in capsys.readouterr().err
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_VALIDATION
    assert f"parameters.{name}" in capsys.readouterr().err


def test_classical_limit_sweep_epsilon_must_fit_window(tmp_path, capsys):
    doc = {"schema_version": "1", "kind": "classical-limit-sweep",
           "parameters": {"electric": [0.1, 0.0, 0.0], "factors": [1.0, 0.5],
                          "ratio_bound": 1.0, "epsilon": 12.0}}
    cfg = write(tmp_path, doc)
    assert main(["validate", cfg]) == EXIT_VALIDATION
    assert "parameters.epsilon" in capsys.readouterr().err
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_VALIDATION
    assert "parameters.epsilon" in capsys.readouterr().err
    doc["parameters"]["epsilon"] = 1e-2
    assert validate_config(doc) == []


@pytest.mark.parametrize("factors", [[0.5, 1.0], [1.0, 0.5, 0.5]])
def test_classical_limit_sweep_factors_must_decrease(factors, tmp_path, capsys):
    """The residual ratios assume a weakening field; both checks return
    before any worldline is integrated."""
    doc = {"schema_version": "1", "kind": "classical-limit-sweep",
           "parameters": {"electric": [0.1, 0.0, 0.0], "factors": factors,
                          "ratio_bound": 1.0}}
    assert [d.split(":")[0] for d in validate_config(doc)] == ["parameters.factors"]
    cfg = write(tmp_path, doc)
    assert main(["validate", cfg]) == EXIT_VALIDATION
    assert "parameters.factors" in capsys.readouterr().err
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_VALIDATION
    assert "parameters.factors" in capsys.readouterr().err


def test_classical_limit_sweep_rejects_a_worldline_at_rest(tmp_path, capsys):
    """u0 = 0 gives a worldline that never moves: its velocity recovery is
    0/0, and the run used to exit 0 with nothing checked."""
    doc = {"schema_version": "1", "kind": "classical-limit-sweep",
           "parameters": {"electric": [0.05, 0.0, 0.0], "factors": [1.0, 0.5],
                          "ratio_bound": 1.0, "u0": [0.0, 0.0, 0.0, 0.0]}}
    assert [d.split(":")[0] for d in validate_config(doc)] == ["parameters.u0"]
    cfg = write(tmp_path, doc)
    assert main(["validate", cfg]) == EXIT_VALIDATION
    assert "parameters.u0" in capsys.readouterr().err
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_VALIDATION
    assert "parameters.u0" in capsys.readouterr().err


@pytest.mark.parametrize("name, value", [("tail_window_x", [0.5, 60.0]),
                                         ("c0", 0.0), ("charge", 0.0),
                                         ("c0", 1e-170), ("c0", 1e160),
                                         ("tail_window_x", [5.0, 5.0])])
def test_current_regularization_semantic_checks(name, value, tmp_path, capsys):
    """A smear window reaching r <= 0, or a vanishing profile, exits 2.  So does
    an amplitude q |c0/eps|^2 sqrt(eps) that underflows to 0 (the fit raised a
    ValueError, exit 1) or overflows (Python's OverflowError, exit 3), and a
    fit window with equal ends (14 equal radii: polyfit warned and the run
    exited 4)."""
    doc = {"schema_version": "1", "kind": "current-regularization",
           "parameters": {"epsilon": 1e-3, "c0": 1e-3, "charge": 1.0}}
    assert validate_config(doc) == []
    doc["parameters"][name] = value
    assert [d.split(":")[0] for d in validate_config(doc)] == [f"parameters.{name}"]
    cfg = write(tmp_path, doc)
    assert main(["validate", cfg]) == EXIT_VALIDATION
    assert f"parameters.{name}" in capsys.readouterr().err
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_VALIDATION
    assert f"parameters.{name}" in capsys.readouterr().err


@pytest.mark.parametrize("params", [{"epsilons_collapse": [1e-4, 1e-300]},
                                    {"c0": 10 ** 400}], ids=["collapse", "huge-int"])
def test_current_regularization_amplitude_check_covers_every_epsilon(params):
    """Each epsilons_collapse entry is checked too; a JSON integer beyond the
    float range is reported, not raised."""
    doc = {"schema_version": "1", "kind": "current-regularization",
           "parameters": {"epsilon": 1e-3, "c0": 1e-3, "charge": 1.0, **params}}
    assert [d.split(":")[0] for d in validate_config(doc)] == ["parameters.c0"]


@pytest.mark.parametrize("kind, name, path", [
    ("free-ecd", "epsilons", "epsilons.0"), ("free-ecd", "s_max", "s_max"),
    ("classical-limit-sweep", "epsilon", "epsilon"),
    ("current-regularization", "epsilon", "epsilon"),
    ("current-regularization", "epsilons_collapse", "epsilons_collapse.0"),
    ("conservation-audit", "q", "worldlines.0.q")])
def test_integer_beyond_float_range_is_a_validation_failure(kind, name, path,
                                                            tmp_path, capsys):
    """A JSON integer no float can hold: an epsilon raised OverflowError from
    the calibration check (exit 1), a worldline charge exited 3."""
    doc = {"free-ecd": {"schema_version": "1", "kind": "free-ecd",
                        "parameters": {"epsilons": [0.1], "tolerance_factor": 1.0}},
           "classical-limit-sweep": {"schema_version": "1", "kind": "classical-limit-sweep",
                                     "parameters": {"electric": [0.1, 0.0, 0.0],
                                                    "factors": [1.0, 0.5],
                                                    "ratio_bound": 1.0}},
           "current-regularization": {"schema_version": "1", "kind": "current-regularization",
                                      "parameters": {"epsilon": 1e-3, "c0": 1e-3,
                                                     "charge": 1.0}},
           "conservation-audit": audit_config()}[kind]
    params = doc["parameters"]
    target = params["worldlines"][0] if kind == "conservation-audit" else params
    target[name] = [10 ** 400] if name.startswith("epsilons") else 10 ** 400
    assert validate_config(doc) == [
        f"parameters.{path}: an integer beyond the float range"]
    cfg = write(tmp_path, doc)
    assert main(["validate", cfg]) == EXIT_VALIDATION
    assert f"parameters.{path}: " in capsys.readouterr().err
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_VALIDATION
    assert f"parameters.{path}: " in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["lw-field-map", "conservation-audit"])
def test_worldline_s_span_must_give_increasing_samples(kind, tmp_path, capsys):
    doc = lw_config() if kind == "lw-field-map" else audit_config()
    wl = (doc["parameters"]["worldline"] if kind == "lw-field-map"
          else doc["parameters"]["worldlines"][0])
    path = "worldline" if kind == "lw-field-map" else "worldlines.0"
    for span in ([1.0, -1.0], [2.0, 2.0]):
        wl["s_span"] = span
        assert [d.split(":")[0] for d in validate_config(doc)] == [
            f"parameters.{path}.s_span"]
    cfg = write(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_VALIDATION
    assert f"parameters.{path}.s_span" in capsys.readouterr().err


def test_tail_window_ends_may_come_in_either_order(tmp_path, capsys):
    """Only equal ends are rejected: a window given from 60 down to 5 fits the
    same radii in reverse and runs."""
    doc = {"schema_version": "1", "kind": "current-regularization",
           "parameters": {"epsilon": 1e-3, "c0": 1e-3, "charge": 1.0,
                          "tail_window_x": [60.0, 5.0]}}
    assert validate_config(doc) == []
    assert main(["run", write(tmp_path, doc), "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_OK
    capsys.readouterr()


def valid_config(kind):
    """One small config of each kind that validates."""
    params = {"free-ecd": {"epsilons": [0.1], "tolerance_factor": 1.0},
              "classical-limit-sweep": {"electric": [0.1, 0.0, 0.0], "factors": [1.0, 0.5],
                                        "ratio_bound": 1.0},
              "current-regularization": {"epsilon": 1e-3, "c0": 1e-3, "charge": 1.0,
                                         "epsilons_collapse": [1e-4]}}
    configs = {"classical-orbit": orbit_config, "lw-field-map": lw_config,
               "conservation-audit": audit_config, "guiding-run": guiding_config}
    if kind in configs:
        return configs[kind]()
    return {"schema_version": "1", "kind": kind, "parameters": params[kind]}


_SCIPY_PROBE = """
import json, sys
from ecdlab.cli import main
cfgs, out = json.loads(sys.argv[1]), sys.argv[2]
loaded = lambda: print("scipy:", json.dumps(sorted(m for m in sys.modules
                                                   if m.split(".")[0] == "scipy")))
for cfg in cfgs.values():
    assert main(["validate", cfg]) == 0
loaded()
for kind, cfg in cfgs.items():
    assert main(["run", cfg, "--out", out + "/" + kind, "--workers", "1"]) == 0
    loaded()
import scipy.special
loaded()
"""


def test_no_run_imports_scipy(tmp_path):
    """Start-up, validate of every kind and a run of each of the seven kinds
    load no scipy module: the matrix exponential, the quadratures and the
    modified Fresnel integral are numpy code.  Importing scipy.special at the
    end shows the probe would see it."""
    cfgs = {kind: write(tmp_path, valid_config(kind), f"{kind}.json") for kind in SCENARIO_KINDS}
    src = str(Path(scenarios.__file__).resolve().parents[1])
    probe = f"import sys; sys.path.insert(0, {src!r})\n" + _SCIPY_PROBE
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(cfgs), str(tmp_path / "o")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    loaded = [json.loads(line[len("scipy:"):]) for line in proc.stdout.splitlines()
              if line.startswith("scipy:")]
    assert len(SCENARIO_KINDS) == 7 and loaded[:-1] == [[]] * 8
    assert "scipy.special" in loaded[-1]


_JSONSCHEMA_PROBE = """
import json, sys
import numpy as np
from ecdlab.cli import main
from ecdlab.ecd_currents import FreePhi, ecd_electric_current
from ecdlab.grids import EventGrid
loaded = lambda: print("jsonschema:", json.dumps("jsonschema" in sys.modules))
loaded()
grid = EventGrid(origin=(0, 0, 0, 0), spacings=(0.1,) * 4, extents=(2, 2, 2, 2))
ecd_electric_current(FreePhi((1, 0, 0, 0), 1.0, 0.05), None, grid, np.array([-0.1, 0.2]),
                     np.ones(2), 1.0)
loaded()
assert main(["validate", sys.argv[1]]) == 0
loaded()
assert main(["run", sys.argv[1], "--out", sys.argv[2], "--workers", "1"]) == 0
loaded()
import jsonschema
loaded()
"""


def test_no_run_imports_jsonschema(tmp_path):
    """Start-up, a library computation, validating a config and running it
    load no jsonschema: ecdlab's own walker checks configs.  Importing it at
    the end shows the probe would see it."""
    cfg = write(tmp_path, valid_config("free-ecd"), "free-ecd.json")
    src = str(Path(scenarios.__file__).resolve().parents[1])
    probe = f"import sys; sys.path.insert(0, {src!r})\n" + _JSONSCHEMA_PROBE
    proc = subprocess.run([sys.executable, "-c", probe, cfg, str(tmp_path / "o")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    loaded = [json.loads(line[len("jsonschema:"):]) for line in proc.stdout.splitlines()
              if line.startswith("jsonschema:")]
    assert loaded == [False, False, False, False, True]


_FLOATTEXT_PROBE = """
import json, sys
import ecdlab.cli, ecdlab.scenarios
loaded = lambda: print("floattext:", json.dumps("ecdlab.floattext" in sys.modules))
loaded()
assert ecdlab.cli.main(["validate", sys.argv[1]]) == 0
loaded()
assert ecdlab.cli.main(["run", sys.argv[1], "--out", sys.argv[2], "--workers", "1"]) == 0
loaded()
"""


def test_csv_writer_is_imported_at_the_first_csv_write(tmp_path):
    """Importing the CLI and the scenarios and validating a config leave
    ecdlab.floattext unloaded, so a process that writes no CSV does not
    compile it; a classical-orbit run, which writes CSVs, loads it."""
    cfg = write(tmp_path, valid_config("classical-orbit"), "orbit.json")
    src = str(Path(scenarios.__file__).resolve().parents[1])
    probe = f"import sys; sys.path.insert(0, {src!r})\n" + _FLOATTEXT_PROBE
    proc = subprocess.run([sys.executable, "-c", probe, cfg, str(tmp_path / "o")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    loaded = [json.loads(line[len("floattext:"):]) for line in proc.stdout.splitlines()
              if line.startswith("floattext:")]
    assert loaded == [False, False, True]


class Computed(Exception):
    """Raised by a compute entry point in place of its work."""


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_validation_runs_no_computation(kind, monkeypatch, tmp_path):
    """Validation is the run's own set-up and stays cheap: it calls none of the
    compute entry points that scenarios imports, while the run calls one."""
    def computed(*args, **kwargs):
        raise Computed

    for name in ("integrate_worldline", "constant_field_pair", "consistency_residual",
                 "classical_phase_gradient_check", "integrate_guiding", "lw_fields",
                 "free_charge_j0", "charge_tail", "smeared_remainder", "grid_charge"):
        monkeypatch.setattr(scenarios, name, computed)
    doc = valid_config(kind)
    assert validate_config(doc) == []
    with pytest.raises(Computed):
        scenarios.run_scenario(scenarios.Scenario(kind, doc["parameters"]), tmp_path)


def test_defaults_table_matches_the_schemas():
    """Every optional parameter has exactly one default, which its schema
    accepts, and the table names no key its schema lacks.  A nested table
    belongs to an object, or an array of objects, with optional keys."""
    def check(schema, table, where):
        props = schema["properties"]
        assert set(table) <= set(props), where
        for key, prop in props.items():
            item = prop.get("items", prop)
            if "properties" in item:
                check(item, table.get(key, {}), f"{where}.{key}")
            else:
                assert (key in table) != (key in schema["required"]), f"{where}.{key}"
                if key in table:
                    jsonschema.validate(json.loads(json.dumps(table[key])), prop)

    assert set(scenarios._DEFAULTS) == set(SCENARIO_KINDS)
    for kind, schema in scenarios._PARAM_SCHEMAS.items():
        check(schema, scenarios._DEFAULTS[kind], kind)


def _jsonschema_errors(schema, instance, *prefix):
    """_schema_errors as jsonschema's Draft 2020-12 validator gives them."""
    errors = jsonschema.Draft202012Validator(schema).iter_errors(instance)
    return [(".".join(map(str, (*prefix, *err.absolute_path))) or "<root>",
             "not a known key" if err.schema is scenarios._CLOSED else err.message)
            for err in sorted(errors, key=lambda e: list(e.absolute_path))]


# values of the wrong type, kind, sign or length for some key; 1e400 is how
# JSON spells an infinite float
_JUNK = st.one_of(
    st.sampled_from([True, False, None, 0, 1, -1, 2, 10 ** 400, 1.0, 2.0, -0.0, 0.5, -2.5,
                     1e400, -1e400, math.nan, "x", "1", "", {}, {"u": [1, 0, 0, 0]}]),
    st.lists(st.sampled_from([0.0, 1, -1.0, 1.0, True, "x", None, [1.0]]), max_size=6))


@st.composite
def mutated_configs(draw):
    """(kind, a config of kind with every optional key set, then given up to
    four edits anywhere in it, the nested objects too: a key or item deleted,
    an unknown key or an item added, or a value swapped for _JUNK)."""
    kind = draw(st.sampled_from(SCENARIO_KINDS))
    doc = valid_config(kind)
    doc["parameters"] = json.loads(json.dumps(
        scenarios._with_defaults(doc["parameters"], scenarios._DEFAULTS[kind])))
    for _ in range(draw(st.integers(0, 4))):
        nodes, stack = [], [doc]
        while stack:
            node = stack.pop()
            if isinstance(node, (dict, list)):
                nodes.append(node)
                stack.extend(node.values() if isinstance(node, dict) else node)
        node = draw(st.sampled_from(nodes))
        keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        edit = draw(st.sampled_from(["delete", "add", "swap"] if keys else ["add"]))
        junk = copy.deepcopy(draw(_JUNK))
        if edit == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(["typo", "mass", "fd_step", "u", "n", "kind"]))] = junk
        elif edit == "add":
            node.append(junk)
        elif edit == "delete":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = junk
    return kind, doc


@given(case=mutated_configs())
@example(case=("lw-field-map", {"schema_version": 1.0, "kind": [], "parameters": {
    "worldline": {"u": [1, True, 0], "n": 1.0, "q": "x", "mass": 1},
    "grid": {"origin": 1e400, "spacings": [0, -0.0, 1e400, -1], "extents": [1.0, 0, 0.5]}}}))
@example(case=("free-ecd", ["a document", "that is not an object"]))
@settings(max_examples=400, deadline=None)
def test_schema_walker_matches_jsonschema(case):
    """The walker gives jsonschema's (path, message) list, in its order, for
    the top-level schema and for each kind's parameter schema."""
    kind, doc = case
    assert (scenarios._schema_errors(scenarios._TOP_SCHEMA, doc)
            == _jsonschema_errors(scenarios._TOP_SCHEMA, doc))
    if "parameters" in doc:
        params, schema = doc["parameters"], scenarios._PARAM_SCHEMAS[kind]
        assert (scenarios._schema_errors(schema, params, "parameters")
                == _jsonschema_errors(schema, params, "parameters"))


def test_schema_walker_rejects_keywords_it_does_not_check():
    """A schema edit that the walker would skip raises instead."""
    with pytest.raises(ValueError, match="maximum"):
        scenarios._schema_errors({"type": "number", "maximum": 1}, 2)
    with pytest.raises(ValueError, match="additionalProperties"):
        scenarios._schema_errors({"type": "object", "additionalProperties": False}, {"a": 1})
    for schema, instance in [({"type": "boolean"}, True), ({"type": "null"}, None),
                             ({"type": ["number", "null"]}, 1.0),
                             ({"type": "integer", "enum": [1, 2]}, True),
                             ({"type": "array", "maxItems": 0}, [1])]:
        with pytest.raises(ValueError, match="not validated"):
            scenarios._schema_errors(schema, instance)


@pytest.mark.parametrize("doc, code", [(lw_config(), EXIT_OK),
                                       ({**lw_config(), "parameters": {"worldline": {}}},
                                        EXIT_VALIDATION)], ids=["valid", "invalid"])
def test_a_cli_run_sets_up_its_config_once(doc, code, tmp_path, monkeypatch, capsys):
    """ecdlab run validates its config in the set-up that the run then uses."""
    kinds, prepare = [], scenarios._prepare
    monkeypatch.setattr(scenarios, "_prepare",
                        lambda kind, params: kinds.append(kind) or prepare(kind, params))
    assert main(["run", write(tmp_path, doc), "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == code
    capsys.readouterr()
    assert kinds == ["lw-field-map"]


@pytest.mark.parametrize("doc", [{"schema_version": "1", "parameters": {}},
                                 {"schema_version": "1", "kind": "free-ecd"},
                                 [], "x"], ids=["no-kind", "no-parameters", "list", "string"])
def test_a_cli_run_reports_a_config_without_kind_or_parameters(doc, tmp_path, capsys):
    """ecdlab run checks the top-level schema before it reads kind and
    parameters: each diagnostic of validate, and exit status 2."""
    diags = validate_config(doc)
    assert diags and all(d.startswith("<root>: ") for d in diags)
    assert main(["run", write(tmp_path, doc), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == diags


@pytest.mark.parametrize("kind, params, tolerances", [
    ("free-ecd", {"epsilons": [0.1], "tolerance_factor": 1.0},
     {"tolerance_factor": 1.0, "s_max": 50.0}),
    ("lw-field-map", lw_config()["parameters"], {})],
    ids=["free-ecd", "lw-field-map"])
def test_manifest_echoes_the_config_as_written(kind, params, tolerances, tmp_path):
    """The manifest's scenario is the config with no default filled in (the
    lw-field-map worldline has no x0), the run leaves its parameters as they
    were, and the tolerances carry the filled defaults with their types
    (lw-field-map has none)."""
    written = json.loads(json.dumps(params))
    scenarios.run_scenario(scenarios.Scenario(kind, params), tmp_path)
    assert params == written
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["scenario"] == {"kind": kind, "parameters": written,
                                    "schema_version": "1"}
    assert manifest["tolerances"] == tolerances
    assert all(type(v) is float for v in manifest["tolerances"].values())


def test_step_count_is_bounded(tmp_path, capsys):
    """A step that divides a huge span would ask for 10^15 worldline samples."""
    doc = orbit_config()
    doc["parameters"].update(s_span=[0.0, 1e12], step=1e-3)
    assert [d.split(":")[0] for d in validate_config(doc)] == ["parameters.step"]
    cfg = write(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_VALIDATION
    assert "parameters.step" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["classical-orbit", "classical-limit-sweep"])
def test_step_must_divide_integration_span(kind, tmp_path, capsys):
    """classical-orbit integrates over its s_span [0, 1]; the sweep's worldline
    always spans 25 from s = 0, whatever its sample s_span."""
    doc = orbit_config() if kind == "classical-orbit" else {
        "schema_version": "1", "kind": "classical-limit-sweep",
        "parameters": {"electric": [0.1, 0.0, 0.0], "factors": [1.0, 0.5],
                       "ratio_bound": 1.0, "step": 0.25}}
    assert validate_config(doc) == []
    doc["parameters"]["step"] = 0.3
    assert [d.split(":")[0] for d in validate_config(doc)] == ["parameters.step"]
    cfg = write(tmp_path, doc)
    assert main(["validate", cfg]) == EXIT_VALIDATION
    assert "parameters.step" in capsys.readouterr().err
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_VALIDATION
    assert "parameters.step" in capsys.readouterr().err


def test_cli_run_accuracy_failure_via_override(tmp_path, capsys):
    cfg = write(tmp_path, guiding_config())
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out), "--workers", "1",
                 "--override", "parameters.tolerance=1e-15"]) == EXIT_ACCURACY
    assert "accuracy failure" in capsys.readouterr().err
    # the same scenario passes at its declared tolerance
    assert main(["run", cfg, "--out", str(out), "--workers", "1"]) == EXIT_OK


def test_cli_parser_is_built_once_and_keeps_no_run_state(tmp_path, capsys):
    """main parses with one parser per process: an override given to one
    run reaches neither the next run nor validate, and validate leaves the
    run after it as it was."""
    assert build_parser() is build_parser()
    cfg = write(tmp_path, guiding_config())

    def run(name, *extra):
        out = tmp_path / name
        assert main(["run", cfg, "--out", str(out), "--workers", "1", *extra]) == EXIT_OK
        return json.loads((out / "manifest.json").read_text())["scenario"]

    assert run("a", "--override", "parameters.tolerance=0.5")["parameters"]["tolerance"] == 0.5
    plain = run("b")
    assert plain["parameters"]["tolerance"] == guiding_config()["parameters"]["tolerance"]
    assert main(["validate", cfg]) == EXIT_OK
    assert run("c") == plain
    csvs = [(tmp_path / name / "guiding.csv").read_bytes() for name in "bc"]
    assert csvs[0] == csvs[1]
    capsys.readouterr()


def test_cli_out_dir_env(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, guiding_config())
    envdir = tmp_path / "envout"
    monkeypatch.setenv("ECDLAB_OUT_DIR", str(envdir))
    assert main(["run", cfg, "--workers", "1"]) == EXIT_OK
    capsys.readouterr()
    assert (envdir / "guiding.csv").exists()


def test_cli_rejects_malformed_override(tmp_path, capsys):
    cfg = write(tmp_path, audit_config())
    with pytest.raises(SystemExit):
        main(["run", cfg, "--override", "novalue"])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# determinism


def test_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write(tmp_path, audit_config())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", cfg, "--out", str(out1), "--workers", "1"]) == EXIT_OK
    assert main(["run", cfg, "--out", str(out2), "--workers", "1"]) == EXIT_OK
    capsys.readouterr()
    assert (out1 / "charges.csv").read_bytes() == (out2 / "charges.csv").read_bytes()


def test_worker_count_does_not_change_data(tmp_path, capsys):
    cfg = write(tmp_path, lw_config())
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["run", cfg, "--out", str(out1), "--workers", "1"]) == EXIT_OK
    assert main(["run", cfg, "--out", str(out2), "--workers", "2"]) == EXIT_OK
    capsys.readouterr()
    assert (out1 / "fields.csv").read_bytes() == (out2 / "fields.csv").read_bytes()


def test_csv_has_no_timestamps(tmp_path, capsys):
    cfg = write(tmp_path, audit_config())
    out = tmp_path / "ts"
    assert main(["run", cfg, "--out", str(out), "--workers", "1"]) == EXIT_OK
    capsys.readouterr()
    text = (out / "charges.csv").read_text()
    assert "20" not in text.split("\n")[0]  # header carries no dates
    manifest = json.loads((out / "manifest.json").read_text())
    assert "timestamp" in manifest          # wall-clock data lives here only


def read_fields(path):
    """Data rows of fields.csv as floats, without the header."""
    with open(path, newline="") as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


def test_lw_field_map_bytes_are_pinned(tmp_path, capsys):
    """Criterion 12's config.  The digest was retaken when the exact field on
    the bracketing interval replaced the 9-point central difference of step
    1e-4 (30a82442..., 2966 B): the t,x,y,z and A0..A3 columns kept their
    bytes, and E moved onto Coulomb's law (worst relative error 4.0e-8 ->
    4.9e-16); B stayed zero."""
    cfg = write(tmp_path, lw_config())
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--workers", "1"]) == EXIT_OK
    capsys.readouterr()
    data = (tmp_path / "o" / "fields.csv").read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        "586eaaf98b588109ba77ef026ba082ed6b5959a3c6dcb982b93440e0ce6f54f1", 2942)


def test_guiding_run_bytes_are_pinned(tmp_path, capsys):
    """guiding.csv of the float-valued default packet, taken before the guiding
    Hessian moved onto the shared finite-difference stencil."""
    doc = guiding_config()
    doc["parameters"]["packet"] = {"M_diag": [1.0, 1.0, 1.0, 1.0],
                                   "x0": [0.0, 0.0, 0.0, 0.0], "u": [1.0, 0.2, 0.0, 0.0]}
    cfg = write(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--workers", "1"]) == EXIT_OK
    capsys.readouterr()
    data = (tmp_path / "o" / "guiding.csv").read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        "bc91a20b6c02c0a401b66ec45ec8983bbd696acc05c92c6e82a0ede115582854", 1259)


def test_guiding_run_bytes_of_a_wobbling_packet_are_pinned(tmp_path, capsys):
    """guiding.csv of a packet with unequal widths, off-origin and wobbling,
    taken while packet_phi was called one event at a time.  Its d M d values
    round differently if summed with np.sum instead of the 1-D dot product."""
    doc = guiding_config(tolerance=1.0)
    doc["parameters"].update({
        "packet": {"M_diag": [2.234, 2.97, 4.5, 4.9636], "x0": [0.0456, -1.0681, 1.3733, 0.5899],
                   "u": [1.0, 0.1013, 0.0798, 0.31],
                   "wobble_amp": [-0.0349, -0.1614, 0.0256, 0.0989], "wobble_freq": -3.1614},
        "s_span": [-0.467, 1.9106], "steps": 3})
    cfg = write(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--workers", "1"]) == EXIT_OK
    capsys.readouterr()
    data = (tmp_path / "o" / "guiding.csv").read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        "1a444e1a4b864226395accf27afe6ea4b354d1530a62f4f85d53029149207144", 809)


def test_guiding_bytes_match_the_per_point_stencil(tmp_path, monkeypatch, capsys,
                                                   fd_hessian_per_point):
    """guiding.csv of 20 random packets, wobbling or not, is the same bytes
    whether the guiding Hessian takes its stencil in one call or one point
    at a time."""
    rng = np.random.default_rng(2024)
    for k in range(20):
        packet = {"M_diag": rng.uniform(0.3, 3.0, 4).tolist(),
                  "x0": rng.uniform(-1.0, 1.0, 4).tolist(),
                  "u": [1.0, *rng.uniform(-0.4, 0.4, 3)]}
        if k % 2:
            packet["wobble_amp"] = rng.uniform(-0.2, 0.2, 4).tolist()
            packet["wobble_freq"] = float(rng.uniform(-3.0, 3.0))
        doc = guiding_config()
        doc["parameters"]["packet"] = packet
        cfg = write(tmp_path, doc)
        data = []
        for oracle in (False, True):
            with monkeypatch.context() as m:
                if oracle:
                    m.setattr(ecd_core, "fd_hessian", fd_hessian_per_point)
                out = tmp_path / f"o{k}{oracle:d}"
                assert main(["run", cfg, "--out", str(out), "--workers", "1"]) == EXIT_OK
            data.append((out / "guiding.csv").read_bytes())
        assert data[0] == data[1], packet
    capsys.readouterr()


@pytest.mark.parametrize("kind, parameters, name, digest", [
    ("free-ecd", {"epsilons": [0.1, 0.03], "tolerance_factor": 0.05}, "consistency.csv",
     ("95825fd967a34d7234401087c1ef523e7de8fc5b45fbc85aac8ba4de8da2be7c", 137)),
    ("current-regularization", {"epsilon": 1e-3, "c0": 1e-3, "charge": 1.0}, "profile.csv",
     ("2dfa28ea493af5178a73e6cf8b4443feeddb084a3dfb989a7e79847fe813002f", 1536)),
    ("classical-limit-sweep", {"electric": [0.1, 0.0, 0.0], "factors": [1.0, 0.5],
                               "ratio_bound": 1.0}, "sweep.csv",
     ("6449cd34afadebfc923859954bb2ea3f18c36263459557fb92d8e0d13f7133ab", 151)),
    ("classical-orbit", {"electric": [0.3, 0, 0], "magnetic": [0, 0, 0.2], "charge": 1,
                         "x0": [0, 0, 0, 0], "u0": [1, 0, 0, 0], "s_span": [0, 2],
                         "step": 0.01, "tolerance": 1e-9}, "trajectory.csv",
     ("4ff4c947c169257668c1562d88763f0c9841c6ecc0f57ff83b49c1078d22449b", 30965)),
    ("conservation-audit", {
        "worldlines": [{"u": [1.0, 0.2, 0.1, 0.0], "x0": [0.0, 0.05, -0.1, 0.03],
                        "s_span": [-4, 4], "n": 401, "q": 1.0},
                       {"u": [1.0, -0.1, 0.0, 0.3], "s_span": [-4, 4], "n": 401, "q": -0.7}],
        "grid": {"origin": [-0.4, -1, -1, -1], "spacings": [0.2, 0.25, 0.25, 0.25],
                 "extents": [5, 9, 9, 9]},
        "tolerance": 1e-12}, "charges.csv",
     ("310f10f02fe06fdde4beb40650750cbb2ea00acb46ad1acd8a4473e4efdb1467", 148)),
], ids=["free-ecd", "current-regularization", "classical-limit-sweep", "classical-orbit",
        "conservation-audit"])
def test_scenario_bytes_are_pinned(kind, parameters, name, digest, tmp_path, capsys):
    """The consistency.csv digest was taken while hbar was still a parameter of
    the propagators, currents and pairs.  The profile.csv digest was retaken
    when closed-form Fresnel moments replaced the 60,000-node Fourier sum of
    the static profiles: the r and tail columns kept their bytes, and j0 and
    remainder moved closer to a 50-digit evaluation of the profile (worst
    relative error 6.5e-15 -> 1.3e-15 and 5.0e-9 -> 3.9e-10).
    The trajectory.csv and sweep.csv digests were retaken when the closed-form
    constant-field flow e^{K s} replaced RK4 worldline integration.  In
    trajectory.csv the s column and the zero gamma3 and gamma_dot3 columns
    kept their bytes; gamma and gamma_dot moved onto a 40-digit evaluation of
    the flow (worst error 8.3e-13 -> 4.4e-16, RK4's truncation at step 0.01)
    and norm2_drift fell from 3.2e-15 to 1.7e-15 at most.  In sweep.csv the
    factor column kept its bytes, and the phase-gradient residual and velocity
    recovery, taken along the pair's worldline, moved by at most 2.6e-14.
    sweep.csv was retaken again (from 1f850fe6..., 153 B) when the centre and
    stencil of each phase-gradient sample moved into one stacked
    s'-quadrature: the centre's value is summed in the stack's order of
    subdivision and moved by 1.1e-16 relative.  The factor-0.5 row kept its
    bytes; at factor 1 the residual moved by 9.6e-16 relative and the velocity
    recovery by 5.5e-17 absolute (1.3e-13 relative), one rounding of the
    recovered O(1) velocity.  It was retaken once more (from 33ad74b1...,
    153 B) when phi_eval's own Gauss-Kronrod rule replaced quad_vec: the
    same nodes, now evaluated as numpy arrays, whose complex products and
    powers round differently in the last bit from numpy's scalar operators.
    The stencil's phi values at s = -1 moved by at most 1.7e-16 relative, and
    the central difference divides that by its 2e-3 span: the factor-1
    residual moved by 5.3e-14 relative and its recovery kept its bytes; at
    factor 0.5 the residual and the recovery moved by 7.8e-14 and 7.3e-14
    absolute (3.0e-10 and 2.9e-10 relative).  It was retaken once more (from
    41eb8929..., 153 B to 151 B) when the constant-field Van Vleck prefactor
    moved from a cosh closed form on the eigenvalues of qF to the determinant
    of the flow's top-right block: over this E = 0.1 and the sweep's window
    |s| <= 10 its worst error against a 40-digit evaluation fell from 7.4e-11
    to 1.1e-15 relative.  The factor column kept its bytes; the residuals
    moved by 1.5e-11 and 2.7e-10 relative and the velocity recoveries by
    3.4e-10 and 4.1e-10: each is a difference of O(1) terms, taken by a
    central difference over a 2e-3 span, so the prefactor's last-bit changes
    grow by that much.
    The charges.csv digest was taken while csv.writer still formatted each
    value on its own; it pins the integer slice column written as floats."""
    doc = {"schema_version": "1", "kind": kind, "parameters": parameters}
    cfg = write(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--workers", "1"]) == EXIT_OK
    capsys.readouterr()
    data = (tmp_path / "o" / name).read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == digest


def _csv_writer_oracle(path, header, rows):
    """The per-value writer that scenarios._write_csv replaced."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (int, float, np.floating))
                        else str(v) for v in row])


_LONG = np.random.default_rng(4).standard_normal((2 * scenarios._CSV_BLOCK + 3, 3))
_POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))


def _rows_of_8(values):
    return np.resize(np.asarray(values, dtype=float), (-(-len(values) // 8), 8))


@pytest.mark.parametrize("rows", [
    [[math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2]],
    [[0, -7, 2 ** 53 + 1, True, False, np.float32(0.1), np.float32(-3e38), 0.5]],
    [], np.empty((0, 3)), [[1.5], [-2.0], [math.nan]], np.array([[2.5, 1e-300]]),
    _LONG * np.logspace(-300, 300, len(_LONG))[:, None],
    # every kind of double: random bit patterns (NaNs among them),
    # both neighbours of each power of two, and each side of the switches
    # between fixed and exponent form
    _rows_of_8(np.random.default_rng(30).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
               .view(float)),
    _rows_of_8(np.concatenate([np.nextafter(_POWERS_OF_TWO, 0), _POWERS_OF_TWO,
                               np.nextafter(_POWERS_OF_TWO, math.inf)])),
    _rows_of_8([float(f"1e{e}") for e in range(-323, 309)]),
    [[9999999999999998.0, 1e16, 1e-4, 1e-5, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2,
      -math.nan, 5e-324, 2.2250738585072014e-308]],
], ids=["special", "ints-bools-float32", "no-rows", "no-rows-array", "one-column",
        "one-row", "beyond-one-block", "random-bits", "powers-of-two", "powers-of-ten",
        "format-boundaries"])
def test_csv_writer_matches_the_per_value_writer(rows, tmp_path):
    header = ["a", "b", "c"]
    scenarios._write_csv(tmp_path / "new.csv", header, rows)
    _csv_writer_oracle(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_writer_raises_no_warning_and_keeps_errstate(tmp_path):
    """The digits take wrapping uint64 arithmetic; on numpy scalars it would
    warn, on arrays it does not, and the caller's error state is its own."""
    before = np.geterr()
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        inner = np.geterr()
        for rows in ([[0.1]], _LONG):
            scenarios._write_csv(tmp_path / "new.csv", ["a", "b", "c"], rows)
            _csv_writer_oracle(tmp_path / "old.csv", ["a", "b", "c"], rows)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert np.geterr() == inner
    assert np.geterr() == before


def test_guiding_run_singular_later_stage_is_a_violent_event(tmp_path, capsys):
    """A packet whose Hessian turns singular at an inner RK4 stage ends the
    run with a violent event, not a traceback."""
    doc = {"schema_version": "1", "kind": "guiding-run", "parameters": {
        "packet": {"M_diag": [2, 800, 800, 800], "x0": [0, 0, 0, 0],
                   "u": [0, 1.5, 2, -1.4]},
        "s_span": [0, 3], "steps": 6, "fd_step": 0.4, "tolerance": 3}}
    cfg = write(tmp_path, doc)
    code = main(["run", cfg, "--out", str(tmp_path / "o"), "--workers", "1"])
    stdout = capsys.readouterr().out
    assert code == EXIT_OK

    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    # the condition number is inf: strict JSON writes null and a tag beside it
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text(),
                          parse_constant=reject)
    summary = json.loads(stdout, parse_constant=reject)
    for doc in (manifest, summary):
        event = doc["residuals"]["violent_event"]
        assert event["condition_number"] is None
        assert event["condition_number_nonfinite"] == "inf"


def test_lw_field_map_event_on_worldline_is_nan_row(tmp_path, capsys):
    cfg = write(tmp_path, lw_config())      # the grid's centre is the charge
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--workers", "1"]) == EXIT_OK
    capsys.readouterr()
    rows = read_fields(tmp_path / "o" / "fields.csv")
    nan_rows = [row for row in rows if any(math.isnan(v) for v in row)]
    assert [row[:4] for row in nan_rows] == [[0.0, 0.0, 0.0, 0.0]]
    assert all(math.isnan(v) for v in nan_rows[0][4:])
    # the NaN row goes through the array writer too, to the same bytes
    header = (tmp_path / "o" / "fields.csv").read_text().splitlines()[0].split(",")
    _csv_writer_oracle(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "o" / "fields.csv").read_bytes()
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["residuals"]["covered_points"] == 26


def test_lw_field_map_rejects_fd_step(tmp_path, capsys):
    """The field is exact on the bracketing interval, so lw-field-map has no
    finite-difference step; a config that still sets one is invalid."""
    doc = lw_config()
    doc["parameters"]["fd_step"] = 1e-4
    assert [d.split(":")[0] for d in validate_config(doc)] == ["parameters.fd_step"]
    cfg = write(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_VALIDATION
    assert "parameters.fd_step" in capsys.readouterr().err
    assert not (tmp_path / "o" / "fields.csv").exists()


def _finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


def _draw_u(draw):
    """A timelike, null, spacelike or zero four-velocity, either time direction."""
    v = draw(st.lists(_finite(-2, 2), min_size=3, max_size=3))
    speed = math.sqrt(sum(c * c for c in v))
    u0 = {"timelike": speed + draw(_finite(0.1, 2)), "null": speed,
          "spacelike": speed * draw(_finite(0, 0.9)), "zero": 0.0}
    kind = draw(st.sampled_from(sorted(u0)))
    return [0.0] * 4 if kind == "zero" else [draw(st.sampled_from([1, -1])) * u0[kind]] + v


@st.composite
def lw_configs(draw):
    params = {
        "worldline": {"u": _draw_u(draw),
                      "x0": draw(st.lists(_finite(-1, 1), min_size=4, max_size=4)),
                      "s_span": draw(st.lists(_finite(-3, 3), min_size=2, max_size=2)),
                      "n": draw(st.integers(2, 40)), "q": draw(_finite(-3, 3))},
        "grid": {"origin": draw(st.lists(_finite(-2, 2), min_size=4, max_size=4)),
                 "spacings": draw(st.lists(_finite(0.05, 1), min_size=4, max_size=4)),
                 "extents": draw(st.lists(st.integers(1, 3), min_size=4, max_size=4))},
    }
    return {"schema_version": "1", "kind": "lw-field-map", "parameters": params}


@given(doc=lw_configs())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_lw_field_map_exit_codes_fuzz(doc, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(Path(tmp), doc)
        code = main(["run", cfg, "--out", str(Path(tmp) / "o"), "--workers", "1"])
    capsys.readouterr()
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERIC, EXIT_ACCURACY)


@st.composite
def guiding_configs(draw):
    def vec(lo, hi):
        return draw(st.lists(_finite(lo, hi), min_size=4, max_size=4))

    packet = {"M_diag": draw(st.lists(_finite(1e-3, 1e3).filter(lambda m: m > 0),
                                      min_size=4, max_size=4)),
              "x0": vec(-5, 5), "u": vec(-3, 3)}
    if draw(st.booleans()):
        packet["wobble_amp"] = vec(-1, 1)
        packet["wobble_freq"] = draw(_finite(-5, 5))
    params = {"packet": packet,
              "s_span": draw(st.lists(_finite(-3, 3), min_size=2, max_size=2)),
              "steps": draw(st.integers(2, 8)),
              "tolerance": draw(_finite(1e-6, 10).filter(lambda t: t > 0))}
    if draw(st.booleans()):
        params["fd_step"] = draw(_finite(1e-4, 0.5))
    return {"schema_version": "1", "kind": "guiding-run", "parameters": params}


@given(doc=guiding_configs())
@example(doc={"schema_version": "1", "kind": "guiding-run", "parameters": {    # an RK4 probe
    "packet": {"M_diag": [1.0, 461.0, 950.0, 1.0], "x0": [0.0, 0.0, 0.0, 0.0],  # solves to inf
               "u": [0.0, -0.25, 1.1875, 0.0], "wobble_amp": [0.25, -0.61328125, 0.265625, 0.0],
               "wobble_freq": 2.7421875},
    "s_span": [0.0, 2.7421875], "steps": 2, "tolerance": 1.0}})
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_guiding_run_exit_codes_fuzz(doc, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(Path(tmp), doc)
        code = main(["run", cfg, "--out", str(Path(tmp) / "o"), "--workers", "1"])
    capsys.readouterr()
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERIC, EXIT_ACCURACY)


@st.composite
def orbit_configs(draw):
    s0 = draw(_finite(-2, 2))
    s1 = s0 + draw(_finite(0, 2))
    # about half the steps divide the span; the others almost never do
    n = draw(st.integers(1, 200))
    step = draw(st.one_of(st.just((s1 - s0) / n), _finite(1e-2, 1)))
    params = {"electric": draw(st.lists(_finite(-2, 2), min_size=3, max_size=3)),
              "magnetic": draw(st.lists(_finite(-2, 2), min_size=3, max_size=3)),
              "charge": draw(_finite(-3, 3)),
              "x0": draw(st.lists(_finite(-1, 1), min_size=4, max_size=4)),
              "u0": draw(st.lists(_finite(-3, 3), min_size=4, max_size=4)),
              "s_span": [s0, s1],
              "step": step,
              "tolerance": draw(_finite(1e-12, 10))}
    return {"schema_version": "1", "kind": "classical-orbit", "parameters": params}


@st.composite
def audit_configs(draw):
    def wl():
        # a wide s_span and a large u^0 cross every slice; the rest may not
        u0 = draw(st.one_of(_finite(0.5, 2), _finite(0, 0.5)))
        return {"u": [draw(st.sampled_from([1, -1])) * u0]
                + draw(st.lists(_finite(-0.3, 0.3), min_size=3, max_size=3)),
                "x0": draw(st.lists(_finite(-0.5, 0.5), min_size=4, max_size=4)),
                "s_span": draw(st.one_of(st.just([-3.0, 3.0]), st.lists(
                    _finite(-3, 3), min_size=2, max_size=2))),
                "n": draw(st.integers(2, 40)), "q": draw(_finite(-3, 3))}

    params = {
        "worldlines": [wl() for _ in range(draw(st.integers(1, 2)))],
        "grid": {"origin": [draw(_finite(-0.5, 0.2))] + draw(
                     st.lists(_finite(-1.5, 0), min_size=3, max_size=3)),
                 "spacings": [draw(_finite(0.05, 0.5))] + draw(
                     st.lists(_finite(0.2, 1.5), min_size=3, max_size=3)),
                 "extents": draw(st.lists(st.integers(1, 5), min_size=4, max_size=4))},
        "tolerance": draw(_finite(1e-12, 10)),
    }
    if draw(st.booleans()):
        params["kernel"] = draw(st.sampled_from(["nearest", "trilinear"]))
    return {"schema_version": "1", "kind": "conservation-audit", "parameters": params}


@given(doc=orbit_configs())
@example(doc={**orbit_config(), "parameters": {**orbit_config()["parameters"],
              "s_span": [1.0, 1.0000000000000002], "step": 1.1102230246251565e-16}})
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_classical_orbit_exit_codes_fuzz(doc, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(Path(tmp), doc)
        code = main(["run", cfg, "--out", str(Path(tmp) / "o"), "--workers", "1"])
    capsys.readouterr()
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERIC, EXIT_ACCURACY)


@given(doc=audit_configs())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_conservation_audit_exit_codes_fuzz(doc, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(Path(tmp), doc)
        code = main(["run", cfg, "--out", str(Path(tmp) / "o"), "--workers", "1"])
    capsys.readouterr()
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERIC, EXIT_ACCURACY)


@st.composite
def free_ecd_configs(draw):
    params = {"epsilons": draw(st.lists(_finite(1e-4, 1).filter(lambda e: e > 0),
                                        min_size=1, max_size=2)),
              "u": _draw_u(draw),
              "c0": draw(st.one_of(st.just(0.0), _finite(-3, 3))),
              "tolerance_factor": draw(_finite(1e-3, 10).filter(lambda t: t > 0))}
    if draw(st.booleans()):     # a short s'-window, sometimes below an epsilon
        params["s_max"] = draw(_finite(1e-3, 2).filter(lambda s: s > 0))
    return {"schema_version": "1", "kind": "free-ecd", "parameters": params}


@given(doc=free_ecd_configs())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_free_ecd_exit_codes_fuzz(doc, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(Path(tmp), doc)
        code = main(["run", cfg, "--out", str(Path(tmp) / "o"), "--workers", "1"])
    capsys.readouterr()
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERIC, EXIT_ACCURACY)


@st.composite
def sweep_configs(draw):
    """Weak fields (|q E| < 0.09), small boosts and epsilons from 1e-3 to the
    default keep a run at a few seconds: its phase quadratures grow fast with
    the field and the boost (charge 3 took 50 s, u0 (3, 2, 2, 0) 21 s).  An
    epsilon from 5 up may not fit the s'-window.  The cost also keeps the
    test at 10 examples."""
    factors = draw(st.lists(_finite(1e-3, 1), min_size=2, max_size=2, unique=True))
    if draw(st.booleans()):     # only strictly decreasing factors pass validation
        factors.sort(reverse=True)
    params = {"electric": draw(st.lists(_finite(-0.05, 0.05), min_size=3, max_size=3)),
              "factors": factors,
              "ratio_bound": draw(_finite(1e-3, 10))}
    if draw(st.booleans()):
        params["charge"] = draw(_finite(-1, 1))
    if draw(st.booleans()):     # timelike, null, spacelike, zero, past-directed
        params["u0"] = draw(st.sampled_from([[1.0, 0.3, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                                             [0.5, 0.0, 1.0, 0.0], [0.0] * 4,
                                             [-1.0, 0.0, 0.0, 0.2]]))
    if draw(st.booleans()):
        params["s_span"] = draw(st.lists(_finite(-3, 3), min_size=2, max_size=2))
    if draw(st.booleans()):     # about half divide the worldline span; the others do not
        params["step"] = draw(st.one_of(st.sampled_from([5e-3, 1e-2]), _finite(1e-3, 1)))
    if draw(st.booleans()):
        params["epsilon"] = draw(st.one_of(_finite(1e-3, 1e-2), _finite(5, 20)))
    return {"schema_version": "1", "kind": "classical-limit-sweep", "parameters": params}


@given(doc=sweep_configs())
@example(doc={"schema_version": "1", "kind": "classical-limit-sweep",
              "parameters": {"electric": [0.05, 0.0, 0.0], "factors": [1.0, 0.5],
                             "ratio_bound": 1.0, "u0": [0.0, 0.0, 0.0, 0.0]}})
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_classical_limit_sweep_exit_codes_fuzz(doc, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(Path(tmp), doc)
        code = main(["run", cfg, "--out", str(Path(tmp) / "o"), "--workers", "1"])
    capsys.readouterr()
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERIC, EXIT_ACCURACY)


@st.composite
def regularization_configs(draw):
    def epsilon():      # from far below any calibration to beyond its s'-window
        return 10.0 ** draw(_finite(-8, 2))

    def signed(lo, hi):     # a signed power of ten, or now and then an edge value
        if draw(st.integers(0, 7)) == 0:
            return draw(st.sampled_from([0.0, 1e-170, 1e160]))
        return draw(st.sampled_from([1, -1])) * 10.0 ** draw(_finite(lo, hi))

    params = {"epsilon": epsilon(), "c0": signed(-5, 1), "charge": signed(-2, 1)}
    if draw(st.booleans()):
        params["epsilons_collapse"] = [epsilon() for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        params["tail_window_x"] = draw(st.lists(_finite(0.1, 200), min_size=2, max_size=2))
    if draw(st.booleans()):
        params["smear_width_x"] = draw(_finite(1e-3, 10).filter(lambda w: w > 0))
    if draw(st.booleans()):
        params["slope_tolerance"] = draw(_finite(1e-3, 2).filter(lambda t: t > 0))
    return {"schema_version": "1", "kind": "current-regularization", "parameters": params}


@given(doc=regularization_configs())
@example(doc={"schema_version": "1", "kind": "current-regularization",
              "parameters": {"epsilon": 1e-3, "c0": 1e-3, "charge": 1.0,
                             "tail_window_x": [5.0, 5.0]}})
@example(doc={"schema_version": "1", "kind": "current-regularization",
              "parameters": {"epsilon": 1.0, "c0": 1.0, "charge": 1e-170,
                             "tail_window_x": [0.1, 0.10000000000000002],
                             "smear_width_x": 0.125}})
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_current_regularization_exit_codes_fuzz(doc, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(Path(tmp), doc)
        code = main(["run", cfg, "--out", str(Path(tmp) / "o"), "--workers", "1"])
    capsys.readouterr()
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERIC, EXIT_ACCURACY)
