"""The benchmark's tracer and workloads reach into ecdlab from outside; each
name and keyword they use must exist.

perfbench/tracing.py resolves every (module, attribute) pair in SPANS and
COUNTERS, and the pair constructors it wraps, when a Tracer is entered. A
missing name raises there, so deleting a function the benchmark times fails
this test instead of the benchmark run. perfbench/workloads.py calls the
library with keywords of its own; running each declared workload's seed-0
solve and audit under the tracer fails here when one of them goes away.
perfbench/selftest.py names more of the program (scenarios.validate_config,
scenarios.consistency_residual, ecd_core.EcdPair.free); its suite runs here too.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ecdlab.scenarios  # noqa: F401  (imports every ecdlab module the tracer wraps)

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOAD_NAMES = [w["name"] for w in
                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_wrapped_name():
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    try:                        # exit even after a partial enter: it undoes each wrap
        tracer.__enter__()
    finally:
        tracer.__exit__(None, None, None)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_seed_zero_workload_solves_and_audits_under_the_tracer(name, tmp_path):
    tracing, workloads = _load("tracing"), _load("workloads")
    workload = workloads.WORKLOADS[name]
    inputs = workload.make(0)
    paths = workloads.prepare(inputs, tmp_path)
    with tracing.Tracer():
        outputs = workload.solve(inputs, paths, tmp_path / "out")
    audit = workload.audit(inputs, outputs)
    assert audit.problems == []
    assert audit.figures
    for figure, value, target in audit.figures:
        assert target is None or value <= target, (figure, value, target)


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "selftest.py"], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
