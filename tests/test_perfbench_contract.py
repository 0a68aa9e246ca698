"""The benchmark's tracer wraps ecdlab names from outside; each must exist.

perfbench/tracing.py resolves every (module, attribute) pair in SPANS and
COUNTERS, and the pair constructors it wraps, when a Tracer is entered. A
missing name raises there, so deleting a function the benchmark times fails
this test instead of the benchmark run.
"""

import importlib.util
from pathlib import Path

import ecdlab.scenarios  # noqa: F401  (imports every ecdlab module the tracer wraps)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_wrapped_name():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:                        # exit even after a partial enter: it undoes each wrap
        tracer.__enter__()
    finally:
        tracer.__exit__(None, None, None)
