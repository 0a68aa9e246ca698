"""ecdlab benchmark: time to an audited solution, end to end and per layer.

    python3 perfbench/run.py --workload cf-wave --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. Load is a closed loop: one client in this process starts
each solve when the previous one ends, until ``--seconds`` have passed (at
least three solves). Every solve is audited; the last line of standard output
is one JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``). See perfbench/README.md.
"""

import os

# One BLAS thread: extra threads spin on this kind of small-matrix work and
# make the solves slower and noisier. Children inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_SOLVES = 3
SETUP_PROBES = 3
SPANS_WRITTEN = 20000          # spans of the first traced solve kept in the trace file


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "ecdlab" / "__init__.py").is_file():
        _fail(f"no ecdlab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ecdlab
    if SRC.resolve() not in Path(ecdlab.__file__).resolve().parents:
        _fail(f"imported ecdlab from {ecdlab.__file__}, not from {SRC}")
    import workloads
    return workloads


def machine():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def setup_probe(args):
    """Child process: the set-up a run pays before its first solve."""
    workloads = _import_program()
    workload = workloads.WORKLOADS[args.workload]
    workloads.prepare(workload.make(args.seed), Path(args.workdir))
    print("ready", flush=True)


def measure_setup(args, workdir):
    """Median wall time from starting a fresh interpreter to ready-to-solve."""
    samples = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"probe-{k}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", "--workdir", str(probe_dir)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            _fail(f"set-up probe failed (exit {proc.returncode})")
        samples.append(elapsed)
    return samples


def fingerprint(figures, csvs):
    """What must not change between solves of one run: figures and CSV bytes."""
    out = {"figures": {name: repr(value) for name, value, _ in figures}}
    for path in csvs:
        data = Path(path).read_bytes()
        out[Path(path).parent.name + "/" + Path(path).name] = [
            hashlib.sha256(data).hexdigest(), len(data)]
    return out


class Solver:
    """Runs and audits solves of one workload; keeps what the report needs."""

    def __init__(self, workload, inputs, paths, out):
        self.workload, self.inputs, self.paths, self.out = workload, inputs, paths, out
        self.first = None
        self.attempted = self.failed = 0
        self.worst_ratio = 0.0
        self.csv_bytes = 0
        self.audit = None

    def solve(self, label, tracer=None):
        gc.collect()
        self.audit = None
        cpu0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        error = None
        try:
            if tracer is None:
                outputs = self.workload.solve(self.inputs, self.paths, self.out)
            else:
                with tracer:
                    outputs = self.workload.solve(self.inputs, self.paths, self.out)
        except Exception as exc:        # a failed solve is data, not a crash
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        cpu1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
        self.attempted += 1
        problems, text = ([error], "") if error else self._check(outputs)
        if problems:
            self.failed += 1
        status = "FAILED " + "; ".join(problems) if problems else "ok"
        print(f"solve {self.attempted} ({label}): {elapsed:.4f} s  {text}  {status}", flush=True)
        return elapsed, cpu

    def _check(self, outputs):
        self.audit = audit = self.workload.audit(self.inputs, outputs)
        problems = list(audit.problems)
        parts = []
        for name, value, target in audit.figures:
            if target is None:
                parts.append(f"{name}={value:.3e}")
                continue
            parts.append(f"{name}={value:.3e}/{target:.0e}")
            self.worst_ratio = max(self.worst_ratio, value / target)
            if not value <= target:
                problems.append(f"{name} {value:.3e} > target {target:.0e}")
        fp = fingerprint(audit.figures, audit.csvs)
        parts += [f"{k} sha256={v[0][:12]} {v[1]} B" for k, v in fp.items() if k != "figures"]
        if self.first is None:
            self.first = fp
        elif fp != self.first:
            problems.append("outputs differ from the first solve of this run")
        self.csv_bytes = sum(v[1] for k, v in fp.items() if k != "figures")
        return problems, "  ".join(parts)


def percentile_note(samples):
    """Highest whole percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return f"n={n}; no percentile has 10 samples beyond it"
    p = math.floor(100 * (n - 10) / n)
    return f"n={n}; p{p}={statistics.quantiles(samples, n=100)[p - 1]:.4f} s"


def layer_metrics(tracer, elapsed, cpu, solver):
    """Per-layer figures of one traced solve."""
    spans = tracer.spans
    self_s = tracing.self_times(spans)
    c = tracer.counts
    m = {}
    for name in tracing.SPAN_NAMES:
        m[f"{name}.calls"] = c[name]
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for short, path in tracing.COUNTERS:
        m[f"{short}.{path}.calls"] = c[f"{short}.{path}"]
    m["ecd_core.propagator.calls"] = c["ecd_core.propagator"]
    phi = c["ecd_core.phi_eval"]
    m["ecd_core.kernel_evals_per_phi"] = c["ecd_core.propagator"] / phi if phi else 0.0
    m["dynamics.rk4_steps"] = c["dynamics.rk4_steps"]
    events = solver.audit.events if solver.audit else 0
    m["em_sources.coverage"] = solver.audit.covered / events if events else 0.0
    m["em_sources.us_per_event"] = (
        1e6 * tracing.root_inclusive(spans, "em_sources.lw_") / events if events else 0.0)
    nodes, point_nodes = c["ecd_currents.s_nodes"], c["ecd_currents.point_nodes"]
    m["ecd_currents.point_nodes"] = point_nodes
    kernel_s = sum(e - s for name, s, e, _ in spans if name in tracing.CURRENT_KERNELS)
    m["ecd_currents.ns_per_point_node"] = 1e9 * kernel_s / point_nodes if point_nodes else 0.0
    m["ecd_currents.wave_evals_per_node"] = c["ecd_currents.wave_evals"] / nodes if nodes else 0.0
    m["scenarios.csv_bytes"] = solver.csv_bytes
    m["process.cpu_s"] = cpu
    for layer in tracing.LAYERS:
        m[f"layer.{layer}.self_frac"] = sum(
            v for k, v in self_s.items() if k.startswith(layer + ".")) / elapsed
    return m


def closed_loop(seconds, step, minimum):
    """Call ``step`` (which returns its duration) back to back for ``seconds``.

    Stops before a step that would likely end past the deadline, but only
    after ``minimum`` steps.
    """
    start = time.perf_counter()
    durations = []
    while True:
        durations.append(step())
        if (len(durations) >= minimum and time.perf_counter() - start
                + statistics.median(durations) > seconds):
            return durations


def load_metric_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def emit(solver, values, spec):
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({"correct": solver.failed == 0, "attempted": solver.attempted,
                      "failed": solver.failed, "metrics": metrics}))


def plain_run(args, solver, setup):
    durations = closed_loop(args.seconds, lambda: solver.solve("untraced")[0], MIN_SOLVES)
    values = {"solve_s": statistics.median(durations),
              "setup_s": statistics.median(setup),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "accuracy_ratio": solver.worst_ratio}
    print(f"solve_s = {values['solve_s']:.4f} s (median; {percentile_note(durations)})")
    print(f"setup_s = {values['setup_s']:.4f} s (median of "
          + ", ".join(f"{s:.4f}" for s in setup) + ")")
    print(f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB")
    print(f"accuracy_ratio = {values['accuracy_ratio']:.4g} (worst figure / target)")
    print(f"failed_frac = {solver.failed / solver.attempted:g} "
          f"({solver.failed} failed / {solver.attempted} attempted)")
    return values


def traced_run(args, solver, workload):
    """Alternate untraced and traced solves; per-layer figures are medians."""
    plain, traced, layers, kept = [], [], [], []

    def pair():
        start = time.perf_counter()
        plain.append(solver.solve("untraced")[0])
        tracer = tracing.Tracer()
        elapsed, cpu = solver.solve("traced", tracer)
        traced.append(elapsed)
        layers.append(layer_metrics(tracer, elapsed, cpu, solver))
        if not kept:
            kept.append(tracer.spans[:SPANS_WRITTEN])
        return time.perf_counter() - start

    closed_loop(args.seconds, pair, 1)
    values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(f"tracing overhead = {values['trace.overhead_s']:.4f} s per solve "
          f"(traced {statistics.median(traced):.4f} s, untraced {statistics.median(plain):.4f} s)")
    for k in sorted(values):
        print(f"  {k} = {values[k]:.6g}")
    trace_file = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "per_solve": layers,
        "spans_of_first_traced_solve": {
            "fields": ["name", "start", "end", "parent"], "limit": SPANS_WRITTEN,
            "spans": kept[0]}}))
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)

    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    end_to_end, per_layer = load_metric_spec()
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine().items()))
    print(f"workload {workload.name}, seed {args.seed}: {workload.why}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        setup = None if args.trace else measure_setup(args, workdir)
        inputs = workload.make(args.seed)
        solver = Solver(workload, inputs, workloads.prepare(inputs, workdir), workdir / "out")
        if args.trace:
            values, spec = traced_run(args, solver, workload), per_layer
        else:
            values, spec = plain_run(args, solver, setup), end_to_end
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(solver, values, spec)
    return 0 if solver.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
