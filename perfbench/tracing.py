"""Layer tracing from outside the program: spans, counters and self time.

The tracer replaces public ecdlab functions with wrappers for the length of
one traced solve. Every module attribute that holds the original object is
replaced, because a caller looks a name up in its own module
(``ecd_core.constant_field_van_vleck``, ``scenarios.lw_potential``), not only
in the module that defines it. Methods are replaced on their class.

A span records (name, start, end, parent). Spans stay in memory for the solve
and are reduced to per-layer figures when it ends; a layer's self time is its
span minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) pairs timed as spans; the span name is
# "<module>.<attribute>", e.g. "dynamics.Trajectory.state_at".
SPANS = [
    ("propagators", "constant_field_van_vleck"),
    ("propagators", "free_propagator"),
    ("ecd_core", "phi_eval"),
    ("ecd_core", "consistency_residual"),
    ("ecd_core", "classical_phase_gradient_check"),
    ("ecd_core", "constant_field_pair"),
    ("ecd_core", "integrate_guiding"),
    ("dynamics", "Trajectory.state_at"),
    ("dynamics", "integrate_worldline"),
    ("em_sources", "lw_potential"),
    ("em_sources", "lw_field"),
    ("em_sources", "deposit_electric_current"),
    ("grids", "deposit_line_current"),
    ("grids", "grid_divergence"),
    ("grids", "grid_charge"),
    ("ecd_currents", "ecd_energy_momentum"),
    ("ecd_currents", "ecd_dilatation_current"),
    ("ecd_currents", "ecd_electric_current"),
    ("ecd_currents", "continuity_residual"),
    ("ecd_currents", "free_charge_j0"),
    ("ecd_currents", "radial_smear"),
    ("ecd_currents", "subtracted_profile_slope"),
    ("scenarios", "run_scenario"),
    ("scenarios", "load_scenario"),
]

# Called too often, or too cheap, for a span: only counted.
COUNTERS = [
    ("propagators", "expm"),
    ("ecd_core", "guiding_velocity"),
    ("minkowski", "minkowski_dot"),
    ("grids", "EventGrid.points"),
]

# The wave's public methods, on PhiField and its subclasses; every call counts
# towards wave_evals_per_node.
WAVE_METHODS = ("value", "grad", "ds", "ds_grad", "abs2")

# The constant-field action is a closure, not a module attribute: it is
# wrapped on the provider that constant_field_action_provider returns.
ACTION_SPAN = "propagators.constant_field_action"
SPAN_NAMES = tuple(f"{m}.{p}" for m, p in SPANS) + (ACTION_SPAN,)

# Grid-current kernels: (grid points x s-nodes x waves) is their exact work count.
CURRENT_KERNELS = ("ecd_currents.ecd_energy_momentum",
                   "ecd_currents.ecd_dilatation_current",
                   "ecd_currents.ecd_electric_current")

LAYERS = tuple(dict.fromkeys(m for m, _ in SPANS))


def self_times(spans):
    """Self time per span name for spans given as (name, start, end, parent).

    ``parent`` is the index of the enclosing span in ``spans``, or -1. Child
    intervals are clipped to their parent and merged before subtraction, so
    overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if hi is None or c_start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_start, c_end
            else:
                hi = max(hi, c_end)
        if hi is not None:
            covered += hi - lo
        out[name] += (end - start) - covered
    return dict(out)


def root_inclusive(spans, prefix):
    """Summed duration of spans named ``prefix*`` whose parent is not one of them."""
    total = 0.0
    for name, start, end, parent in spans:
        if name.startswith(prefix) and (parent < 0 or not spans[parent][0].startswith(prefix)):
            total += end - start
    return total


def _module(short):
    return sys.modules["ecdlab." + short]


def _resolve(short, path):
    owner = _module(short)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps ecdlab's public functions while active and records what they do."""

    def __init__(self):
        self.counts = Counter()
        self.spans = []
        self._stack = []
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            counts[name] += 1
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter(), parent)
                stack.pop()
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new):
        """Rebind every ecdlab module attribute that holds ``original``."""
        for modname, mod in list(sys.modules.items()):
            if modname != "ecdlab" and not modname.startswith("ecdlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, new)

    def _install(self, short, path, make):
        owner, attr = _resolve(short, path)
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._replace(owner, attr, staticmethod(make(raw.__func__)))
        elif inspect.isclass(owner):
            self._replace(owner, attr, make(raw))
        else:
            self._replace_everywhere(raw, make(raw))

    # -- derived counts ---------------------------------------------------

    def _hook(self, name, fn):
        """Post-call hook deriving exact work counts from a span's arguments."""
        counts = self.counts
        if name == "dynamics.integrate_worldline":
            def after(traj, args, kwargs):
                counts["dynamics.rk4_steps"] += traj.s.size - 1
            return after
        if name not in CURRENT_KERNELS:
            return None
        sig = inspect.signature(fn)

        def after(out, args, kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            grid = bound["p"].grid if "p" in bound else bound["grid"]
            nodes = len(bound["s_nodes"]) * (len(bound["phis"]) if "phis" in bound else 1)
            counts["ecd_currents.s_nodes"] += nodes
            counts["ecd_currents.point_nodes"] += nodes * math.prod(grid.extents)
        return after

    def _wrap_pair(self, fn):
        counted = self._counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pair = fn(*args, **kwargs)
            return dataclasses.replace(
                pair, propagator=counted("ecd_core.propagator", pair.propagator))

        return wrapper

    def _wrap_action_provider(self, fn):
        span = self._span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            provider = fn(*args, **kwargs)
            return dataclasses.replace(
                provider, action=span(ACTION_SPAN, provider.action))

        return wrapper

    # -- activation -------------------------------------------------------

    def __enter__(self):
        self.counts.clear()
        self.spans.clear()
        # pair constructors first, so the span wrappers below see their
        # replacements and the pair's propagator is counted
        self._install("ecd_core", "constant_field_pair", self._wrap_pair)
        self._install("ecd_core", "EcdPair.free", self._wrap_pair)
        self._install("propagators", "constant_field_action_provider",
                      self._wrap_action_provider)
        for short, path in SPANS:
            name = f"{short}.{path}"
            self._install(short, path,
                          lambda fn, name=name: self._span(name, fn, self._hook(name, fn)))
        for short, path in COUNTERS:
            name = f"{short}.{path}"
            self._install(short, path, lambda fn, name=name: self._counted(name, fn))
        base = _module("ecd_currents").PhiField
        for cls in (base, *base.__subclasses__()):
            for meth in WAVE_METHODS:
                if meth in cls.__dict__:
                    self._replace(cls, meth, self._counted(
                        "ecd_currents.wave_evals", cls.__dict__[meth]))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False
