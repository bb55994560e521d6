"""Spans and counters recorded around czkit's layers, from outside the package.

`Tracer.install` replaces module attributes of an imported czkit with
wrappers that open a span per call and add exact work counts; `src/` is
never edited.  Spans carry a name, start, end, parent span and op id, stay
in memory and are written out by the caller.  A layer's self time is its
span minus the spans of its children.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute) -> layer name; each wrapped callable gets one span per
# call.  The counting hooks below add the work counts of a layer.  Expected
# couplings to the end-to-end metrics:
#   admissibility.*, polyalg.float_eval.*  -> check-line wall_s; identities-plane flat
#   identities.*, exact.*                  -> identities-plane wall_s; check-line flat
#   gridops.hl_all_centers.*, hardy_littlewood_1d.* -> check-line wall_s and
#                                             peak_rss_mb; identities-plane flat
#   gridops.beurling_*, hardy_littlewood_2d.* -> identities-plane wall_s;
#                                             check-line flat
#   cli.self_s, experiments.*.self_s       -> flat everywhere
# The two private passes are traced because they are the 1D and 2D interval
# and square scans under hardy_littlewood, m_delta and iterated_m2.
LAYERS = {
    ("cli", "main"): "cli",
    ("kernels", "load_kernel_spec"): "kernels.load_kernel_spec",
    ("polyalg", "divide_exact"): "polyalg.divide_exact",
    ("admissibility", "check_maximal_control"): "admissibility.check",
    ("admissibility", "sphere_grid"): "admissibility.sphere_grid",
    ("exact", "binomial"): "exact.binomial",
    ("exact", "gamma_half_integer"): "exact.gamma_half_integer",
    ("gridops", "hilbert_maximal"): "gridops.hilbert_maximal",
    ("gridops", "hilbert_transform_many"): "gridops.hilbert_transform_many",
    ("gridops", "_interval_averages_max"): "gridops.hardy_littlewood_1d",
    ("gridops", "_hl_2d"): "gridops.hardy_littlewood_2d",
    ("gridops", "iterated_m2"): "gridops.iterated_m2",
    ("gridops", "hardy_littlewood_all_centers"): "gridops.hl_all_centers",
    ("gridops", "beurling_maximal"): "gridops.beurling_maximal",
    ("gridops", "beurling_transform_grid"): "gridops.beurling_transform_grid",
}
IDENTITY_VERIFIERS = (
    "radial_laplacian_check",
    "verify_matching_coeffs",
    "verify_series_constants",
    "falling_factorial_sum_a",
    "falling_factorial_sum_b",
    "verify_radial_sum_identity",
    "verify_triple_binomial",
    "verify_series_stabilization",
)
for _name in IDENTITY_VERIFIERS:
    LAYERS[("identities", _name)] = f"identities.{_name}"

EXPERIMENT_NAMES = (
    "counterexample-growth",
    "weak11-failure",
    "llogl-modular",
    "pointwise-ratios",
    "beurling-composition",
)
FLOAT_EVAL = "polyalg.float_eval"


def _hilbert_radii(args, kwargs, result) -> dict[str, int]:
    """Distinct truncation radii the exact sup ranges over: every positive
    cell-edge distance of every piece, plus an explicit grid's radii."""
    f, x = args[0], float(args[1])
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    fs = [f] if hasattr(f, "edges") else list(f)
    d = np.concatenate([np.abs(g.edges() - x) for g in fs])
    d = d[d > 0]
    if grid is not None:
        d = np.concatenate([d, grid.eps])
    return {"gridops.hilbert_maximal.radii": int(np.unique(d).size) or 1}


def _beurling_radii(args, kwargs, result) -> dict[str, int]:
    f = args[0]
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    if grid is None:  # the default radii of the module that defines f's type
        grid = sys.modules[type(f).__module__].TruncationGrid.default_for(f)
    return {"gridops.beurling_maximal.radii": int(np.count_nonzero(grid.eps >= f.h / 2))}


def _transform_many_pairs(args, kwargs, result) -> dict[str, int]:
    f, xs = args[0], args[1]
    return {"gridops.hilbert_transform_many.pairs": int(np.asarray(xs).size) * (len(f.values) + 1)}


def _transform_grid_pairs(args, kwargs, result) -> dict[str, int]:
    f, shape = args[0], args[3] if len(args) > 3 else kwargs["shape"]
    pairs = int(np.count_nonzero(f.values)) * int(shape[0]) * int(shape[1])
    return {"gridops.beurling_transform_grid.pairs": pairs}


def _all_centers(args, kwargs, result) -> dict[str, int]:
    k = len(args[0])
    # one dense K x K float64 table: computed from the shape, not measured
    return {"gridops.hl_all_centers.k_sum": k, "gridops.hl_all_centers.bytes_computed": 8 * k * k}


# layer -> function(args, kwargs, result) -> {metric: increment}.  Counts
# derived from the arguments are the work asked of the layer, so they stay
# meaningful when its implementation changes.
COUNTERS = {
    "admissibility.sphere_grid": lambda a, k, r: {"admissibility.sphere_grid.points": len(r[0])},
    "admissibility.check": lambda a, k, r: {"admissibility.depth_sum": int(r.depth_used)},
    "gridops.hilbert_maximal": _hilbert_radii,
    "gridops.hilbert_transform_many": _transform_many_pairs,
    "gridops.hardy_littlewood_1d": lambda a, k, r: {"gridops.hardy_littlewood_1d.cells": len(a[1])},
    "gridops.hl_all_centers": _all_centers,
    "gridops.beurling_maximal": _beurling_radii,
    "gridops.beurling_transform_grid": _transform_grid_pairs,
}
COUNT_SPAN = "trace.count"
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op")


def _layer(layer: str, *counts: str, timing: str = "s") -> list[tuple[str, str]]:
    return [(f"{layer}.{timing}", "s")] + [(f"{layer}.{c}", "count") for c in counts]


# The per-layer metrics, in report order, with their units.
PER_LAYER = (
    [("cli.self_s", "s")]
    + _layer("kernels.load_kernel_spec", "calls")
    + _layer("polyalg.divide_exact", "calls")
    + _layer(FLOAT_EVAL, "points")
    + _layer("admissibility.check", timing="self_s")
    + _layer("admissibility.sphere_grid", "points")
    + [("admissibility.depth_sum", "count")]
    + [m for name in IDENTITY_VERIFIERS for m in _layer(f"identities.{name}", "calls")]
    + _layer("exact.binomial", "calls")
    + _layer("exact.gamma_half_integer", "calls")
    + _layer("gridops.hilbert_maximal", "calls", "radii")
    + _layer("gridops.hilbert_transform_many", "pairs")
    + _layer("gridops.hardy_littlewood_1d", "calls", "cells")
    + _layer("gridops.hardy_littlewood_2d", "calls")
    + _layer("gridops.iterated_m2")
    + _layer("gridops.hl_all_centers", "calls", "k_sum")
    + [("gridops.hl_all_centers.bytes_computed", "B")]
    + _layer("gridops.beurling_maximal", "calls", "radii")
    + _layer("gridops.beurling_transform_grid", "pairs")
    + [(f"experiments.{name}.self_s", "s") for name in EXPERIMENT_NAMES]
    + [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
)


def layer_metrics(totals: dict, counts: dict) -> dict[str, float]:
    """One traced pass's per-layer values, except the trace.* pair that
    needs the untraced passes; layers never entered read 0."""
    out = {}
    for name, unit in PER_LAYER:
        if name.startswith("trace."):
            continue
        layer, _, field = name.rpartition(".")
        out[name] = totals.get(layer, {}).get(field, 0.0) if unit == "s" else counts.get(name, 0)
    return out


class Tracer:
    """In-memory span log plus exact counters.

    A span is the tuple (name, start, end, parent index or -1, op id).  A
    wrapped layer called again inside itself opens no second span, so a
    layer's total time never counts the same interval twice.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id: str | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _stack(self) -> list[tuple[str, int]]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span(self, name: str):
        return _Span(self, name)

    def count(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    # -- aggregation --------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed duration, summed self time and call count."""
        durs = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += durs[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, _, _, _, _) in enumerate(self.spans):
            agg = out[name]
            agg["s"] += durs[i]
            agg["self_s"] += durs[i] - child[i]
            agg["calls"] += 1
        return dict(out)

    def write_jsonl(self, fh, base: int = 0) -> int:
        """One JSON array per span, in the field order of SPAN_FIELDS, with
        ids and parents offset by `base`; returns the next free id."""
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            fh.write(json.dumps([base + i, name, start, end, base + parent if parent >= 0 else None, op]) + "\n")
        return base + len(self.spans)

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn, layer: str):
        tracer = self
        counter = COUNTERS.get(layer)
        call_key = f"{layer}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if any(name == layer for name, _ in stack):
                return fn(*args, **kwargs)
            with tracer.span(layer):
                result = fn(*args, **kwargs)
            tracer.count(call_key, 1)
            if counter is not None:
                with tracer.span(COUNT_SPAN):
                    for key, n in counter(args, kwargs, result).items():
                        tracer.count(key, n)
            return result

        return wrapper

    def _wrap_evaluator(self, factory):
        tracer = self

        @functools.wraps(factory)
        def float_evaluator(poly):
            ev = factory(poly)

            def traced_ev(pts):
                with tracer.span(FLOAT_EVAL):
                    out = ev(pts)
                tracer.count(f"{FLOAT_EVAL}.points", len(pts))
                tracer.count(f"{FLOAT_EVAL}.calls", 1)
                return out

            return traced_ev

        return float_evaluator

    def _replace_everywhere(self, original, wrapper) -> None:
        """Point every czkit module attribute that names `original` at the
        wrapper, so `from .x import f` bindings are traced too."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "czkit" or modname.startswith("czkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self, czkit_modules: dict[str, object]) -> None:
        """Wrap the layers of an imported czkit; `uninstall` undoes it."""
        for (modname, attr), layer in LAYERS.items():
            mod = czkit_modules.get(modname)
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                self.missing.append(layer)
                continue
            self._replace_everywhere(original, self._wrap(original, layer))
        polyalg = czkit_modules.get("polyalg")
        cls = getattr(polyalg, "MultiPoly", None)
        if cls is not None and hasattr(cls, "float_evaluator"):
            original = cls.__dict__["float_evaluator"]
            self._restore.append((cls, "float_evaluator", original))
            cls.float_evaluator = self._wrap_evaluator(original)
        else:
            self.missing.append(FLOAT_EVAL)
        experiments = czkit_modules.get("experiments")
        registry = getattr(experiments, "EXPERIMENTS", {})
        for name in EXPERIMENT_NAMES:
            fn = registry.get(name)
            if fn is None:
                self.missing.append(f"experiments.{name}")
                continue
            wrapped = self._wrap(fn, f"experiments.{name}")
            self._restore.append((registry, name, fn))
            registry[name] = wrapped
            self._replace_everywhere(fn, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._restore = []


class _Span:
    __slots__ = ("tracer", "name", "start", "parent")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1][1] if stack else -1
        with self.tracer._lock:
            idx = len(self.tracer.spans)
            self.tracer.spans.append((self.name, 0.0, 0.0, self.parent, self.tracer.op_id))
        stack.append((self.name, idx))
        self.start = self.tracer.clock()
        return self

    def __exit__(self, *exc):
        end = self.tracer.clock()
        _, idx = self.tracer._stack().pop()
        self.tracer.spans[idx] = (self.name, self.start, end, self.parent, self.tracer.op_id)
        return False
