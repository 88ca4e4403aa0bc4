"""Spans and per-layer counters, recorded from outside the package.

install() replaces each public function listed in LAYERS with a wrapper,
in every package module that binds it, so calls between modules pass
through the wrappers as well as calls from the benchmark.  A wrapped call
is either a span (name, start, end, parent span, operation id) or, for the
hot leaf calls, only counts and busy time charged to the enclosing span.
Spans stay in memory until dump().

Self time is a call's duration minus the calls it made to other wrapped
functions; each layer's busy time is the sum of its self times.
"""

import importlib
import json
import math
import time
from collections import defaultdict

# layer -> function name -> "span" or "leaf".
LAYERS = {
    "scattering": {"solve_matching": "leaf", "s_matrix": "leaf"},
    "eigenbasis": {"scattering_wave": "leaf", "energy_prefactor": "leaf"},
    "testspace": {"apply_observable": "span", "evaluate": "leaf",
                  "inner_product": "span", "seminorm": "span",
                  "lincomb": "span"},
    "quadrature": {"integrate_line": "span", "integrate_line_batch": "span",
                   "integrate_energy": "span",
                   "integrate_energy_batch": "span"},
    "transforms": {"energy_transform": "span", "momentum_transform": "span",
                   "synthesize_energy": "span",
                   "synthesize_momentum": "span", "parseval_defect": "span",
                   "spectral_probability": "span",
                   "spectral_matrix_element": "span",
                   "expectation_uncertainty": "span"},
    "verify": {"check_eigen_equation": "span",
               "check_eigenbra_conjugation": "span",
               "check_delta_normalization": "span",
               "check_commutators": "span",
               "check_invariance_battery": "span",
               "check_non_member": "span"},
    "cli": {"main": "span"},
}

MODULES = ("barrierkets", "barrierkets.scattering", "barrierkets.eigenbasis",
           "barrierkets.testspace", "barrierkets.quadrature",
           "barrierkets.transforms", "barrierkets.verify", "barrierkets.cli")

# The transforms functions whose quadrature columns are direct piece
# evaluations feeding an amplitude cache.
CACHE_BUILDERS = ("energy_transform", "momentum_transform")
SUITE_CHECKS = ("eigen_equation_h", "eigen_equation_p", "eigenbra_conjugation",
                "delta_normalization_energy", "delta_normalization_momentum",
                "commutators", "invariance_battery", "non_member_flagged")
GL_NODES = 15


class _Frame:
    __slots__ = ("name", "layer", "span_id", "start", "child", "layer_child",
                 "columns", "piece_evals")

    def __init__(self, name, layer, span_id, start):
        self.name = name
        self.layer = layer
        self.span_id = span_id
        self.start = start
        self.child = 0.0        # time in directly nested wrapped calls
        self.layer_child = 0.0  # time in the nearest nested same-layer calls
        self.columns = 0
        self.piece_evals = 0


class Tracer:
    def __init__(self):
        self.op = None
        self.spans = []
        self.leaf = {}          # span id -> {leaf name: [calls, busy_s]}
        self.stack = []
        self.counts = defaultdict(float)
        self.energies = set()
        self.errors = defaultdict(list)
        self.clock = time.perf_counter

    # Frames ---------------------------------------------------------------

    def _push(self, name, layer, span):
        span_id = len(self.spans) if span else None
        frame = _Frame(name, layer, span_id, self.clock())
        if span:
            self.spans.append([span_id, self._span_parent(), self.op,
                               f"{layer}.{name}", frame.start, None])
        self.stack.append(frame)
        return frame

    def _pop(self, frame):
        """Close a frame; returns its duration."""
        end = self.clock()
        self.stack.pop()
        duration = end - frame.start
        c = self.counts
        c[f"self_s.{frame.layer}"] += duration - frame.child
        # Time of a function net of the same-layer functions it called, so
        # that nested calls (an overlap computing its transforms) are not
        # counted twice.
        c[f"excl_s.{frame.layer}.{frame.name}"] += duration - frame.layer_child
        if self.stack:
            self.stack[-1].child += duration
            outer = self._nearest(frame.layer)
            if outer is not None:
                outer.layer_child += duration
        if frame.span_id is not None:
            self.spans[frame.span_id][5] = end
        else:
            calls = self.leaf.setdefault(self._span_parent(), {}).setdefault(
                f"{frame.layer}.{frame.name}", [0, 0.0])
            calls[0] += 1
            calls[1] += duration
        return duration

    def _span_parent(self):
        for frame in reversed(self.stack):
            if frame.span_id is not None:
                return frame.span_id
        return None

    def _nearest(self, layer):
        for frame in reversed(self.stack):
            if frame.layer == layer:
                return frame
        return None

    def _count_error(self, layer, exc):
        if type(exc).__name__ != "AccuracyError":
            return
        seen = self.errors[layer]
        if not any(e is exc for e in seen):
            seen.append(exc)
            self.counts[f"{layer}.accuracy_errors"] += 1

    # Wrappers -------------------------------------------------------------

    def wrap(self, layer, name, fn, mode):
        if layer == "quadrature":
            return self._wrap_quadrature(name, fn)
        tracer = self
        span = mode == "span"

        def wrapper(*args, **kwargs):
            frame = tracer._push(name, layer, span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._pop(frame)
                tracer._count_error(layer, exc)
                # Evaluations of a failed build count: they are its waste.
                tracer.counts["transforms.piece_evals"] += frame.piece_evals
                raise
            duration = tracer._pop(frame)
            tracer._record(layer, name, args, kwargs, result, frame, duration)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _record(self, layer, name, args, kwargs, result, frame, duration):
        c = self.counts
        if (layer in ("scattering", "eigenbasis")
                and self._nearest(layer) is not None):
            # A call made inside another of its layer (s_matrix calls
            # solve_matching, scattering_wave calls energy_prefactor) is
            # part of that call: count only what callers outside ask for.
            return
        if layer == "scattering":
            c["scattering.calls"] += 1
            self.energies.add(float(args[1]))
        elif layer == "eigenbasis":
            c["eigenbasis.calls"] += 1
            if name == "scattering_wave":
                c["eigenbasis.points"] += _size(args[4] if len(args) > 4
                                                else kwargs["x"])
        elif layer == "testspace":
            if name == "evaluate":
                points = _size(args[1] if len(args) > 1 else kwargs["x"])
                c["testspace.evaluate_calls"] += 1
                c["testspace.evaluate_points"] += points
                c["testspace.evaluate_term_points"] += points * len(args[0].terms)
            elif name == "apply_observable":
                terms = len(result.terms)
                c["testspace.apply_calls"] += 1
                c["testspace.terms_out_sum"] += terms
                c["testspace.terms_out_max"] = max(
                    c["testspace.terms_out_max"], terms)
        elif layer == "transforms" and name in CACHE_BUILDERS:
            c["transforms.piece_evals"] += frame.piece_evals
            if frame.piece_evals:
                # Only a call that evaluated pieces built a cache; a memo hit
                # returns one built earlier.
                points = result.cache_points
                c["transforms.cache_points"] += (
                    sum(points.values()) if isinstance(points, dict) else points)
                c["transforms.max_interp_error"] = max(
                    c["transforms.max_interp_error"], result.max_interp_error)
        elif layer == "verify":
            c[f"verify.check_s.{result.check_name}"] += duration
            if not result.passed and not result.inconclusive:
                c["verify.checks_failed"] += 1

    def _wrap_quadrature(self, name, fn):
        tracer = self

        def wrapper(f, *args, **kwargs):
            frame = tracer._push(name, "quadrature", True)

            def integrand(x):
                inner = tracer._push("integrand", "integrand", False)
                try:
                    out = f(x)
                finally:
                    busy = tracer._pop(inner)
                n = _size(x)
                shape = getattr(out, "shape", ())
                cols = shape[1] if len(shape) == 2 else 1
                frame.columns = max(frame.columns, cols)
                c = tracer.counts
                c["quadrature.integrand_calls"] += 1
                c["quadrature.integrand_s"] += busy
                c["quadrature.nodes"] += n
                c["quadrature.node_columns"] += n * cols
                return out

            try:
                result = fn(integrand, *args, **kwargs)
            except Exception as exc:
                tracer._pop(frame)
                tracer._count_error("quadrature", exc)
                raise
            tracer._pop(frame)
            c = tracer.counts
            c["quadrature.calls"] += 1
            panels = result.panels if hasattr(result, "panels") else result[2]
            c["quadrature.panels"] += panels
            builder = tracer._nearest("transforms")
            if builder is not None and builder.name in CACHE_BUILDERS:
                builder.piece_evals += max(frame.columns, 1)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # Installation and output ----------------------------------------------

    def install(self):
        """Wrap every listed function wherever a package module binds it."""
        modules = [importlib.import_module(m) for m in MODULES]
        originals = {}
        for layer, functions in LAYERS.items():
            owner = importlib.import_module(f"barrierkets.{layer}")
            for name, mode in functions.items():
                fn = getattr(owner, name)
                originals[id(fn)] = self.wrap(layer, name, fn, mode)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and callable(value):
                    setattr(module, attr, wrapper)

    def totals(self):
        """Raw sums over the traced calls, mergeable across processes."""
        out = dict(self.counts)
        out["scattering.distinct_energies"] = len(self.energies)
        return out

    def dump(self, path):
        """Write spans, leaf counts and totals as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "leaf_counts": {str(k): v for k, v in self.leaf.items()},
                       "totals": self.totals()}, fh)


MAX_KEYS = ("testspace.terms_out_max", "transforms.max_interp_error")

# Every per-layer metric with its unit, in the order they are printed.  The
# cli metrics come from the command-line workload's own timing and the
# overhead from comparing a plain pass with a traced one.
PER_LAYER = (
    [("scattering.calls", "count"), ("scattering.distinct_energies", "count"),
     ("scattering.repeat_ratio", "ratio"), ("scattering.busy_s", "s"),
     ("eigenbasis.calls", "count"), ("eigenbasis.points", "count"),
     ("eigenbasis.busy_s", "s"),
     ("testspace.apply_calls", "count"), ("testspace.apply_s", "s"),
     ("testspace.terms_out_max", "count"), ("testspace.terms_out_sum", "count"),
     ("testspace.evaluate_calls", "count"),
     ("testspace.evaluate_points", "count"),
     ("testspace.evaluate_term_points", "count"),
     ("testspace.evaluate_s", "s"),
     ("quadrature.calls", "count"), ("quadrature.panels", "count"),
     ("quadrature.integrand_calls", "count"), ("quadrature.nodes", "count"),
     ("quadrature.node_columns", "count"), ("quadrature.self_s", "s"),
     ("quadrature.integrand_s", "s"),
     ("quadrature.useful_node_fraction", "ratio"),
     ("quadrature.accuracy_errors", "count"),
     ("transforms.energy_transform_s", "s"),
     ("transforms.momentum_transform_s", "s"),
     ("transforms.synthesis_s", "s"), ("transforms.overlap_s", "s"),
     ("transforms.cache_points", "count"),
     ("transforms.max_interp_error", "amplitude"),
     ("transforms.piece_evals", "count"), ("transforms.cache_yield", "ratio"),
     ("transforms.accuracy_errors", "count")]
    + [(f"verify.check_s.{check}", "s") for check in SUITE_CHECKS]
    + [("verify.checks_failed", "count"),
       ("cli.process_s", "s"), ("cli.main_s", "s"), ("cli.exit_nonzero", "count"),
       ("tracing.overhead_fraction", "ratio")])


def merge(totals_list):
    """Combine the totals of several processes.

    Sums everything but the maxima.  Distinct energies add up, because
    every process starts with an empty matching cache.
    """
    out = defaultdict(float)
    for totals in totals_list:
        for key, value in totals.items():
            if key in MAX_KEYS:
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out


def layer_metrics(totals):
    """The published per-layer metrics, computed from merged totals."""
    c = defaultdict(float, totals)
    calls = c["scattering.calls"]
    distinct = c["scattering.distinct_energies"]
    nodes = c["quadrature.nodes"]
    evals = c["transforms.piece_evals"]
    out = {
        "scattering.calls": calls,
        "scattering.distinct_energies": distinct,
        "scattering.repeat_ratio": 1.0 - distinct / calls if calls else 0.0,
        "scattering.busy_s": c["self_s.scattering"],
        "eigenbasis.calls": c["eigenbasis.calls"],
        "eigenbasis.points": c["eigenbasis.points"],
        "eigenbasis.busy_s": c["self_s.eigenbasis"],
        "testspace.apply_calls": c["testspace.apply_calls"],
        "testspace.apply_s": c["excl_s.testspace.apply_observable"],
        "testspace.terms_out_max": c["testspace.terms_out_max"],
        "testspace.terms_out_sum": c["testspace.terms_out_sum"],
        "testspace.evaluate_calls": c["testspace.evaluate_calls"],
        "testspace.evaluate_points": c["testspace.evaluate_points"],
        "testspace.evaluate_term_points": c["testspace.evaluate_term_points"],
        "testspace.evaluate_s": c["excl_s.testspace.evaluate"],
        "quadrature.calls": c["quadrature.calls"],
        "quadrature.panels": c["quadrature.panels"],
        "quadrature.integrand_calls": c["quadrature.integrand_calls"],
        "quadrature.nodes": nodes,
        "quadrature.node_columns": c["quadrature.node_columns"],
        "quadrature.self_s": c["self_s.quadrature"],
        "quadrature.integrand_s": c["quadrature.integrand_s"],
        "quadrature.useful_node_fraction": (
            GL_NODES * c["quadrature.panels"] / nodes if nodes else 0.0),
        "quadrature.accuracy_errors": c["quadrature.accuracy_errors"],
        "transforms.energy_transform_s": c["excl_s.transforms.energy_transform"],
        "transforms.momentum_transform_s":
            c["excl_s.transforms.momentum_transform"],
        "transforms.synthesis_s": c["excl_s.transforms.synthesize_energy"]
        + c["excl_s.transforms.synthesize_momentum"],
        "transforms.overlap_s": sum(
            c[f"excl_s.transforms.{n}"] for n in (
                "parseval_defect", "spectral_probability",
                "spectral_matrix_element", "expectation_uncertainty")),
        "transforms.cache_points": c["transforms.cache_points"],
        "transforms.max_interp_error": c["transforms.max_interp_error"],
        "transforms.piece_evals": evals,
        "transforms.cache_yield": (c["transforms.cache_points"] / evals
                                   if evals else 0.0),
        "transforms.accuracy_errors": c["transforms.accuracy_errors"],
        "verify.checks_failed": c["verify.checks_failed"],
    }
    for check in SUITE_CHECKS:
        out[f"verify.check_s.{check}"] = c[f"verify.check_s.{check}"]
    return out


def _size(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return int(math.prod(shape))
