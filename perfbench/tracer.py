"""Spans around calls into sgdlab's layers, recorded from outside the package.

A `Tracer` replaces sgdlab's public functions at the names their callers
bind (module attributes and class methods) with wrappers that record one
span per call: a name, a start, an end and the span that was open when the
call began. Spans are kept in flat in-memory arrays while the workload runs
and turned into per-layer call counts and self times afterwards. Leaving the
`with` block puts every original back, so untraced runs execute unwrapped
code.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from functools import wraps
from pathlib import Path

import numpy as np

from sgdlab import harness, optimizers, plots, problems, verification


def patch(saved: list, owner, attr: str, replacement) -> None:
    """Bind `replacement` at owner.attr, remembering what was there."""
    saved.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


def restore(saved: list) -> None:
    """Undo `patch` calls in reverse order."""
    while saved:
        owner, attr, original = saved.pop()
        setattr(owner, attr, original)


def _array_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_array_bytes(v) for v in value)
    return 0


def _count_sample(counters, args, result):
    counters["problems.sample.bytes"] += _array_bytes(result)


def _count_trace_bytes(counters, args, result):
    counters["harness.write_trace.bytes"] += Path(args[1]).stat().st_size


def _count_run(counters, args, result):
    records, summary = result
    counters["harness.iterations"] += summary.iterations
    counters["harness.samples"] += summary.samples
    counters["harness.records"] += len(records)


_PROBLEM_CLASSES = (problems.RademacherProblem, problems.LeastSquaresProblem)


def targets():
    """(owner, attribute, span name, counter hook) for every wrapped binding.

    Functions are wrapped where the calling module looks them up, so each
    span name says which binding was called, e.g. `harness.step_secant`
    (the run loop) versus `verification.step_secant` (Monte Carlo trials).
    """
    found = []
    for attr in ("run_experiment", "run_grid", "load_config", "build_problem",
                 "write_trace", "read_trace", "draw_minibatch",
                 "evaluate_minibatch", "estimate_cv", "smooth_cv", "step_sgd",
                 "step_momentum", "step_secant"):
        hook = {"run_experiment": _count_run,
                "write_trace": _count_trace_bytes}.get(attr)
        found.append((harness, attr, f"harness.{attr}", hook))
    for attr in ("read_trace", "emit_plots"):
        found.append((plots, attr, f"plots.{attr}", None))
    found.append((optimizers, "step_secant", "optimizers.step_secant", None))
    for attr in ("verify_cv_formula", "verify_cv_asymptote",
                 "verify_secant_absorption", "verify_minibatch_scaling",
                 "verify_hybrid_advantage", "run_hybrid", "step_secant"):
        found.append((verification, attr, f"verification.{attr}", None))
    for cls in _PROBLEM_CLASSES:
        for attr in ("sample", "costs", "mean_gradient"):
            hook = _count_sample if attr == "sample" else None
            found.append((cls, attr, f"{cls.__name__}.{attr}", hook))
    return found


def _classes(attr):
    return tuple(f"{cls.__name__}.{attr}" for cls in _PROBLEM_CLASSES)


# Layer metric -> the span names whose calls and self time it sums.
LAYERS = {
    "problems.sample": _classes("sample"),
    # draw_minibatch/evaluate_minibatch self time: theta validation and
    # Minibatch construction around the problem's own costs/gradient calls
    "problems.evaluate": ("harness.draw_minibatch", "harness.evaluate_minibatch"),
    "problems.costs": _classes("costs"),
    "problems.mean_gradient": _classes("mean_gradient"),
    "diagnostics.estimate_cv": ("harness.estimate_cv",),
    "diagnostics.smooth_cv": ("harness.smooth_cv",),
    "optimizers.step": ("harness.step_sgd", "harness.step_momentum",
                        "harness.step_secant"),
    "optimizers.step_secant": ("harness.step_secant", "optimizers.step_secant",
                               "verification.step_secant"),
    "optimizers.run_hybrid": ("verification.run_hybrid",),
    "harness.run_experiment": ("harness.run_experiment",),
    "harness.write_trace": ("harness.write_trace",),
    "harness.read_trace": ("harness.read_trace", "plots.read_trace"),
    "harness.run_grid": ("harness.run_grid",),
    "harness.load_config": ("harness.load_config",),
    "harness.build_problem": ("harness.build_problem",),
    "plots.emit_plots": ("plots.emit_plots",),
    "verification.cv_formula": ("verification.verify_cv_formula",),
    "verification.secant_absorption": ("verification.verify_secant_absorption",),
    "verification.minibatch_scaling": ("verification.verify_minibatch_scaling",),
    "verification.hybrid_advantage": ("verification.verify_hybrid_advantage",),
}


class Tracer:
    """Context manager that records spans for every binding in `targets()`."""

    def __init__(self):
        self.span_names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, span_name, hook in targets():
                patch(self._saved, owner, attr,
                      self._wrap(owner.__dict__[attr], span_name, hook))
        except BaseException:
            restore(self._saved)
            raise
        return self

    def __exit__(self, *exc) -> None:
        restore(self._saved)

    def _wrap(self, fn, span_name: str, hook):
        name_id = len(self.span_names)
        self.span_names.append(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def spans(self) -> dict:
        """The recorded spans as arrays; `parent` is -1 for a top-level span."""
        return {
            "span_names": np.array(self.span_names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def by_span_name(self) -> tuple[dict, dict]:
        """(calls, self seconds) per span name; self time is a span's duration
        minus the durations of its direct children."""
        spans = self.spans()
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=duration.shape[0])
        n_names = len(self.span_names)
        calls = np.bincount(spans["name"], minlength=n_names)
        self_s = np.bincount(spans["name"], weights=duration - child_time,
                             minlength=n_names)
        return (dict(zip(self.span_names, calls.tolist())),
                dict(zip(self.span_names, self_s.tolist())))

    def layer_metrics(self) -> dict:
        """Per-layer counts, self times, bytes and ratios for the traced calls."""
        calls, self_s = self.by_span_name()
        out = {}
        for layer, names in LAYERS.items():
            out[f"{layer}.calls"] = sum(calls.get(n, 0) for n in names)
            out[f"{layer}.self_s"] = sum(self_s.get(n, 0.0) for n in names)
        for key in ("problems.sample.bytes", "harness.write_trace.bytes",
                    "harness.iterations", "harness.samples", "harness.records"):
            out[key] = self.counters[key]
        iterations = out["harness.iterations"]

        def per_iteration(count):
            return count / iterations if iterations else 0.0

        out["problems.evals_per_iteration"] = per_iteration(
            out["problems.costs.calls"] + out["problems.mean_gradient.calls"])
        out["diagnostics.cv_per_iteration"] = per_iteration(
            out["diagnostics.estimate_cv.calls"])
        out["harness.records_per_iteration"] = per_iteration(out["harness.records"])
        return out
