"""Spans at the layer boundaries of ``meandric``, recorded from outside.

Each boundary replaces one module global with a timing wrapper, under the
name the caller looks up: ``cli`` imported ``samples_array`` itself, so
both ``meandric.cli.samples_array`` and ``meandric.sampling.samples_array``
(which ``run_experiment`` calls) are wrapped.  Wrappers are installed only
in the forked child that runs one traced request, so the parent process
and untraced runs execute the program unchanged.

A span is ``(span_id, parent_id, name, start, end)``; the root span of a
request has parent 0.  Span names are ``<layer>.<function>``, the layer
being the ``meandric`` module that defines the function.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module whose global is replaced, global name, span name)
BOUNDARIES = (
    ("meandric.cli", "main", "cli.main"),
    ("meandric.cli", "run_experiment", "sampling.run_experiment"),
    ("meandric.cli", "samples_array", "sampling.samples_array"),
    ("meandric.sampling", "samples_array", "sampling.samples_array"),
    ("meandric.cli", "samples_csv", "sampling.samples_csv"),
    ("meandric.sampling", "clt_parameters", "analysis.clt_parameters"),
    ("meandric.sampling", "matching_uniformity", "sampling.matching_uniformity"),
    ("meandric.sampling", "sample_matching", "sampling.sample_matching"),
    ("meandric.sampling", "NonCrossingMatching", "combinatorics.NonCrossingMatching"),
    ("meandric.combinatorics", "NonCrossingMatching", "combinatorics.NonCrossingMatching"),
    ("meandric.sampling", "enumerate_matchings", "combinatorics.enumerate_matchings"),
    ("meandric.oracle", "enumerate_matchings", "combinatorics.enumerate_matchings"),
    ("meandric.sampling", "chi_square_uniformity", "sampling.chi_square_uniformity"),
    ("meandric.cli", "moment_report", "oracle.moment_report"),
    # cli imports these two inside _cmd_moments, from the oracle module.
    ("meandric.oracle", "exact_distribution", "oracle.exact_distribution"),
    ("meandric.oracle", "distribution_csv", "oracle.distribution_csv"),
    ("meandric.cli", "factorial_moment_strong", "analysis.factorial_moment_strong"),
    ("meandric.oracle", "factorial_moment_strong", "analysis.factorial_moment_strong"),
    ("meandric.cli", "disjoint_moment_term", "analysis.disjoint_moment_term"),
    ("meandric.oracle", "disjoint_moment_term", "analysis.disjoint_moment_term"),
    ("meandric.cli", "shape_constants", "analysis.shape_constants"),
    ("meandric.oracle", "shape_constants", "analysis.shape_constants"),
    ("meandric.analysis", "shape_constants", "analysis.shape_constants"),
    ("meandric.cli", "log_factorial_moment_asymptotic", "analysis.log_factorial_moment_asymptotic"),
    ("meandric.analysis", "catalan", "combinatorics.catalan"),
    ("meandric.oracle", "catalan", "combinatorics.catalan"),
    ("meandric.cli", "parse_shape", "meanders.parse_shape"),
    ("meandric.cli", "format_shape", "meanders.format_shape"),
    ("meandric.sampling", "format_shape", "meanders.format_shape"),
    ("meandric.oracle", "format_shape", "meanders.format_shape"),
)

# Generator functions: the wrapper drains them inside the span, so the span
# covers the whole enumeration.  Every caller consumes them fully.
GENERATORS = frozenset({"combinatorics.enumerate_matchings"})

COUNTED = (
    "sampling.samples_array",
    "sampling.sample_matching",
    "combinatorics.NonCrossingMatching",
    "oracle.exact_distribution",
    "combinatorics.enumerate_matchings",
    "combinatorics.catalan",
)
TIMED = (
    "sampling.samples_array",
    "sampling.run_experiment",
    "sampling.samples_csv",
    "analysis.clt_parameters",
    "sampling.matching_uniformity",
    "sampling.sample_matching",
    "combinatorics.NonCrossingMatching",
    "combinatorics.enumerate_matchings",
    "sampling.chi_square_uniformity",
    "oracle.moment_report",
    "oracle.exact_distribution",
    "oracle.distribution_csv",
    "analysis.factorial_moment_strong",
    "analysis.disjoint_moment_term",
    "analysis.shape_constants",
    "combinatorics.catalan",
    "analysis.log_factorial_moment_asymptotic",
)

# Per-layer metric names with their units, in report order.
LAYER_METRICS = {
    **{f"{name}.calls": "count" for name in COUNTED},
    **{f"{name}.s": "s" for name in TIMED},
    "sampling.summary_s": "s",
    "cli.self_s": "s",
    "oracle.self_s": "s",
    "meanders.s": "s",
}


class Tracer:
    """Records spans in memory while ``active``."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.active = True
        self._stack = [0]
        self._next_id = 1

    def wrap(self, name: str, fn):
        drain = name in GENERATORS

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return iter(list(result)) if drain else result
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))

        return traced

    def install(self) -> None:
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one request's spans.

    ``<name>.calls`` counts spans; ``<name>.s`` sums the spans of that name
    not nested in another span of the same name.  A span's self time is
    its duration minus that of its direct children (calls are sequential,
    so children never overlap).  ``sampling.summary_s`` is run_experiment
    minus the samples_array calls it makes.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    sampler_time: dict[int, float] = defaultdict(float)
    for _, parent, name, start, end in spans:
        child_time[parent] += end - start
        if name == "sampling.samples_array":
            sampler_time[parent] += end - start
    calls = Counter(s[2] for s in spans)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    summary = 0.0
    for span_id, parent, name, start, end in spans:
        duration = end - start
        self_time[name.split(".")[0]] += duration - child_time[span_id]
        if name == "sampling.run_experiment":
            summary += duration - sampler_time[span_id]
        ancestor = parent
        while ancestor and by_id[ancestor][2] != name:
            ancestor = by_id[ancestor][1]
        if not ancestor:
            total[name] += duration
    out = {f"{name}.calls": float(calls[name]) for name in COUNTED}
    out.update({f"{name}.s": total[name] for name in TIMED})
    out["sampling.summary_s"] = summary
    out["cli.self_s"] = self_time["cli"]
    out["oracle.self_s"] = self_time["oracle"]
    out["meanders.s"] = sum(v for k, v in total.items() if k.startswith("meanders."))
    return out
