"""Span tracer for the multidose layers, installed from outside the package.

`install` wraps the public functions and methods of each multidose module
(and the CLI's private superposition oracles, for as long as they exist),
so nothing under `src/` changes. Every wrapped call records one span
`[name, start, end, parent]` in memory; counts are taken at the same
boundaries. The traced process writes both out when it ends, and the
benchmark turns them into per-layer metrics with `layer_metrics`.

A span's self time is its duration minus the durations of its direct
children. Calls run on one thread, so child spans nest and never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

# Span names, one per layer bucket. A layer's self time is the sum of the
# self times of its spans.
LAYER_SPANS = {
    "cli": ("cli.main", "cli.load"),
    "bateman": ("bateman.build", "bateman.eval"),
    "extmodels": ("extmodels.build", "extmodels.eval"),
    "pkmetrics": ("pkmetrics",),
    "steady_state": ("steady_state.n_epsilon", "steady_state.gap"),
    "fit": ("fit.fit",),
    "oracle": ("oracle.verify",),
}


class Tracer:
    """Spans and counts of one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name: str, count=None):
        """`fn` recording a span `name`; `count(counts, args, result)` runs
        after the call unless it is nested in a span of the same name, so
        work handed down within one layer is counted once."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outer = parent < 0 or spans[parent][0] != name
            span = [name, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if count is not None and outer:
                    count(counts, args, result)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


# -- counters -----------------------------------------------------------------


def _count_points(key):
    def count(counts, args, result):
        counts[key] += int(np.size(args[1]))  # args[0] is the solution
    return count


def _count_calls(key):
    def count(counts, args, result):
        counts[key] += 1
    return count


def _count_fit(counts, args, result):
    counts["fit.calls"] += 1
    if result is not None:
        counts["fit.iterations"] += result.n_iterations
        counts["fit.ok"] += result.stderr is not None


def _count_cli_oracle(counts, args, result):
    sol, times = args[0], args[1]
    counts["oracle.dose_terms"] += len(sol.regimen.entries) * int(np.size(times))


def _oracle_doses(regimen, n_doses, t) -> int:
    """Doses the superposition oracle sums for query times t."""
    entries = getattr(regimen, "entries", None)
    if entries is not None:
        return len(entries)
    if n_doses is not None:
        return n_doses
    t = np.asarray(t, dtype=float)
    return int(np.floor(t.max() / regimen.interval)) + 1 if t.size else 1


# -- installation --------------------------------------------------------------

# (module, function, span name, counter)
FUNCTIONS = [
    ("cli", "main", "cli.main", None),
    ("cli", "load_regimen_file", "cli.load", None),
    ("cli", "_read_concentration_csv", "cli.load", None),
    ("bateman", "equi_multidose", "bateman.build", None),
    ("bateman", "arbitrary_multidose", "bateman.build", None),
    ("extmodels", "bolus_multidose", "extmodels.build", None),
    ("extmodels", "fat_multidose", "extmodels.build", None),
    ("pkmetrics", "cycle_metrics", "pkmetrics", _count_calls("pkmetrics.calls")),
    ("pkmetrics", "peak", "pkmetrics", _count_calls("pkmetrics.calls")),
    ("pkmetrics", "auc_cycle", "pkmetrics", _count_calls("pkmetrics.calls")),
    ("pkmetrics", "auc_single", "pkmetrics", _count_calls("pkmetrics.calls")),
    # gap_envelope is the scan loop's own scalar test: its cost stays in
    # n_epsilon's self time rather than in a span per cycle.
    ("steady_state", "n_epsilon", "steady_state.n_epsilon", None),
    ("steady_state", "summarize", "steady_state.n_epsilon", None),
    ("steady_state", "ss_lower", "steady_state.n_epsilon", None),
    ("steady_state", "ss_upper", "steady_state.n_epsilon", None),
    ("steady_state", "auc_equality_check", "steady_state.n_epsilon", None),
    ("steady_state", "periodicity_gap", "steady_state.gap",
     _count_calls("steady_state.gap_calls")),
    ("fit", "fit_single_dose", "fit.fit", _count_fit),
    ("fit", "predict", "fit.fit", None),
    ("cli", "_bolus_superposition", "oracle.verify", _count_cli_oracle),
    ("cli", "_fat_superposition", "oracle.verify", _count_cli_oracle),
]

# (module, class, methods, span name, counter)
METHODS = [
    ("cli", "RegimenFile", ("oral_solution", "bolus_solution", "fat_solution"),
     "cli.load", None),
    ("bateman", "PiecewiseSolution", ("__init__",), "bateman.build", None),
    ("bateman", "PiecewiseSolution", ("x", "y", "__call__", "cycle_index"),
     "bateman.eval", _count_points("bateman.points")),
    ("extmodels", "BolusRegimen", ("__init__",), "extmodels.build", None),
    ("extmodels", "FatRegimen", ("__init__",), "extmodels.build", None),
    ("extmodels", "BolusSolution", ("__init__",), "extmodels.build", None),
    ("extmodels", "FatSolution", ("__init__",), "extmodels.build", None),
    ("extmodels", "BolusSolution", ("x", "__call__"),
     "extmodels.eval", _count_points("extmodels.points")),
    ("extmodels", "FatSolution", ("x", "y", "__call__"),
     "extmodels.eval", _count_points("extmodels.points")),
]


def install(tracer: Tracer) -> None:
    """Wrap every traced multidose callable; absent ones are skipped."""
    import multidose.cli  # noqa: F401  (imports every traced module)

    modules = [m for name, m in sys.modules.items()
               if name == "multidose" or name.startswith("multidose.")]
    package = sys.modules["multidose"]

    def rebind(original, wrapped):
        # `from .x import f` copies f into other modules; replace every copy.
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    for module_name, attr, name, count in FUNCTIONS:
        original = getattr(getattr(package, module_name), attr, None)
        if original is not None:
            rebind(original, tracer.wrap(original, name, count))

    for module_name, cls_name, methods, name, count in METHODS:
        cls = getattr(getattr(package, module_name), cls_name, None)
        for method in methods if cls is not None else ():
            original = cls.__dict__.get(method)
            if original is not None:
                setattr(cls, method, tracer.wrap(original, name, count))

    # superpose and superpose_gut build an evaluator: time its calls too.
    oracle = package.oracle
    for attr in ("superpose", "superpose_gut"):
        factory = getattr(oracle, attr, None)
        if factory is not None:
            rebind(factory, _traced_oracle(tracer, factory))


def _traced_oracle(tracer: Tracer, factory):
    build = tracer.wrap(factory, "oracle.verify")

    @functools.wraps(factory)
    def traced_factory(*args, **kwargs):
        regimen = args[1] if len(args) > 1 else kwargs["r"]
        n_doses = args[2] if len(args) > 2 else kwargs.get("n_doses")

        def count(counts, call_args, result):
            t = call_args[0]
            counts["oracle.dose_terms"] += (_oracle_doses(regimen, n_doses, t)
                                            * int(np.size(t)))

        return tracer.wrap(build(*args, **kwargs), "oracle.verify", count)

    return traced_factory


# -- analysis ------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_self_totals(spans: list[list]) -> Counter:
    """Self time summed per span name."""
    totals: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return totals


def layer_self_times(totals: Counter) -> dict[str, float]:
    """Self time per layer, from per-span-name totals."""
    return {layer: sum(totals[n] for n in names)
            for layer, names in LAYER_SPANS.items()}


def layer_metrics(totals: Counter, counts: Counter, bytes_out: int) -> dict:
    """Per-layer metrics of one traced round: {name: (value, unit)}.

    Layers that did not run report 0.
    """
    points = counts["bateman.points"]
    fits = counts["fit.calls"]
    return {
        "cli.load_s": (totals["cli.load"], "s"),
        "cli.serialize_s": (totals["cli.main"], "s"),
        "cli.bytes_out": (bytes_out, "bytes"),
        "bateman.build_s": (totals["bateman.build"], "s"),
        "bateman.eval_s": (totals["bateman.eval"], "s"),
        "bateman.points": (points, "count"),
        "bateman.ns_per_point": (totals["bateman.eval"] / points * 1e9
                                 if points else 0.0, "ns"),
        "extmodels.build_s": (totals["extmodels.build"], "s"),
        "extmodels.eval_s": (totals["extmodels.eval"], "s"),
        "extmodels.points": (counts["extmodels.points"], "count"),
        "pkmetrics.cycle_metrics_s": (totals["pkmetrics"], "s"),
        "pkmetrics.calls": (counts["pkmetrics.calls"], "count"),
        "steady_state.n_epsilon_s": (totals["steady_state.n_epsilon"], "s"),
        "steady_state.gap_s": (totals["steady_state.gap"], "s"),
        "steady_state.gap_calls": (counts["steady_state.gap_calls"], "count"),
        "fit.fit_s": (totals["fit.fit"], "s"),
        "fit.calls": (fits, "count"),
        "fit.iterations": (counts["fit.iterations"], "count"),
        "fit.ok_ratio": (counts["fit.ok"] / fits if fits else 0.0, "ratio"),
        "oracle.verify_s": (totals["oracle.verify"], "s"),
        "oracle.dose_terms": (counts["oracle.dose_terms"], "count"),
    }


#: Per-layer metrics that must repeat exactly across runs of one commit and seed.
EXACT_COUNTS = ("cli.bytes_out", "bateman.points", "extmodels.points",
                "pkmetrics.calls", "steady_state.gap_calls", "fit.calls",
                "fit.iterations", "oracle.dose_terms")
