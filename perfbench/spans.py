"""Spans and counts at rankmargin's module boundaries, recorded from outside.

The tracer replaces the names that one module imported from another (the
functions `rankmargin.cli` and `rankmargin.models` call) with wrappers that
record a span per call: name, start, end, parent and operation. Counts are
taken at the same boundaries from argument sizes. Nothing under `src/` is
changed; `uninstall` puts the original functions back.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import warnings
from collections import defaultdict


def _fold_pairs(n: int, k: int) -> int:
    # query-training pairs over a k-fold partition: sum |held| * (n - |held|)
    base, extra = divmod(n, k)
    sizes = [base + 1] * extra + [base] * (k - extra)
    return sum(s * (n - s) for s in sizes)


def _loess_queries(args, kwargs):
    return {"loess.queries": len(args[1]) if hasattr(args[1], "__len__") else 1}


def _span_cv_queries(args, kwargs):
    grid = args[1] if len(args) > 1 else kwargs.get("span_grid")
    return {"loess.queries": len(args[0]) * len(grid)}


def _kernel_pairs(args, kwargs):
    queries = len(args[1]) if hasattr(args[1], "__len__") else 1
    return {"kernel.pair_evals": queries * len(args[0].movs)}


def _loo_pairs(args, kwargs):
    n = len(args[0])
    grid = args[1] if len(args) > 1 else kwargs.get("sigma_grid")
    return {"kernel.pair_evals": n * (n - 1) * len(grid)}


def _aniso_pairs(args, kwargs):
    n = len(args[0])
    xs = args[1] if len(args) > 1 else kwargs["sigma_x_grid"]
    ys = args[2] if len(args) > 2 else kwargs["sigma_y_grid"]
    return {"kernel.pair_evals": _fold_pairs(n, kwargs.get("folds", 10)) * len(xs) * len(ys)}


# (module, bound name) -> (span name, counter); the grids and folds passed by
# `report` are explicit, so the counters read them from the call.
BOUNDARIES = {
    ("cli", "parse_games"): ("data.parse_games", None),
    ("cli", "split"): ("data.split", None),
    ("cli", "select_span_cv"): ("loess.select_span_cv", _span_cv_queries),
    ("cli", "select_sigma_loo"): ("kernel.select_sigma_loo", _loo_pairs),
    ("cli", "select_aniso_cv"): ("kernel.select_aniso_cv", _aniso_pairs),
    ("cli", "benchmark"): ("evaluate.benchmark", None),
    ("cli", "lack_of_fit"): ("evaluate.lack_of_fit", None),
    ("cli", "fit_quadratic"): ("quadratic.fit", None),
    ("cli", "studentized_residuals"): ("quadratic.studentized", None),
    ("cli", "fit_additive"): ("additive.fit", None),
    ("cli", "component_band"): ("additive.component_band", None),
    ("cli", "predict_quadratic"): ("quadratic.predict", None),
    ("cli", "predict_additive"): ("additive.predict", None),
    ("cli", "predict_loess"): ("loess.predict", _loess_queries),
    ("cli", "predict_kernel"): ("kernel.predict", _kernel_pairs),
    ("models", "fit_quadratic"): ("quadratic.fit", None),
    ("models", "predict_quadratic_arrays"): ("quadratic.predict", None),
    ("models", "fit_additive"): ("additive.fit", None),
    ("models", "predict_additive_arrays"): ("additive.predict", None),
    ("models", "fit_loess"): ("loess.fit", None),
    ("models", "predict_loess_arrays"): ("loess.predict", _loess_queries),
    ("models", "isotropic_smoother"): ("kernel.fit", None),
    ("models", "anisotropic_smoother"): ("kernel.fit", None),
    ("models", "predict_kernel_arrays"): ("kernel.predict", _kernel_pairs),
}


class Tracer:
    """In-memory spans [name, start, end, parent, op] and per-op counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = 0

    def start(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            index = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                for key, value in counter(args, kwargs).items():
                    self.counts[self.op][key] += value
            return result

        return traced

    def install(self, modules) -> None:
        for (mod, attr), (name, counter) in BOUNDARIES.items():
            fn = getattr(modules[mod], attr)
            self._saved.append((modules[mod], attr, fn))
            setattr(modules[mod], attr, self.wrap(name, fn, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def warnings_counted(self, category):
        """Count every `category` warning against the module of the innermost
        open span, with Python's de-duplication off."""

        def show(message, cat, *rest):
            if issubclass(cat, category) and self._stack:
                module = self.spans[self._stack[-1]][0].split(".")[0]
                self.counts[self.op][module + ".fallbacks"] += 1

        with warnings.catch_warnings():
            warnings.simplefilter("always", category)
            warnings.showwarning = show
            yield


def _per_op(tracer: Tracer):
    """{op: (inclusive ms by name, self ms by name, root ms by name)}."""
    children = defaultdict(float)
    for name, t0, t1, parent, op in tracer.spans:
        if parent is not None:
            children[parent] += t1 - t0
    ops = defaultdict(lambda: (defaultdict(float), defaultdict(float), defaultdict(float)))
    for i, (name, t0, t1, parent, op) in enumerate(tracer.spans):
        incl, self_, root = ops[op]
        incl[name] += (t1 - t0) * 1e3
        self_[name] += (t1 - t0 - children[i]) * 1e3
        if parent is None:
            root[name] += (t1 - t0) * 1e3
    return ops


PREDICT_KINDS = ("quadratic", "gam", "loess", "kernel-iso", "kernel-aniso")

INCLUSIVE = {
    "data.parse_games_ms": "data.parse_games",
    "data.split_ms": "data.split",
    "loess.select_span_cv_ms": "loess.select_span_cv",
    "loess.predict_ms": "loess.predict",
    "kernel.select_sigma_loo_ms": "kernel.select_sigma_loo",
    "kernel.select_aniso_cv_ms": "kernel.select_aniso_cv",
    "kernel.predict_ms": "kernel.predict",
    "additive.fit_ms": "additive.fit",
    "additive.component_band_ms": "additive.component_band",
    "quadratic.fit_ms": "quadratic.fit",
    "quadratic.studentized_ms": "quadratic.studentized",
    "evaluate.lack_of_fit_ms": "evaluate.lack_of_fit",
    **{f"cli.predict.{k}_ms": f"cli.predict.{k}" for k in PREDICT_KINDS},
}

UNITS = {
    **{name: "ms" for name in INCLUSIVE},
    "evaluate.benchmark_self_ms": "ms",
    "cli.report_self_ms": "ms",
    "cli.predict_self_ms": "ms",
    "loess.queries": "count",
    "loess.queries_per_s": "1/s",
    "loess.fallbacks": "count",
    "kernel.pair_evals": "count",
    "kernel.pair_evals_per_s": "1/s",
    "kernel.fallbacks": "count",
    "trace.overhead_ms": "ms",
    "trace.coverage_pct": "%",
}


def layer_metrics(tracer: Tracer, traced_ms, untraced_ms) -> dict:
    """Median over traced operations of each per-module metric.

    `trace.coverage_pct` is the share of an operation's root span (the CLI
    call) spent in module spans below it. `trace.overhead_ms` compares the
    operation times `traced_ms` and `untraced_ms` of the two halves of a run.
    """
    rows = []
    for op, (incl, self_, root) in sorted(_per_op(tracer).items()):
        counts = tracer.counts[op]
        row = {m: incl[name] for m, name in INCLUSIVE.items()}
        row["evaluate.benchmark_self_ms"] = self_["evaluate.benchmark"]
        row["cli.report_self_ms"] = self_["cli.report"]
        row["cli.predict_self_ms"] = sum(self_[f"cli.predict.{k}"] for k in PREDICT_KINDS)
        for key in ("loess.queries", "loess.fallbacks", "kernel.pair_evals", "kernel.fallbacks"):
            row[key] = counts[key]
        loess_s = (incl["loess.predict"] + incl["loess.select_span_cv"]) / 1e3
        row["loess.queries_per_s"] = counts["loess.queries"] / loess_s if loess_s else 0.0
        kernel_s = sum(
            incl[n] for n in ("kernel.predict", "kernel.select_sigma_loo", "kernel.select_aniso_cv")
        ) / 1e3
        row["kernel.pair_evals_per_s"] = counts["kernel.pair_evals"] / kernel_s if kernel_s else 0.0
        root_ms = sum(root.values())
        row["trace.coverage_pct"] = 100.0 * (root_ms - sum(self_[n] for n in root)) / root_ms
        rows.append(row)
    out = {m: statistics.median(r[m] for r in rows) for m in UNITS if m != "trace.overhead_ms"}
    out["trace.overhead_ms"] = statistics.median(traced_ms) - statistics.median(untraced_ms)
    return {m: {"value": out[m], "unit": UNITS[m]} for m in UNITS}
