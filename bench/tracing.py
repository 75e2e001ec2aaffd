"""Span tracer that wraps fdcorr's public functions from outside the package.

Each public function (a name in a module's ``__all__`` that the module itself
defines) gets one wrapper, and that wrapper replaces the function in *every*
fdcorr module that binds it: ``expand`` is looked up through ``gridops``,
``taylorseries`` and ``stencil``, ``verify`` through ``stencil`` and ``cli``,
and so on.  Wrapping only the defining module would miss every call made
through another module's import.

Spans (name, start, end, parent, request id, probe value) stay in memory;
:meth:`Tracer.summary` reduces them to per-layer call counts, self times and
work counts, in a form that sums across processes (:func:`merge`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("exactmath", "gridops", "taylorseries", "defcor", "stencil", "numdiff", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Values recorded when a call returns; reduced to work counts in summary().
_PROBES = {
    "gridops.expand": lambda a, k, r: _arg(a, k, 0, "expr"),
    "taylorseries.error_series": lambda a, k, r: _arg(a, k, 0, "expr"),
    "taylorseries.series_from_nodes": lambda a, k, r: _arg(a, k, 2, "truncation"),
    "defcor.general_defcor": lambda a, k, r: (_arg(a, k, 0, "m"), _arg(a, k, 1, "order"), len(r.terms)),
    "stencil.oracle_weights": lambda a, k, r: len(_arg(a, k, 0, "offsets")),
    "numdiff.apply_stencil": lambda a, k, r: len(_arg(a, k, 0, "s").offsets),
}


class Tracer:
    """Installs wrappers on fdcorr and records one span per wrapped call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> list[str]:
        """Wrap every binding of every public function; return the span names."""
        package = importlib.import_module("fdcorr")
        modules = [importlib.import_module(f"fdcorr.{short}") for short in MODULES]
        wrappers = {}
        for short, module in zip(MODULES, modules):
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return sorted(w.span_name for w in wrappers.values())

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, span_name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = _PROBES.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [span_name, clock(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                span[5] = probe(args, kwargs, result)
            return result

        wrapper.span_name = span_name
        return wrapper

    def summary(self) -> dict:
        """Per-name calls and self time, plus the work counts the probes feed.

        A span's self time is its duration minus the durations of its direct
        children.  ``truncation_span`` pairs each ``general_defcor`` call with
        the deepest series truncation requested beneath it.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        words: dict[str, set] = {"gridops.expand": set(), "taylorseries.error_series": set()}
        owner = [-1] * len(spans)
        deepest: dict[int, int] = {}
        work = dict.fromkeys(
            ("taylorseries.terms", "defcor.general_defcor.steps", "defcor.order_plus_1",
             "defcor.truncation_span", "stencil.oracle_weights.n3_ops", "numdiff.samples"),
            0,
        )
        for i, (name, start, end, parent, _, value) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            owner[i] = i if name == "defcor.general_defcor" else (owner[parent] if parent >= 0 else -1)
            if value is None:
                continue
            if name in words:
                words[name].add(value)
            elif name == "taylorseries.series_from_nodes":
                work["taylorseries.terms"] += value + 1
                if owner[i] >= 0:
                    deepest[owner[i]] = max(deepest.get(owner[i], 0), value)
            elif name == "stencil.oracle_weights":
                work["stencil.oracle_weights.n3_ops"] += value**3
            elif name == "numdiff.apply_stencil":
                work["numdiff.samples"] += value
        for i, span in enumerate(spans):
            if span[0] != "defcor.general_defcor" or span[5] is None:
                continue
            m, order, steps = span[5]
            work["defcor.general_defcor.steps"] += steps
            if i in deepest:
                work["defcor.order_plus_1"] += order + 1
                work["defcor.truncation_span"] += deepest[i] - m
        for name, seen in words.items():
            work[f"{name}.distinct"] = len(seen)
        return {"calls": calls, "self_s": self_s, "work": work, "spans": len(spans)}


def merge(summaries: list[dict]) -> dict:
    """Sum summaries from several processes (distinct counts add per process)."""
    total: dict = {"calls": {}, "self_s": {}, "work": {}, "spans": 0}
    for summary in summaries:
        for key in ("calls", "self_s", "work"):
            for name, value in summary[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["spans"] += summary["spans"]
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(summary: dict, overhead_share: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each as (value, unit)."""
    calls, self_s, work = summary["calls"], summary["self_s"], summary["work"]
    out: dict[str, tuple[float, str]] = {}
    for name, stats in (
        ("gridops.expand", ("calls", "self_s")),
        ("taylorseries.series_from_nodes", ("calls", "self_s")),
        ("defcor.general_defcor", ("calls", "self_s")),
        ("stencil.flatten", ("calls", "self_s")),
        ("stencil.verify", ("calls", "self_s")),
        ("stencil.oracle_weights", ("calls", "self_s")),
        ("numdiff.convergence_study", ("calls", "self_s")),
        ("numdiff.apply_stencil", ("calls", "self_s")),
        ("exactmath.format_rational", ("calls", "self_s")),
        ("cli.main", ("self_s",)),
    ):
        if "calls" in stats:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    out["gridops.expand.distinct_share"] = (
        _ratio(work.get("gridops.expand.distinct", 0), calls.get("gridops.expand", 0)), "share")
    out["taylorseries.error_series.distinct_share"] = (
        _ratio(work.get("taylorseries.error_series.distinct", 0), calls.get("taylorseries.error_series", 0)),
        "share")
    out["taylorseries.terms"] = (work.get("taylorseries.terms", 0), "count")
    out["defcor.general_defcor.steps"] = (work.get("defcor.general_defcor.steps", 0), "count")
    out["defcor.truncation_used_share"] = (
        _ratio(work.get("defcor.order_plus_1", 0), work.get("defcor.truncation_span", 0)), "share")
    out["stencil.verify.per_formula"] = (
        _ratio(calls.get("stencil.verify", 0), calls.get("stencil.flatten", 0)), "ratio")
    out["stencil.oracle_weights.n3_ops"] = (work.get("stencil.oracle_weights.n3_ops", 0), "count")
    out["numdiff.samples"] = (work.get("numdiff.samples", 0), "count")
    out["trace.overhead_share"] = (overhead_share, "share")
    return out
