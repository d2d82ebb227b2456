"""Timing spans around the public functions of sqzkit's modules.

`Tracer.install()` replaces every public function of the traced modules with
a wrapper that records a span (name, start, end, parent) and, for a few
functions, a computed work count.  The wrapper is bound wherever sqzkit holds
the original object: as the module attribute, so a call such as
`pipeline.analysis_report` -> `delay_search` is caught, and under any name
another sqzkit module imported it as (`cli` imports `budget.predict`).
`uninstall()` puts the originals back.  No program file is edited.

Only public names are wrapped and only public modules are imported, so the
tracer survives a rewrite of private helpers.  A wrapped name that is missing
makes the metrics built on it `None` ("absent") instead of an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

#: Layers are sqzkit's modules.  `fitting` and `sideband` answer in
#: milliseconds and no planned change targets their speed, so they are left out.
LAYERS = ("cli", "budget", "gaussian", "synth", "traceio", "pipeline")

#: `cli` is timed at its command boundary only: argument parsing, scenario
#: loading and validation, and rendering are its self time.
ENTRY_ONLY = {"cli": ("main",)}


def _path_bytes(bound, result):
    path = next(iter(bound.values()))
    return {"bytes": os.path.getsize(path)}


def _raw_samples(bound, result):
    return {"raw_samples": sum(trace.samples.size for trace in result)}


def _delay_work(bound, result):
    n = len(bound["q1"])
    max_delay, window = int(bound["max_delay"]), int(bound["window"])
    candidates = 2 * max_delay + 1
    return {"candidates": candidates, "positions": candidates * (n - window - 2 * max_delay + 1)}


#: Work counts computed from argument and result sizes, ignoring caches.
COUNTERS = {
    "synth.synthesize_pair": _raw_samples,
    "synth.synthesize_shot_noise": _raw_samples,
    "traceio.write_trace_binary": _path_bytes,
    "traceio.write_trace_csv": _path_bytes,
    "traceio.atomic_write_text": _path_bytes,
    "traceio.read_trace": _path_bytes,
    "traceio.read_trace_binary": _path_bytes,
    "traceio.read_trace_csv": _path_bytes,
    "pipeline.delay_search": _delay_work,
}


def _public_functions(module, layer):
    names = ENTRY_ONLY.get(layer)
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__:
            continue
        if names is None or name in names:
            yield name, obj


class Tracer:
    """Spans recorded in memory for one process, single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[dict, str, object]] = []

    def _wrap(self, qualname, fn):
        counter = COUNTERS.get(qualname)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": qualname, "parent": stack[-1] if stack else None, "error": None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span["counts"] = counter(signature.bind(*args, **kwargs).arguments, result)
                except (TypeError, ValueError, KeyError, AttributeError, StopIteration, OSError):
                    pass
            return result

        return wrapper

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"sqzkit.{layer}")
            except ImportError:
                continue
            for name, fn in _public_functions(module, layer):
                qualname = f"{layer}.{name}"
                originals[id(fn)] = (fn, self._wrap(qualname, fn))
                self.wrapped.add(qualname)
        for modname, module in list(sys.modules.items()):
            if modname != "sqzkit" and not modname.startswith("sqzkit."):
                continue
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                pair = originals.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._saved.append((namespace, name, obj))
                    namespace[name] = pair[1]

    def uninstall(self) -> None:
        for namespace, name, obj in reversed(self._saved):
            namespace[name] = obj
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self) -> dict:
        return {"spans": self.spans, "wrapped": sorted(self.wrapped)}


# ------------------------------------------------------------ summaries


def _layer(span):
    return span["name"].split(".", 1)[0]


def summarize(spans: list[dict], wrapped) -> dict:
    """Per-layer figures of one operation from its spans.

    Times are inclusive span durations in seconds, summed over calls, except
    `budget.predict_s`, which is the time per call.  A layer's self time is the
    time in its outermost spans that no child span covers.  Synthesis and
    trace-I/O counts are summed over the layer's outermost spans, so a nested
    call (a sidecar write inside a trace write) is not counted twice; delay
    search counts over every `delay_search` call.  A figure whose wrapped
    function is missing is None.
    """
    wrapped = set(wrapped)
    dur = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for k, s in enumerate(spans):
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[k]

    def outermost(k):
        layer, p = _layer(spans[k]), spans[k]["parent"]
        while p is not None:
            if _layer(spans[p]) == layer:
                return False
            p = spans[p]["parent"]
        return True

    top = [k for k in range(len(spans)) if outermost(k)]

    def total(name, key=None):
        if name not in wrapped:
            return None
        named = [k for k, s in enumerate(spans) if s["name"] == name]
        if key is None:
            return sum(dur[k] for k in named)
        return sum(spans[k].get("counts", {}).get(key, 0) for k in named)

    def per_call(name):
        if name not in wrapped:
            return None
        named = [dur[k] for k, s in enumerate(spans) if s["name"] == name]
        return sum(named) / len(named) if named else 0.0

    def present(prefixes):
        return any(n.startswith(prefixes) for n in wrapped)

    def top_time(prefixes):
        if not present(prefixes):
            return None
        return sum(dur[k] for k in top if spans[k]["name"].startswith(prefixes))

    def top_count(prefixes, key):
        if not present(prefixes):
            return None
        return sum(spans[k].get("counts", {}).get(key, 0) for k in top if spans[k]["name"].startswith(prefixes))

    def self_time(layer):
        if not present(layer + "."):
            return None
        return sum(dur[k] - child_time[k] for k in top if _layer(spans[k]) == layer)

    synth = ("synth.synthesize_pair", "synth.synthesize_shot_noise")
    write = ("traceio.write_trace", "traceio.atomic_write_text")
    read = "traceio.read_trace"
    delay = "pipeline.delay_search"
    return {
        "cli.self_s": self_time("cli"),
        "budget.predict_s": per_call("budget.predict"),
        "synth.synthesize_pair_s": total("synth.synthesize_pair"),
        "synth.synthesize_shot_noise_s": total("synth.synthesize_shot_noise"),
        "synth.raw_samples": top_count(synth, "raw_samples"),
        "traceio.write_s": top_time(write),
        "traceio.read_s": top_time(read),
        "traceio.write_bytes": top_count(write, "bytes"),
        "traceio.read_bytes": top_count(read, "bytes"),
        "pipeline.shot_noise_stats_s": total("pipeline.shot_noise_stats"),
        "pipeline.raw_to_quadratures_s": total("pipeline.raw_to_quadratures"),
        "pipeline.delay_search_s": total(delay),
        "pipeline.delay_candidates": total(delay, "candidates"),
        "pipeline.delay_positions": total(delay, "positions"),
        "pipeline.squeezing_report_s": total("pipeline.squeezing_report"),
        "pipeline.variance_vs_delay_s": total("pipeline.variance_vs_delay"),
        "pipeline.analysis_report_s": total("pipeline.analysis_report"),
        "pipeline.self_s": self_time("pipeline"),
        "pipeline.dip_fwhm_failed": (
            sum(1 for s in spans if s["name"] == "pipeline.dip_fwhm" and s["error"])
            if "pipeline.dip_fwhm" in wrapped
            else None
        ),
    }
