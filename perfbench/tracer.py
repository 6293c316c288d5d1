"""Outside-in span tracer for ergonil, installed by the benchmark process only.

`Tracer.install()` replaces every module-level public function of each
layer module with a timing wrapper, in the namespace of every ergonil module
that imported it (a name bound by `from .numerics import pairwise_sum` is a
separate binding and is patched separately). Each weight class's
`eval_many` is wrapped the same way. Nothing under `src/` is edited, and
`uninstall()` restores every binding.

A span records its name, start, end, parent span and counts read from the
call's arguments and return value. Spans stay in memory until the run ends.
Harness worker threads inherit the span that submitted their task, so the
self time of `harness.run_experiment` excludes work done in the pool.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("numerics", "systems", "nilseq", "averages", "seminorms", "joinings", "harness")
SWEEP = "averages.sup_over_frequency"


def _size(x) -> int:
    return int(np.size(x))


# counts read at each layer boundary: span name -> f(bound arguments, result)
COUNTERS = {
    "numerics.frac_combine": lambda a, r: {"elements": _size(r)},
    "numerics.unit_phase": lambda a, r: {"elements": _size(a["theta"])},
    "numerics.frac_poly": lambda a, r: {"elements": _size(a["n"])},
    "numerics.pairwise_sum": lambda a, r: {"elements": _size(a["x"])},
    "systems.lattice_orbit": lambda a, r: {"steps": int(a["count"])},
    "systems.orbit_coords": lambda a, r: {"elements": _size(a["n"])},
    "systems.eval_observable_many": lambda a, r: {"elements": int(np.shape(a["coords"])[0])},
    SWEEP: lambda a, r: {"grid_nodes": int(r.grid_size), "terms": _size(a["u"])},
    "averages.dual_system_avg": lambda a, r: {"nodes": len(r.node_values)},
    "seminorms.local_seminorm": lambda a, r: {
        "box_products": int(a["H"]) ** int(a["k"]) * int(a["N"])},
}


def _eval_many_counts(a, r):
    """Counts of any weight class's eval_many."""
    return {"elements": _size(a["n"])}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span stack ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name) or (
            _eval_many_counts if name.endswith(".eval_many") else None)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)  # list.append is atomic under the GIL
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts.update(counter(bound.arguments, result))
            return result

        return traced

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer's public functions and each weight class's eval_many."""
        import ergonil  # noqa: F401  (loads every layer module)
        from ergonil import nilseq

        modules = [m for n, m in sys.modules.items()
                   if (n == "ergonil" or n.startswith("ergonil.")) and m is not None]
        for layer in LAYERS:
            mod = sys.modules[f"ergonil.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for bound_name, obj in list(vars(m).items()):
                        if obj is fn:
                            self._set(m, bound_name, wrapped)
        for cls_name, cls in list(vars(nilseq).items()):
            if (isinstance(cls, type) and cls.__module__ == nilseq.__name__
                    and "eval_many" in vars(cls)):
                self._set(cls, "eval_many",
                          self._wrap(f"nilseq.{cls_name}.eval_many", vars(cls)["eval_many"]))
        self._install_pool(sys.modules["ergonil.harness"])
        self._install_fft_counter()

    def _install_pool(self, harness):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Pool whose tasks start under the span that submitted them."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        stack.pop()

                return super().submit(run, *args, **kwargs)

        if getattr(harness, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            self._set(harness, "ThreadPoolExecutor", TracedPool)

    def _install_fft_counter(self):
        """Count FFT passes inside the frequency sweep."""
        tracer = self
        for attr in ("fft", "ifft"):
            fn = getattr(np.fft, attr)

            @functools.wraps(fn)
            def counted(a, *args, _fn=fn, **kwargs):
                out = _fn(a, *args, **kwargs)
                for span in tracer._stack():
                    if span is not None and span.name == SWEEP:
                        span.counts["fft_passes"] = span.counts.get("fft_passes", 0) + 1
                        break
                return out

            self._set(np.fft, attr, counted)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- reporting ----------------------------------------------------------

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals, lo0: float, hi0: float) -> float:
    """Length of the union of `intervals`, clipped to [lo0, hi0]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, lo0), min(hi, hi0)
        if hi <= lo:
            continue
        if cur_hi is not None and lo <= cur_hi:
            cur_hi = max(cur_hi, hi)
            continue
        if cur_hi is not None:
            total += cur_hi - cur_lo
        cur_lo, cur_hi = lo, hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover.

    Children running in pool threads can overlap each other, so coverage is
    the union of their intervals, not the sum of their durations.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {id(s): (s.end - s.start) - _covered(children.get(id(s), ()), s.start, s.end)
            for s in spans}


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: self_s, calls and summed counts."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s.name, {"self_s": 0.0, "calls": 0})
        row["self_s"] += selfs[id(s)]
        row["calls"] += 1
        for k, v in s.counts.items():
            row[k] = row.get(k, 0) + v
    return table


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per span, parents referenced by index."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "i": i, "name": s.name, "start": s.start, "end": s.end,
                "parent": index.get(id(s.parent)) if s.parent is not None else None,
                "counts": s.counts,
            }) + "\n")
