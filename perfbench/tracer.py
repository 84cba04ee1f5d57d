"""Span tracer for the benchmark's traced run.

Wraps the public functions of each spinl module (one layer per module) so
that every call records a span: name, start, end and the span that was
open when it began.  A span's self time is its duration minus the time its
direct children cover.  Spans stay in memory; `Tracer.summary` folds them
into per-function call counts and self times at the end of the run.

The wrapped functions are imported by name into other modules
(`from .bigfloat import context`), so installing the tracer rebinds every
name in every loaded spinl module that refers to a wrapped function, and
`uninstall` puts the originals back.  Nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

# layer name -> module; the layers are the package's modules
LAYERS = {
    "exact_arith": "spinl.exact_arith",
    "qexp": "spinl.qexp",
    "critical_values": "spinl.critical_values",
    "numeric_lfun.bigfloat": "spinl.numeric_lfun.bigfloat",
    "numeric_lfun.special": "spinl.numeric_lfun.special",
    "numeric_lfun.quadrature": "spinl.numeric_lfun.quadrature",
    "numeric_lfun.evaluators": "spinl.numeric_lfun.evaluators",
    "numeric_lfun.verify": "spinl.numeric_lfun.verify",
    "cli": "spinl.cli",
}

# the integrand argument of tanh_sinh, wrapped to count evaluations
_COUNTED_CALLABLE_ARG = {"numeric_lfun.quadrature.tanh_sinh": 1}


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self._open: List[int] = []

    def enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        self._open.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: number of calls and summed self time."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += span.self_s
        return out

    def wrap(self, name: str, fn: Callable, counted_arg: Optional[int] = None) -> Callable:
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted_arg is not None:
                args = list(args)
                args[counted_arg] = self._counting(name + ".evals", args[counted_arg])
            misses = cache_info().misses if cache_info else 0
            idx = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(idx)
                if cache_info and cache_info().misses > misses:
                    # an lru-cached q-expansion built args[0] coefficients
                    self.count(name.split(".")[0] + ".coeffs_built", args[0])

        return traced

    def _counting(self, name: str, f: Callable) -> Callable:
        def counted(*args):
            self.count(name)
            return f(*args)

        return counted


def public_functions(module) -> Dict[str, Callable]:
    """Functions defined in the module under a name without a leading
    underscore (lru-cached ones included)."""
    return {
        attr: value
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and callable(value)
        and not inspect.isclass(value)
        and getattr(value, "__module__", None) == module.__name__
    }


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's public functions and rebind each name that refers
    to one in every loaded spinl module.  Returns the function that undoes it."""
    wrappers = {}
    for layer, modname in LAYERS.items():
        module = importlib.import_module(modname)
        for attr, fn in public_functions(module).items():
            name = f"{layer}.{attr}"
            wrappers[fn] = tracer.wrap(name, fn, _COUNTED_CALLABLE_ARG.get(name))
    rebound = []
    for modname, module in list(sys.modules.items()):
        if modname != "spinl" and not modname.startswith("spinl."):
            continue
        for attr, value in list(vars(module).items()):
            try:
                wrapper = wrappers.get(value)
            except TypeError:  # unhashable module attribute
                continue
            if wrapper is not None:
                setattr(module, attr, wrapper)
                rebound.append((module, attr, value))

    def uninstall() -> None:
        for module, attr, value in rebound:
            setattr(module, attr, value)

    return uninstall
