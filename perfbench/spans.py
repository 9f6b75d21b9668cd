"""Spans around calls into the program's layers, recorded from outside.

The tracer replaces every public module-level function of the nine
modules (names without a leading underscore, defined in that module) by a
wrapper, wherever a module's globals refer to it, so calls between layers
are timed too.  Methods, classes and private helpers stay untouched: the
hot inner loops of the program run through those, and wrapping them would
measure the tracer instead.

For each function the tracer keeps: calls, self seconds (its span minus
the nested traced spans), calls that raised, returns of a `NoPoint`, and
total seconds (whole spans, counted again in recursive calls).
"""

from __future__ import annotations

import functools
import inspect
import time


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> module
        self.stats: dict[str, list] = {}  # "layer.function" -> [calls, self_s, errors, no_point, total_s]
        self._open: list[float] = []  # child time of each open span
        self._patches: list[tuple] = []
        self._cache_start: dict[str, int] = {}

    def public_functions(self):
        """(layer, function) for each public module-level function."""
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    yield layer, obj

    def install(self, paused: list) -> None:
        """Start tracing.  `paused[0]` is a running total of time that is
        not the program's (speed sampling); spans leave it out."""
        self._paused = paused
        self._cache_start = self.cache_entries()
        wrappers = {}
        for layer, fn in self.public_functions():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(f"{layer}.{fn.__name__}", fn)
        for module in self.modules.values():
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0, 0, 0.0])
        open_spans = self._open
        paused = self._paused
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            open_spans.append(0.0)
            paused_before, start = paused[0], clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                span = clock() - start - (paused[0] - paused_before)
                stat[1] += span - open_spans.pop()
                stat[4] += span
                if open_spans:
                    open_spans[-1] += span
            if type(result).__name__ == "NoPoint":
                stat[3] += 1
            return result

        return traced

    def cache_entries(self) -> dict[str, int]:
        """Entries held by each layer's module-level caches: `lru_cache`
        functions and private module-level dicts."""
        out = {}
        for layer, module in self.modules.items():
            total = 0
            for name, obj in vars(module).items():
                cached = obj if hasattr(obj, "cache_info") else getattr(obj, "__wrapped__", None)
                if hasattr(cached, "cache_info"):
                    total += cached.cache_info().currsize
                elif name.startswith("_") and type(obj) is dict:
                    total += len(obj)
            out[layer] = total
        return out

    def cache_growth(self) -> dict[str, int]:
        """Cache entries added since `install`."""
        now = self.cache_entries()
        return {layer: now[layer] - self._cache_start.get(layer, 0) for layer in now}

    def summary(self) -> dict:
        return {
            "functions": {key: list(stat) for key, stat in self.stats.items()},
            "cache_entries": self.cache_growth(),
        }
