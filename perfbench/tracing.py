"""Spans around the public functions of each twodist module, from outside.

``Tracer.install`` replaces every public function of the seven modules, and
the public and arithmetic methods of the classes they define, with a wrapper
that records a span: calls, inclusive seconds (outermost call only, so
recursion is not counted twice) and self seconds (duration minus the time
of the spans it directly caused).  Every module namespace that imported a
function by name gets the wrapper too, so calls between modules are seen.
Spans are aggregated in memory by name; ``uninstall`` restores the
originals.  Private helpers are not wrapped, so their time counts as self
time of the nearest public caller.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("exactnum", "polynomials", "designs", "coherent", "geometry", "dioph", "cli")

# methods wrapped besides public ones: the arithmetic and construction of the
# exact number and polynomial types, which carry most of their layers' work
DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__"}


class Tracer:
    def __init__(self, package: str = "twodist"):
        self.modules = {name: importlib.import_module(f"{package}.{name}") for name in MODULES}
        self.namespaces = [importlib.import_module(package), *self.modules.values()]
        self.stats: dict = {}     # span name -> [calls, inclusive s, self s, depth]
        self.counters: dict = {}  # counter name -> value
        self.hooks: dict = {}     # span name -> fn(tracer, args, result)
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def count(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def reset(self) -> None:
        self.stats = {key: [0, 0.0, 0.0, 0] for key in self.stats}
        self.counters = {}

    def _wrap(self, key: str, fn):
        self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            st = self.stats[key]
            child = [0.0]
            stack.append(child)
            st[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                st[3] -= 1
                st[0] += 1
                st[2] += took - child[0]
                if not st[3]:
                    st[1] += took
            hook = self.hooks.get(key)
            if hook:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _targets(self):
        """(span name, owner, attribute, function) for everything to wrap."""
        for mod_name, mod in self.modules.items():
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value.__module__ == mod.__name__ and not name.startswith("_"):
                    yield f"{mod_name}.{name}", mod, name, value
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for attr, member in list(vars(value).items()):
                        if attr.startswith("_") and attr not in DUNDERS:
                            continue
                        if inspect.isfunction(member) and member.__qualname__.startswith(value.__name__ + "."):
                            yield f"{mod_name}.{name}.{attr}", value, attr, member

    def install(self) -> None:
        wrappers = {}
        for key, owner, attr, fn in self._targets():
            wrapper = self._wrap(key, fn)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            if owner in self.modules.values():
                wrappers[id(fn)] = (fn, wrapper)
        for ns in self.namespaces:
            for name, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit and hit[0] is value:
                    self._patches.append((ns, name, value))
                    setattr(ns, name, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(st[2] for key, st in self.stats.items() if key.startswith(prefix))

    def calls(self, *keys: str) -> int:
        return sum(self.stats.get(key, (0,))[0] for key in keys)

    def inclusive_s(self, key: str) -> float:
        return self.stats.get(key, (0, 0.0))[1]
