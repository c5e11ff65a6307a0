"""Spans recorded around the program's functions, from outside the program.

A `Tracer` replaces each target function by a recording wrapper in every
module of the package that binds it, so call sites that imported the
function by name (``from .core import fiber``) are seen as well.  Each call
becomes one span: name, start, end and the index of the enclosing span.
Spans stay in memory until `aggregate` folds one round of them into
per-function call counts and inclusive times and per-module self times.

Nothing here touches the program's files: `install` rebinds module
attributes in the running process and `uninstall` puts the originals back.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

BENCH_MODULE = "bench"  # spans the benchmark opens itself; never a layer


@dataclass(frozen=True)
class Target:
    """One function to wrap, and how to read counters off its result."""

    module: str  # module of the package, e.g. "core"
    name: str  # attribute holding the function, e.g. "fiber"
    hook: Optional[Callable[[object, dict], None]] = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass(frozen=True)
class CallCounter:
    """A method whose calls are only counted, e.g. a constructor."""

    module: str
    cls: str
    method: str
    counter: str


class Tracer:
    """Span recorder for one process; single-threaded by construction."""

    def __init__(self, package: str, targets, call_counters=()):
        self.package = package
        self.targets = tuple(targets)
        self.call_counters = tuple(call_counters)
        self.labels: list = []  # span name table, indexed by name id
        self.modules: list = []  # module of each name id
        self.spans: list = []  # (name id, start, end, parent index)
        self.counters: dict = {}
        self.missing: set = set()  # targets or counters that do not resolve
        self._ids: dict = {}
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def _name_id(self, label: str, module: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
            self.modules.append(module)
        return self._ids[label]

    def _package_modules(self) -> list:
        prefix = self.package + "."
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None
                and (name == self.package or name.startswith(prefix))]

    def install(self) -> None:
        """Wrap every target wherever the package binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._package_modules()
        patches = []
        for target in self.targets:
            home = sys.modules.get(f"{self.package}.{target.module}")
            fn = getattr(home, target.name, None)
            if not callable(fn):
                self.missing.add(target.label)
                continue
            wrapper = self._wrap(fn, target)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is fn:
                        patches.append((mod, attr, fn, wrapper))
        for cc in self.call_counters:
            home = sys.modules.get(f"{self.package}.{cc.module}")
            cls = getattr(home, cc.cls, None)
            original = vars(cls).get(cc.method) if cls is not None else None
            if original is None:
                self.missing.add(cc.counter)
                continue
            patches.append((cls, cc.method, original,
                            self._count(original, cc.counter)))
        for owner, attr, original, wrapper in patches:
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def reset(self) -> None:
        """Drop the spans and counters of the previous round."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans.clear()
        self.counters.clear()

    def _wrap(self, fn, target: Target):
        name_id = self._name_id(target.label, target.module)
        spans, stack, counters = self.spans, self._stack, self.counters
        hook, missing = target.hook, self.missing
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if hook is not None:
                try:
                    hook(result, counters)
                except (AttributeError, TypeError, KeyError):
                    missing.add(f"{target.label} result")
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count(self, method, counter: str):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] = counters.get(counter, 0) + 1
            return method(*args, **kwargs)

        counted.__wrapped__ = method
        return counted

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens around its own code."""
        name_id = self._name_id(f"{BENCH_MODULE}.{name}", BENCH_MODULE)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name_id, start, end, parent)

    def aggregate(self) -> dict:
        """Fold the recorded spans into layer metrics.

        ``<label>.calls`` and ``<label>.s`` per target, where the inclusive
        time of a call nested inside a call of the same function is not
        counted twice, and ``<module>.self_s`` per module: span duration
        minus the time its child spans cover, summed over the module.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict = {}
        inclusive: dict = {}
        self_s: dict = {}
        for index, (name_id, start, end, parent) in enumerate(spans):
            label, module = self.labels[name_id], self.modules[name_id]
            calls[label] = calls.get(label, 0) + 1
            if not _nested_in_same(spans, parent, name_id):
                inclusive[label] = inclusive.get(label, 0.0) + (end - start)
            self_s[module] = self_s.get(module, 0.0) + (end - start - covered[index])
        out = {}
        for target in self.targets:
            out[f"{target.label}.calls"] = calls.get(target.label, 0)
            out[f"{target.label}.s"] = inclusive.get(target.label, 0.0)
        for module in dict.fromkeys(t.module for t in self.targets):
            out[f"{module}.self_s"] = self_s.get(module, 0.0)
        return out

    def dump(self) -> dict:
        """The recorded spans in a JSON-ready form."""
        return {
            "fields": ["name", "start", "end", "parent"],
            "names": list(self.labels),
            "spans": [list(s) for s in self.spans],
        }


def _nested_in_same(spans, parent: int, name_id: int) -> bool:
    while parent >= 0:
        if spans[parent][0] == name_id:
            return True
        parent = spans[parent][3]
    return False
