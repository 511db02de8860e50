"""In-memory span tracing for the benchmark's traced run.

`Tracer.install` wraps public l1cert functions in every l1cert module that
binds them, so calls made by the CLI, the library and the benchmark itself
all pass through the wrapper. Each call records a span
(name, start, end, parent, op) in memory; `uninstall` puts the originals
back. A target that no longer exists is recorded in `missing` instead of
raising, so the benchmark keeps working when functions move or disappear.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable


FIELDS = ("name", "start", "end", "parent", "op")

# A counter callback maps (args, kwargs, result) of a traced call to
# (counter name, value) pairs.
Counter = Callable[[tuple, dict, object], "list[tuple[str, int]]"]


class Tracer:
    def __init__(self) -> None:
        # One [name, start, end, parent index (-1 at top level), op id] per span.
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], list[int]] = defaultdict(list)
        self.missing: list[str] = []
        self.op = ""
        self._open: list[int] = []
        self._restore: list[Callable[[], None]] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call made by the benchmark's own code."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def count(self, name: str, value: int) -> None:
        self.counts[(self.op, name)].append(int(value))

    def wrap(self, fn: Callable, name: str, counter: "Counter | None" = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if counter is not None:
                try:
                    pairs = counter(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    pairs = [(name + ".counter_error", 1)]
                for key, value in pairs:
                    self.count(key, value)
            return result

        return traced

    # -- installing wrappers ---------------------------------------------

    def install(self, targets, mappings) -> None:
        """Wrap every target (module, attribute path, span name, counter).

        An attribute path is a function name ("certify") or a class
        attribute ("PointSet.distance_matrix", a method or cached
        property). `mappings` lists (module, dict name, span prefix): each
        value of that dict is wrapped as span "<prefix><key>".
        """
        for module_name, path, span_name, counter in targets:
            if not self._install_one(module_name, path, span_name, counter):
                self.missing.append(f"{module_name}.{path}")
        for module_name, dict_name, prefix in mappings:
            table = getattr(sys.modules.get(module_name), dict_name, None)
            if not isinstance(table, dict):
                self.missing.append(f"{module_name}.{dict_name}")
                continue
            saved = dict(table)
            for key, fn in saved.items():
                if callable(fn):
                    table[key] = self.wrap(fn, f"{prefix}{key}")
            self._restore.append(functools.partial(table.update, saved))
        self.missing = sorted(set(self.missing))

    def _install_one(self, module_name: str, path: str, span_name: str, counter) -> bool:
        module = sys.modules.get(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None:
            return False
        if isinstance(owner, type):
            return self._install_class_attr(owner, attr, span_name, counter)
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        wrapper = self.wrap(original, span_name, counter)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("l1cert"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append(functools.partial(setattr, mod, key, original))
        return True

    def _install_class_attr(self, cls: type, attr: str, span_name: str, counter) -> bool:
        original = cls.__dict__.get(attr)
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(
                self.wrap(original.func, span_name, counter)
            )
            replacement.__set_name__(cls, attr)
        elif callable(original):
            replacement = self.wrap(original, span_name, counter)
        else:
            return False
        setattr(cls, attr, replacement)
        self._restore.append(functools.partial(setattr, cls, attr, original))
        return True

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    @contextlib.contextmanager
    def installed(self, op: str, targets, mappings):
        """Record spans under op id `op` while the wrappers are installed."""
        self.op = op
        self.install(targets, mappings)
        try:
            yield self
        finally:
            self.uninstall()
            self.op = ""

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], float]:
        """(op, span name) -> summed self time: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for (name, start, end, _, op), inner in zip(self.spans, child):
            out[(op, name)] += (end - start) - inner
        return out

    def total_times(self) -> dict[tuple[str, str], float]:
        """(op, span name) -> summed inclusive time of the outermost such spans."""
        out: dict[tuple[str, str], float] = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[(op, name)] += end - start
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")
