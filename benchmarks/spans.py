"""Span recording around the calls into uplab's public functions.

Every public function of the package's modules is wrapped at each name a
caller looks it up by: the defining module, every module that imported it
by name, and the ``uplab`` package namespace.  The methods and registry
entries the per-layer metrics name (``bounds.CfSearch.alphas`` and the
``harness.CHECKS`` entries) are wrapped where they are looked up too.  The
library itself is not edited.

Spans are kept in flat in-memory arrays (name, start, end, parent span,
item id) and written out once, after the pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.current_item = -1
        self._stack: list[int] = []

    def wrap(self, label: str, fn):
        name_id = len(self.names)
        self.names.append(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.item.append(self.current_item)
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self._stack.pop()

        return traced

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int_),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int_),
            item=np.frombuffer(self.item, dtype=np.int_),
        )

    def totals(self) -> dict:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the pass is single-threaded.
        """
        name = np.frombuffer(self.name, dtype=np.int_)
        parent = np.frombuffer(self.parent, dtype=np.int_)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        covered = np.zeros(len(duration))
        np.add.at(covered, parent[nested], duration[nested])
        count = len(self.names)
        calls = np.bincount(name, minlength=count)
        incl = np.bincount(name, weights=duration, minlength=count)
        self_s = np.bincount(name, weights=duration - covered, minlength=count)
        return {
            label: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
            for i, label in enumerate(self.names)
        }


def install(tracer: Tracer, layers) -> None:
    """Replace the public functions of the named uplab modules by traced wrappers, in place."""
    package = importlib.import_module("uplab")
    modules = {layer: importlib.import_module(f"uplab.{layer}") for layer in layers}
    wrapped = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                wrapped[value] = tracer.wrap(f"{layer}.{attr}", value)
    for module in (package, *modules.values()):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
    search = modules["bounds"].CfSearch
    search.alphas = tracer.wrap("bounds.CfSearch.alphas", search.alphas)
    checks = modules["harness"].CHECKS
    for check_id, fn in list(checks.items()):
        checks[check_id] = tracer.wrap(f"harness.check.{check_id}", fn)
