"""Tracing of bosonlab's public functions from outside the program.

``Tracer.installed()`` wraps every public function of the traced modules and
rebinds the wrapper at every name that holds the original in any loaded
``bosonlab`` module: the defining module (reached as ``fs.dgamma_apply``) and
each ``from .x import f`` site (``duhamel`` binds ``apply_Htilde`` and
``rk4_step`` by name).  ``FockSpace`` is traced through its ``__init__``.
Everything is restored on exit.

Each call records a span (parent span, name, outermost-of-its-name flag,
start, end) in memory; ``take()`` returns the spans since the last ``take()``
as arrays.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

TRACED_MODULES = ("model", "fockstate", "meanfield", "hamiltonians", "propagation",
                  "duhamel", "projections", "experiments")
TRACED_CLASSES = {"fockstate": ("FockSpace",)}
PACKAGE = "bosonlab"


@dataclass(frozen=True)
class Spans:
    """Spans of one traced interval; ``parent`` is -1 for a root span."""

    names: tuple
    parent: np.ndarray
    name_id: np.ndarray
    outer: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def per_name(self) -> dict:
        """name -> (calls, s, self_s).

        ``s`` sums only the outermost span of each name on a call path, so a
        function that re-enters itself is not counted twice.  ``self_s`` is a
        span's duration minus the time its child spans cover.
        """
        k = len(self.names)
        dur = self.duration
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        calls = np.bincount(self.name_id, minlength=k)
        busy = np.bincount(self.name_id[self.outer], weights=dur[self.outer], minlength=k)
        own = np.bincount(self.name_id, weights=dur - child, minlength=k)
        return {name: (int(calls[i]), float(busy[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def durations_under(self, name: str, ancestor: str) -> np.ndarray:
        """Durations of ``name`` spans whose nearest traced ancestor among
        the spans named ``ancestor`` or ``name`` is an ``ancestor`` span."""
        target, anc = self.names.index(name), self.names.index(ancestor)
        picked = []
        for i in np.flatnonzero(self.name_id == target):
            j = self.parent[i]
            while j >= 0 and self.name_id[j] not in (target, anc):
                j = self.parent[j]
            if j >= 0 and self.name_id[j] == anc:
                picked.append(i)
        return self.duration[np.asarray(picked, dtype=np.int64)]


def traced_functions() -> list:
    """(name, function) for every public module-level function that is traced."""
    out = []
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, value in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == mod.__name__):
                out.append((f"{short}.{attr}", value))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._spans: list = []
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        spans, stack, depth, clock = self._spans, self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = depth[name_id] == 0
            depth[name_id] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name_id] -= 1
                stack.pop()
                spans[idx] = (parent, name_id, outer, start, end)

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.names, self._depth = [], []
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in traced_functions()}
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        for short, classes in TRACED_CLASSES.items():
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for cls_name in classes:
                cls = getattr(mod, cls_name)
                self._patch(cls, "__init__", self._wrap(f"{short}.{cls_name}", cls.__init__))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def take(self) -> Spans:
        """Spans recorded since the last call, which are then dropped."""
        if self._stack:
            raise RuntimeError("take() called inside a traced call")
        rows = self._spans
        cols = list(zip(*rows)) if rows else [()] * 5
        out = Spans(
            names=tuple(self.names),
            parent=np.asarray(cols[0], dtype=np.int64),
            name_id=np.asarray(cols[1], dtype=np.int64),
            outer=np.asarray(cols[2], dtype=bool),
            start=np.asarray(cols[3], dtype=np.float64),
            end=np.asarray(cols[4], dtype=np.float64),
        )
        del rows[:]
        return out
