"""Span tracing around the calls into qparity's modules, from outside them.

``Tracer.install`` wraps every public function bound in any ``qparity``
module namespace, including names bound there by ``from .x import y``, and
``__init__`` of the three linear-algebra types. Each wrapped call records a
span (name, start, end, parent) in flat in-memory arrays; nothing is written
until :meth:`Tracer.save`. A span is named after the module that defines the
function, so ``reports`` calling ``run_even_odd`` records
``algorithms.run_even_odd``. ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

PACKAGE = "qparity"
TRACED_CLASSES = ("StateVector", "DensityMatrix", "UnitaryOperator")
ROOT_LAYER = "op"


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one per op."""
        i = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(obj, f"{_layer(obj.__module__)}.{obj.__qualname__}")
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        linalg = sys.modules[f"{PACKAGE}.linalg"]
        for cls_name in TRACED_CLASSES:
            cls = getattr(linalg, cls_name)
            init = cls.__init__
            self._patched.append((cls, "__init__", init))
            cls.__init__ = self.wrap(init, f"linalg.{cls_name}.__init__")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self):
        """Per-span self time in ns: duration minus the time direct children cover."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        return duration, duration - covered

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total and self time in ns."""
        import numpy as np

        duration, self_ns = self.self_times()
        ids = np.array(self.name_id, dtype=np.int64)
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=duration, minlength=n)
        own = np.bincount(ids, weights=self_ns, minlength=n)
        return {
            name: {"calls": int(calls[i]), "total_ns": float(total[i]), "self_ns": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        """Write every span (name, start, end, parent) as a compressed .npz."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
        )
