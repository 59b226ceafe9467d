"""Layer tracing from outside the package.

The tracer replaces cfcode's public layer functions with timing wrappers at
every module attribute that refers to them (so the names ``cli.py`` and
``verification.py`` import are covered too) and wraps ``BitMatrix.column_int``.
No package file is edited; ``uninstall`` puts the originals back.

Spans (name, start, end, parent) are kept in flat arrays while the workload
runs and are written out when the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from array import array

# (defining module, function) pairs that form the layer boundaries.
LAYER_FUNCTIONS = {
    "combinatorics": ("binomial", "colex_rank", "colex_unrank"),
    "code_core": ("validate", "dimensions", "entry", "materialize",
                  "row_label_from_rank", "row_rank_from_label",
                  "column_from_rank", "column_rank"),
    "matrix_io": ("read_matrix", "write_matrix"),
    "verification": ("verify_cover_free", "witness_counts", "witness_row"),
    "cli": ("main",),
}
# Methods wrapped on their class: (module, class, method).
LAYER_METHODS = (("code_core", "BitMatrix", "column_int"),)


class Tracer:
    """Collects nested spans from wrapped layer functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []

    # -- span recording -------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        stack = self._stack()
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.raised.append(0)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.end[idx] = time.perf_counter()
        if failed:
            self.raised[idx] = 1
        self._stack().pop()

    def _wrap_function(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # Generators do their work in next(), so each next() is a span.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _TracedIterator(tracer, nid, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                tracer._close(idx, failed)
        return wrapper

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every layer function at each cfcode module attribute naming it."""
        if not self._patches:
            self._discover()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _discover(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "cfcode" or name.startswith("cfcode."))}
        wrappers: dict[int, object] = {}
        for short, funcs in LAYER_FUNCTIONS.items():
            home = modules.get(f"cfcode.{short}")
            for fname in funcs:
                original = getattr(home, fname, None) if home is not None else None
                if original is None:
                    self.missing.append(f"{short}.{fname}")
                    continue
                wrappers[id(original)] = (original,
                                          self._wrap_function(f"{short}.{fname}", original))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value, hit[1]))
        for short, cls_name, meth in LAYER_METHODS:
            cls = getattr(modules.get(f"cfcode.{short}"), cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                self.missing.append(f"{short}.{cls_name}.{meth}")
                continue
            self._patches.append((cls, meth, original,
                                  self._wrap_function(f"{short}.{meth}", original)))

    # -- analysis -------------------------------------------------------
    def aggregate(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds and calls
        that raised, over spans first..last-1 (a closed group of spans)."""
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(first, last):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            agg = out.get(name)
            if agg is None:
                agg = out[name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0}
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child[i - first]
            agg["raised"] += self.raised[i]
        return out

    def write(self, path: str) -> None:
        """Write all spans as columns; times are seconds from the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start": [round(x - origin, 9) for x in self.start],
                "end": [round(x - origin, 9) for x in self.end],
                "raised": self.raised.tolist(),
            }, fh, separators=(",", ":"))


class _TracedIterator:
    """Iterator proxy that records one span per next()."""

    __slots__ = ("_tracer", "_nid", "_it")

    def __init__(self, tracer: Tracer, nid: int, it) -> None:
        self._tracer = tracer
        self._nid = nid
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer._open(self._nid)
        failed = False
        try:
            return next(self._it)
        except StopIteration:
            raise
        except BaseException:
            failed = True
            raise
        finally:
            self._tracer._close(idx, failed)
