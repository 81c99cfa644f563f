"""In-memory span recorder with self-time accounting, for the traced run.

A span is one timed call across a layer boundary: its name is
``<module>.<function>``, and it records start, end, its parent span and the
run id shared by every span of one job.  ``span`` opens one span record per
call; ``patch`` wraps library functions at the module bindings their callers
use, and those calls are aggregated into one record per (name, parent) with a
call count and total time, since hot calls such as ``inter_orbit_distance``
run tens of thousands of times in one job.  Each span's self time, its
duration minus the time its child spans cover, is summed per name as the
spans close.  Spans stay in memory until the job ends; the traced job then
prints them all at once.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []           # records, in the order they were opened
        self.self_s = {}          # span name -> summed self time
        self.calls = 0            # spans closed, aggregated calls included
        self._stack = []          # open spans: [record, start, child time]
        self._aggregates = {}     # (name, parent id) -> record

    def _open(self, name: str, aggregate: bool):
        parent = self._stack[-1][0]["id"] if self._stack else None
        now = time.perf_counter()
        rec = self._aggregates.get((name, parent)) if aggregate else None
        if rec is None:
            rec = {"id": len(self.spans), "name": name, "run": self.run_id,
                   "parent": parent, "start": now, "end": now,
                   "calls": 0, "total": 0.0}
            self.spans.append(rec)
            if aggregate:
                self._aggregates[(name, parent)] = rec
        self._stack.append([rec, now, 0.0])

    def _close(self):
        rec, start, child = self._stack.pop()
        end = time.perf_counter()
        rec["end"] = end
        rec["calls"] += 1
        rec["total"] += end - start
        self.self_s[rec["name"]] = self.self_s.get(rec["name"], 0.0) + end - start - child
        self.calls += 1
        if self._stack:
            self._stack[-1][2] += end - start

    @contextmanager
    def span(self, name: str):
        self._open(name, aggregate=False)
        try:
            yield
        finally:
            self._close()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            self._open(name, aggregate=True)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return traced

    @contextmanager
    def patch(self, bindings):
        """Trace calls through each (module, attribute, span name) binding.

        Yields the bindings the library does not have, so that a renamed
        function shows as untraced instead of failing the job.
        """
        saved, missing = [], []
        for module_name, attr, name in bindings:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name))
        try:
            yield missing
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def span_cost(iterations: int = 20000) -> float:
    """Seconds one traced call adds over the same call untraced."""
    def noop():
        pass
    traced = Tracer("calibration").wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(iterations):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(iterations):
        traced()
    return max(time.perf_counter() - t0 - bare, 0.0) / iterations
