"""Span tracing for the benchmark's traced runs.

The benchmark changes no program code.  It wraps the public functions of
the uhrkit modules from the outside, in every namespace that binds them
(``from ... import`` copies a function into other modules, e.g.
``cli.infer_shapes`` or ``presets.parse_structure``), and records one span
per call: ``(id, name, start, end, parent, pid, attrs)``.  Spans stay in
memory and are written out when the run ends.

The gradient checker forks its workers.  Spans recorded inside a worker
live in the worker's copy of this tracer, which the parent cannot see, so
the forked worker entry point is wrapped too: when a worker task ends, its
spans are spooled to a file that the parent merges when tracing ends.
``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, so parent and worker
timestamps share one clock.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "dsl", "presets", "graph", "analysis", "ops", "runtime")

# Called once per graph node inside count_flops and CostReport.by_group: a
# span each would cost more than the work they do.  Their time stays in the
# caller's self time.
UNSPANNED = frozenset({"graph.resolution_level", "analysis.role_group"})

# Private entry point of the forked gradcheck workers (see module docstring).
WORKER_ENTRY = "_gc_worker"


class Tracer:
    def __init__(self, spool_dir: Path):
        self.spans: list[tuple] = []
        self.context: dict = {}  # copied into the attrs of annotated spans
        self.annotators: dict = {}  # span name -> fn(args, kwargs, result, context) -> attrs
        self.spool_dir = Path(spool_dir)
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._spooled = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(sid)
            start = time.perf_counter()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                annotate = None if raised else self.annotators.get(name)
                attrs = annotate(args, kwargs, result, self.context) if annotate else None
                self.spans.append((sid, name, start, end, parent, self._pid, attrs))

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__module__ = fn.__module__
        traced.__wrapped__ = fn
        return traced

    def _wrap_worker(self, fn):
        """Worker entry point: record the task as a span and spool the
        worker's spans before the result goes back to the parent."""
        inner = self._wrap("runtime." + WORKER_ENTRY, fn)

        def worker(*args, **kwargs):
            if os.getpid() != self._pid:  # first task in a fresh fork
                self._pid = os.getpid()
                self.spans = []
                self._ids = itertools.count((self._pid << 32) + 1)
            try:
                return inner(*args, **kwargs)
            finally:
                self._spool()

        worker.__name__ = fn.__name__
        worker.__qualname__ = fn.__qualname__
        worker.__module__ = fn.__module__
        return worker

    def _spool(self) -> None:
        path = self.spool_dir / f"spans-{os.getpid()}-{next(self._spooled)}.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
        self.spans = []

    def collect_spool(self) -> None:
        """Merge the spans that forked workers spooled."""
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as f:
                self.spans.extend(tuple(json.loads(line)) for line in f)
            path.unlink()

    # -- installing ----------------------------------------------------------

    def install(self, package) -> None:
        modules = [getattr(package, name) for name in LAYERS]
        wrapped: dict = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and name not in UNSPANNED
                ):
                    wrapped[obj] = self._wrap(name, obj)
        runtime = package.runtime
        entry = getattr(runtime, WORKER_ENTRY)
        wrapped[entry] = self._wrap_worker(entry)
        for ns in [package, *modules]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(ns, attr, wrapped[obj])
                    self._patches.append((ns, attr, obj))

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: Path, header: dict) -> None:
        keys = ("id", "name", "start", "end", "parent", "pid", "attrs")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**header, "span_fields": keys, "spans": self.spans}, f)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive seconds ``s`` and ``self_s``.

    Self time is a span's duration minus the part of it that its child
    spans cover.  Children of one span may overlap (forked workers run
    side by side), so the covered part is the union of their intervals.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, _name, start, end, parent, _pid, _attrs in spans:
        children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _parent, _pid, _attrs in spans:
        acc = out[name]
        acc["calls"] += 1
        acc["s"] += end - start
        acc["self_s"] += end - start - _covered(children.get(sid, []), start, end)
    return dict(out)
