"""Spans recorded from the benchmark's own wrappers around program calls.

The program itself is not instrumented.  A traced operation installs
wrappers on the public functions and methods it calls into, records one
span per call (name, start, end, parent span, operation id) in memory, and
removes the wrappers again, so untraced operations run the program as is.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

LAYERS = ("tokenizer", "storage", "index", "stats", "mining", "epmc", "output")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, str]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[Any, str, Callable[[Callable], Callable]]] = []
        self.op_id = ""
        # Values noted by wrappers (token counts, cache hits, ...) by name.
        self.notes: dict[str, list] = {}

    def note(self, name: str, value) -> None:
        self.notes.setdefault(name, []).append(value)

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        # Pool threads start with an empty stack; their work belongs to
        # whatever the main thread has open, normally run_mining.
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, self.op_id))

    def traced(self, name: str, fn: Callable, on_result: Callable[[Any], None] | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, on_result: Callable[[Any], None] | None = None) -> None:
        """Register a wrapper for ``owner.attr``, installed by :meth:`installed`."""
        self._patches.append((owner, attr, lambda fn: self.traced(name, fn, on_result)))

    @contextmanager
    def installed(self, op_id: str):
        """Trace one operation: install every wrapper, then restore the originals."""
        self.op_id = op_id
        saved = []
        for owner, attr, make in self._patches:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            saved.append((owner, attr, own, vars(owner).get(attr)))
            setattr(owner, attr, make(original))
        try:
            with self.span("bench.op"):
                yield
        finally:
            for owner, attr, own, original in reversed(saved):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)
            self.op_id = ""

    def adopt(self, spans: list) -> None:
        """Add spans another process's Tracer recorded, under the open span."""
        stack = self._stack()
        outer = stack[-1] if stack else None
        ids = {span[0]: next(self._ids) for span in spans}
        for sid, parent, name, start, end, _op in spans:
            self.spans.append((ids[sid], ids.get(parent, outer), name, start, end, self.op_id))

    # --- analysis ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, parent, _name, start, end, _op in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        result = {}
        for sid, _parent, _name, start, end, _op in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            result[sid] = (end - start) - covered
        return result

    def totals(self, ops: set[str] | None = None) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, total self seconds)."""
        selfs = self.self_times()
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _parent, name, start, end, op in self.spans:
            if ops is not None and op not in ops:
                continue
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += selfs[sid]
        return {name: (int(c), t, s) for name, (c, t, s) in out.items()}

    def write(self, path: Path) -> None:
        origin = min((s[3] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, op in sorted(self.spans, key=lambda s: s[3]):
                record = {
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "op": op,
                }
                fh.write(json.dumps(record) + "\n")
