"""In-memory spans recorded from outside the program.

The benchmark times each layer by wrapping calls into public functions and
objects: a module attribute is swapped for a timing wrapper, and the
response store and the model are handed to the program as proxies. Each
span records its name, start, end, parent span and the run id; the spans
stay in memory and are written out at exit as Chrome trace-event JSON
(load the file in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start: float  # time.monotonic(), shared by every process on the host
    end: float
    parent: int | None
    thread: int


@dataclass
class Tracer:
    """Collects spans and counters for one run."""

    run_id: str
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[int | None] = (
            contextvars.ContextVar(f"span-{self.run_id}", default=None)
        )

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            self._current.reset(token)
            with self._lock:
                self.spans.append(Span(
                    span_id, name, start, end, parent, threading.get_ident()
                ))

    def wrap(self, fn, name: str, count=None):
        """``fn`` timed as span ``name``; ``count(args, result)`` adds to
        the ``name`` counter (default: one per call)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.add(name, count(args, result) if count else 1)
            return result

        return wrapper

    def wrap_async(self, fn, name: str):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            with self.span(name):
                result = await fn(*args, **kwargs)
            self.add(name)
            return result

        return wrapper

    # -- reading the spans back ---------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, dict[str, float]]:
        """name → total time, self time (total minus the part its child
        spans cover) and span count."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            row = out.setdefault(s.name, {"total": 0.0, "self": 0.0, "n": 0})
            row["total"] += s.end - s.start
            row["self"] += (s.end - s.start) - covered
            row["n"] += 1
        return out

    def chrome_events(self) -> list[dict]:
        pid = os.getpid()
        return [
            {
                "name": s.name,
                "ph": "X",
                "ts": s.start * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": pid,
                "tid": s.thread,
                "args": {"run": self.run_id, "id": s.span_id,
                         "parent": s.parent},
            }
            for s in self.spans
        ]


def write_chrome_trace(path, events: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def patch_function(module_name: str, attr: str, wrapper) -> None:
    """Point every loaded module that holds ``module_name.attr`` at
    ``wrapper``. Modules imported later copy the patched attribute."""
    original = getattr(sys.modules[module_name], attr)
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get(attr) is original:
            setattr(module, attr, wrapper)


class TracedStore:
    """Response-store proxy: timed ``get``/``put``/``flush`` and a
    ``deferred()`` whose exit is timed as a flush."""

    def __init__(self, store, tracer: Tracer):
        self._store = store
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._store, name)

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key):
        with self._tracer.span("store.get"):
            value = self._store.get(key)
        self._tracer.add("store.get")
        if value is not None:
            self._tracer.add("store.hit")
        return value

    def put(self, key, value) -> None:
        with self._tracer.span("store.put"):
            self._store.put(key, value)
        self._tracer.add("store.put")

    def flush(self) -> None:
        with self._tracer.span("store.flush"):
            self._store.flush()
        self._tracer.add("store.flush")

    @contextmanager
    def deferred(self):
        inner = self._store.deferred()
        inner.__enter__()
        try:
            yield
        except BaseException:
            if not inner.__exit__(*sys.exc_info()):
                raise
        else:
            with self._tracer.span("store.flush"):
                inner.__exit__(None, None, None)
            self._tracer.add("store.flush")


class TracedModel:
    """Model proxy whose ``complete`` is one ``llm.complete`` span."""

    def __init__(self, model, tracer: Tracer):
        self._model = model
        self.complete = tracer.wrap(model.complete, "llm.complete")

    def __getattr__(self, name):
        return getattr(self._model, name)
