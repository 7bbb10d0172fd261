"""In-memory span recording around the public entry points of each layer.

The benchmark measures layers from the outside only: :func:`install`
replaces a function at the name its caller looks up (a module global or
a class attribute) with a wrapper that records one span per call, and
:meth:`Tracer.uninstall` puts every original back.  No file of the
program is changed.

A span is ``(name, start, end, self, extra)`` with times in seconds of
``time.perf_counter``.  Synchronous spans nest per thread, so a span's
self time is its duration minus the time its child spans on the same
thread cover.  Spans around coroutine functions do not nest (other tasks
run across their awaits); their self time is their duration.  Spans stay
in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    """Records spans from any thread; one instance per process."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _record(self, name: str, t0: float, t1: float, self_s: float,
                extra) -> None:
        with self._lock:
            self.spans[name].append((t0, t1, self_s, extra))

    def wrap(self, name: str, fn: Callable,
             annotate: Optional[Callable] = None) -> Callable:
        """A wrapper of *fn* that records a span named *name*.

        ``annotate(args, kwargs, result, state)`` may return a JSON-safe
        value stored with the span; ``state`` is what
        ``annotate(args, kwargs, None, None)`` returned before the call
        (for before/after counter deltas).
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                before = annotate(args, kwargs, None, None) if annotate else None
                t0 = time.perf_counter()
                result = await fn(*args, **kwargs)
                t1 = time.perf_counter()
                extra = annotate(args, kwargs, result, before) if annotate else None
                tracer._record(name, t0, t1, t1 - t0, extra)
                return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            before = annotate(args, kwargs, None, None) if annotate else None
            frame = [0.0]  # child time
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
            extra = annotate(args, kwargs, result, before) if annotate else None
            tracer._record(name, t0, t1, (t1 - t0) - frame[0], extra)
            return result
        return wrapper

    def install(self, target: str, name: str,
                annotate: Optional[Callable] = None) -> None:
        """Wrap ``module.attr`` or ``module.Class.attr`` named by *target*."""
        owner, attr = _resolve(target)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, annotate))
        else:
            wrapped = self.wrap(name, raw, annotate)
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        with self._lock:
            payload = {name: list(rows) for name, rows in self.spans.items()}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _resolve(target: str):
    """``"pkg.mod.Class.attr"`` -> (owner object, attribute name)."""
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for part in parts[split:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve {target!r}")


def load(path: str) -> dict[str, list]:
    with open(path) as fh:
        return json.load(fh)


def merge(*span_sets: dict) -> dict[str, list]:
    """Union of span dicts (e.g. router plus shard processes)."""
    out: dict[str, list] = defaultdict(list)
    for spans in span_sets:
        for name, rows in spans.items():
            out[name].extend(rows)
    return dict(out)
