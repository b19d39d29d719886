"""In-memory span recorder and the wrappers that feed it.

A :class:`Tracer` records one span per call of a wrapped function: a
name, start and end (``time.perf_counter`` seconds), the id of the span
that was open on the same thread when it started, and the thread.  Spans
are appended to per-thread ``array`` columns (34 bytes a span) and stay
in memory until :meth:`Tracer.summary` or :meth:`Tracer.chrome_trace`
reads them at the end of the run.

Wrapping is done from outside the program: :func:`install` replaces a
class attribute or module function with a recording wrapper, and also
rebinds every ``from module import name`` copy of a module function that
other loaded modules hold, so call sites that imported the name directly
are traced as well.  The wrapper returns whatever the wrapped function
returns and re-raises whatever it raises, so a traced run computes the
same results as an untraced one.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from array import array
from typing import Any, Callable


class _ThreadBuffer:
    """Span columns and the open-span stack of one thread."""

    __slots__ = ("tid", "stack", "ids", "parents", "names", "starts", "ends")

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[int] = []
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")


class Tracer:
    """Collects spans from any thread; read them once the run is over."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._buffers_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.origin = time.perf_counter()

    # ---------------------------------------------------------------- record
    def _buffer(self) -> _ThreadBuffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _ThreadBuffer(threading.get_ident())
            self._local.buffer = buffer
            with self._buffers_lock:
                self._buffers.append(buffer)
        return buffer

    def name_id(self, name: str) -> int:
        """The column code of span ``name`` (registered on first use)."""
        code = self._name_index.get(name)
        if code is None:
            code = len(self._names)
            self._names.append(name)
            self._name_index[name] = code
        return code

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under whatever span is open on this thread."""
        buffer = self._buffer()
        buffer.ids.append(next(self._ids))
        buffer.parents.append(buffer.stack[-1] if buffer.stack else 0)
        buffer.names.append(self.name_id(name))
        buffer.starts.append(start)
        buffer.ends.append(end)

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (a plain tally, no span)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        function: Callable,
        name: str,
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> Callable:
        """A function that records a ``name`` span around each call."""
        code = self.name_id(name)
        ids = self._ids
        clock = time.perf_counter
        get_buffer = self._buffer

        @functools.wraps(function)
        def traced(*args, **kwargs):
            buffer = get_buffer()
            stack = buffer.stack
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buffer.ids.append(span_id)
                buffer.parents.append(parent)
                buffer.names.append(code)
                buffer.starts.append(start)
                buffer.ends.append(end)
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__perfbench_wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------ read
    def spans(self) -> list[tuple[int, int, str, float, float, int]]:
        """Every span as ``(id, parent, name, start, end, thread)``."""
        out = []
        with self._buffers_lock:
            buffers = list(self._buffers)
        for buffer in buffers:
            for index in range(len(buffer.ids)):
                out.append((
                    buffer.ids[index],
                    buffer.parents[index],
                    self._names[buffer.names[index]],
                    buffer.starts[index],
                    buffer.ends[index],
                    buffer.tid,
                ))
        return out

    def summary(self, wall_s: float) -> dict[str, Any]:
        """Per-name calls, total and self time, plus top-level coverage.

        A span's self time is its duration minus the durations of its
        direct children.  Coverage is the summed duration of top-level
        spans (no parent) over ``wall_s``.
        """
        spans = self.spans()
        child_time: dict[int, float] = {}
        for _, parent, _, start, end, _ in spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        layers: dict[str, dict[str, float]] = {}
        top_level = 0.0
        for span_id, parent, name, start, end, _ in spans:
            duration = end - start
            row = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(span_id, 0.0)
            if not parent:
                top_level += duration
        return {
            "wall_s": wall_s,
            "coverage": top_level / wall_s if wall_s > 0 else 0.0,
            "spans": len(spans),
            "layers": layers,
            "counters": dict(self.counters),
        }

    def chrome_trace(self, pid: int, process_name: str) -> list[dict[str, Any]]:
        """The spans as Chrome trace-event ``X`` events (microseconds).

        Perfetto and ``about:tracing`` open a JSON object whose
        ``traceEvents`` list holds these; the parent id rides in ``args``.
        """
        events: list[dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": process_name},
        }]
        origin = self.origin
        for span_id, parent, name, start, end, tid in self.spans():
            events.append({
                "name": name,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"id": span_id, "parent": parent},
            })
        return events


def _resolve(path: str) -> tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualname = path.partition(":")
    owner: Any = sys.modules[module_name]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(
    tracer: Tracer,
    path: str,
    name: str,
    on_result: Callable[[Tracer, Any], None] | None = None,
) -> None:
    """Wrap the function at ``path`` so each call records a ``name`` span.

    ``path`` is ``"module:attribute"`` for a module function or
    ``"module:Class.method"`` for a method; staticmethods and
    classmethods keep their descriptor type.  A module function is also
    rebound in every loaded module that imported it by name.
    """
    owner, attribute = _resolve(path)
    if inspect.isclass(owner):
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, classmethod):
            owner_value: Any = classmethod(tracer.wrap(raw.__func__, name, on_result))
        elif isinstance(raw, staticmethod):
            owner_value = staticmethod(tracer.wrap(raw.__func__, name, on_result))
        else:
            owner_value = tracer.wrap(raw, name, on_result)
        setattr(owner, attribute, owner_value)
        return
    original = getattr(owner, attribute)
    traced = tracer.wrap(original, name, on_result)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(module, key, traced)
