"""In-memory span tracing for the benchmark's traced pass.

Spans are recorded from *outside* the product: :meth:`Tracer.wrap`
replaces a public function or method with a recording wrapper for the
duration of the traced window and :meth:`Tracer.unwrap_all` restores
it.  Nothing is written until the run ends (:meth:`Tracer.write`), so
the per-span cost is two clock reads and one list append.

A span is ``{name, op_id, parent, start, end}``; spans of one operation
share its ``op_id``, ``parent`` is the index of the enclosing span (or
``None`` for an operation's root).  A layer's *self time* is its span's
duration minus its direct children's -- what the layer spent itself,
not what it waited on below.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

_ABSENT = object()


class _OpenSpan:
    """Context manager closing one span."""

    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.end(self.index)


class _NoTrace:
    """Stands in for a tracer in untraced windows: ``span`` costs one
    call and records nothing, so the loops need no second code path."""

    def span(self, name: str, op_id: Optional[int] = None) -> "_NoTrace":
        return self

    def __enter__(self) -> "_NoTrace":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NO_TRACE = _NoTrace()


class Tracer:
    """Collects spans; one per traced pass."""

    def __init__(self) -> None:
        #: ``[name, op_id, parent, start, end]`` per span, in start order.
        self.records: list[list] = []
        self._append_lock = threading.Lock()  # index == position, always
        self._local = threading.local()
        self._wrapped: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, op_id: Optional[int] = None) -> int:
        """Open a span under the calling thread's innermost open span.
        A root span names its operation with ``op_id``; children inherit
        it.  Returns the index to pass to :meth:`end`."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        records = self.records
        parent = stack[-1] if stack else None
        if op_id is None and parent is not None:
            op_id = records[parent][1]
        record = [name, op_id, parent, 0.0, None]
        with self._append_lock:
            index = len(records)
            records.append(record)
        stack.append(index)
        record[3] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.records[index][4] = time.perf_counter()
        stack = self._local.stack
        while stack and stack.pop() != index:
            pass  # an exception skipped inner ends: close up to this span

    def span(self, name: str, op_id: Optional[int] = None) -> _OpenSpan:
        return _OpenSpan(self, self.begin(name, op_id))

    # -- wrapping public callables ----------------------------------------

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attribute`` (a module's function, a class's method or an
        instance's bound method) until :meth:`unwrap_all`.  Raises
        ``AttributeError`` when the target was renamed away -- the
        caller nulls that layer's metrics."""
        if attribute.startswith("_"):
            raise AttributeError(f"refusing to wrap private name {attribute!r}")
        target = getattr(owner, attribute)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return target(*args, **kwargs)
            finally:
                end(index)

        # Remember what the owner itself held (nothing, for a method an
        # instance inherits from its class) so unwrapping restores exactly that.
        self._wrapped.append((owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, traced)

    def unwrap_all(self) -> None:
        while self._wrapped:
            owner, attribute, held = self._wrapped.pop()
            if held is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, held)

    # -- analysis ----------------------------------------------------------

    def durations(self) -> dict[str, list[float]]:
        """Seconds per closed span, grouped by name."""
        grouped: dict[str, list[float]] = defaultdict(list)
        for name, _op, _parent, start, end in self.records:
            if end is not None:
                grouped[name].append(end - start)
        return grouped

    def self_times(self) -> dict[str, list[float]]:
        """Seconds per closed span minus its direct children, by name."""
        children = [0.0] * len(self.records)
        for _name, _op, parent, start, end in self.records:
            if parent is not None and end is not None:
                children[parent] += end - start
        grouped: dict[str, list[float]] = defaultdict(list)
        for index, (name, _op, _parent, start, end) in enumerate(self.records):
            if end is not None:
                grouped[name].append(end - start - children[index])
        return grouped

    def by_operation(self) -> dict[int, list[tuple[str, float, Optional[int]]]]:
        """``op_id -> [(name, seconds, parent), ...]`` over closed spans."""
        grouped: dict[int, list] = defaultdict(list)
        for name, op_id, parent, start, end in self.records:
            if end is not None and op_id is not None:
                grouped[op_id].append((name, end - start, parent))
        return grouped

    def write(self, path: str, meta: dict) -> None:
        """Dump every span, plus per-name call counts and summed self
        times, as one JSON document."""
        own = self.self_times()
        document = {
            "meta": meta,
            "counts": {name: len(values) for name, values in own.items()},
            "self_seconds": {name: sum(values) for name, values in own.items()},
            "spans": [
                {"name": name, "op_id": op_id, "parent": parent,
                 "start": start, "end": end}
                for name, op_id, parent, start, end in self.records
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def timed(tracer, name: str, call: Callable, *args, **kwargs):
    """``(result, seconds)`` of one call under a span named ``name``
    (set-up steps use this in both passes)."""
    started = time.perf_counter()
    with tracer.span(name):
        result = call(*args, **kwargs)
    return result, time.perf_counter() - started
