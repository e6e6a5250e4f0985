"""Spans for the traced run, recorded from the benchmark's side.

The traced run replaces public methods on the program's *instances*
(never classes, never ``src/``) with wrappers that record one span per
call: name, start, end, parent span and tick id.  Spans stay in memory
and are written out when the run ends.  A span's self time is its
duration minus the durations of its child spans (calls nest, so
children never overlap).

One tick is in flight at a time; when the served gateway hands a tick
to its executor thread the event loop only waits, so a single span
stack stays well nested across that hop.
"""

from __future__ import annotations

import gc
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional


class Spans:
    """In-memory span recorder with instance-attribute wrappers.

    Spans are stored column-wise in ``array`` buffers, which hold no
    references, so the recorder adds almost nothing to the heap the
    garbage collector walks during a traced run.
    """

    def __init__(self):
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ticks = array("q")
        self.values = array("d")
        self._stack: List[int] = []
        #: Tick id stamped on every span begun from now on (0 = setup).
        self.tick = 0

    def begin(self, name: str) -> int:
        index = len(self.names)
        stack = self._stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ticks.append(self.tick)
        self.values.append(0.0)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, obj, attr: str, name: str,
             result: Optional[Callable] = None) -> None:
        """Record a span around every call of ``obj.attr``; ``result(out)``
        sees each return value after the span ends."""
        fn = getattr(obj, attr)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(index)
            if result is not None:
                result(out)
            return out

        setattr(obj, attr, traced)

    def wrap_size(self, obj, attr: str, size: Callable) -> None:
        """Add ``size(args, out)`` to the value of the innermost open span
        on every call of ``obj.attr``.

        Meant for sizes the wrapped call already holds (the bytes a pipe
        carries), so measuring them adds no work inside any span.
        """
        fn = getattr(obj, attr)
        stack, values = self._stack, self.values

        def sized(*args, **kwargs):
            out = fn(*args, **kwargs)
            if stack:
                values[stack[-1]] += size(args, out)
            return out

        setattr(obj, attr, sized)

    def wrap_async(self, obj, attr: str, name: str,
                   result: Optional[Callable] = None) -> None:
        """:meth:`wrap` for a coroutine method."""
        fn = getattr(obj, attr)
        begin, end = self.begin, self.end

        async def traced(*args, **kwargs):
            index = begin(name)
            try:
                out = await fn(*args, **kwargs)
            finally:
                end(index)
            if result is not None:
                result(out)
            return out

        setattr(obj, attr, traced)

    def dump(self, path) -> None:
        """Write every span as one JSON array per line: name, start and
        end (us), parent index, tick id, value."""
        with open(path, "w") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents,
                           self.ticks, self.values):
                name, start, end, parent, tick, value = row
                fh.write(json.dumps(
                    [name, round(start * 1e6, 1), round(end * 1e6, 1),
                     parent, tick, value]
                ) + "\n")


class GcPauses:
    """Garbage-collector pause time per tick id, via ``gc.callbacks``."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self.by_tick: Dict[int, float] = defaultdict(float)
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.by_tick[self.spans.tick] += time.perf_counter() - self._start

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


class TickTotals:
    """Per-(tick, span name) totals of duration, self time, calls, value,
    plus per-name duration and calls over every tick."""

    def __init__(self, spans: Spans):
        names, starts, ends = spans.names, spans.starts, spans.ends
        parents, ticks, values = spans.parents, spans.ticks, spans.values
        durations = [end - start for start, end in zip(starts, ends)]
        child = [0.0] * len(names)
        for parent, duration in zip(parents, durations):
            if parent >= 0:
                child[parent] += duration
        self.dur: Dict = defaultdict(float)
        self.self_time: Dict = defaultdict(float)
        self.calls: Dict = defaultdict(int)
        self.value: Dict = defaultdict(float)
        self.ends: Dict = defaultdict(list)
        self.name_dur: Dict = defaultdict(float)
        self.name_calls: Dict = defaultdict(int)
        for i, name in enumerate(names):
            key = (ticks[i], name)
            self.dur[key] += durations[i]
            self.self_time[key] += durations[i] - child[i]
            self.calls[key] += 1
            self.value[key] += values[i]
            self.ends[key].append(ends[i])
            self.name_dur[name] += durations[i]
            self.name_calls[name] += 1

    def mean(self, table: Dict, ticks: Iterable[int], *names: str) -> float:
        """Mean over ``ticks`` of the per-tick sum of ``table`` over
        ``names``."""
        ticks = list(ticks)
        return self.total(table, ticks, *names) / len(ticks) if ticks else 0.0

    def total(self, table: Dict, ticks: Iterable[int], *names: str) -> float:
        return sum(table.get((t, n), 0.0) for t in ticks for n in names)
