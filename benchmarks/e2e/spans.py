"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: :meth:`Tracer.wrap`
shadows a bound method of one *instance* (the driver, its grid, its
equations, an observer) with a wrapper that appends ``[name, start,
end, parent, step]`` to a list.  Nothing in ``src/`` is edited or
monkeypatched at class level, so an untraced driver in the same process
runs the program's own code.  Spans stay in memory until the child
writes them out at exit.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

#: Name of the span that opens a new step id.
STEP = "step"


class Tracer:
    """Nested wall-clock spans; one instance per process (per rank)."""

    def __init__(self):
        #: ``[name, start, end, parent_index, step_id]`` per span; times
        #: are ``time.perf_counter()`` seconds, parent ``-1`` = root
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._step = -1
        self._wrapped: list[tuple[object, str]] = []

    def wrap(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper."""
        fn = getattr(obj, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        opens_step = name == STEP

        def traced(*args, **kwargs):
            if opens_step:
                self._step += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._step]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        # object.__setattr__: WallBC is a frozen dataclass
        object.__setattr__(obj, attr, traced)
        self._wrapped.append((obj, attr))

    def unwrap_all(self) -> None:
        """Drop every shadowing attribute; the class methods show again."""
        for obj, attr in self._wrapped:
            object.__delattr__(obj, attr)
        self._wrapped.clear()


class SpanTable:
    """Durations, self times and per-name views over recorded spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        self.self_time = list(self.dur)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.self_time[s[3]] -= self.dur[i]
        self._by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            self._by_name[s[0]].append(i)

    @classmethod
    def merged(cls, span_lists: list[list[list]]) -> SpanTable:
        """One table over several ranks' spans (parent indices re-based)."""
        merged: list[list] = []
        for spans in span_lists:
            base = len(merged)
            merged.extend(
                [s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4]] for s in spans
            )
        return cls(merged)

    def durations(self, name: str) -> list[float]:
        return [self.dur[i] for i in self._by_name.get(name, ())]

    def self_times(self, name: str) -> list[float]:
        return [self.self_time[i] for i in self._by_name.get(name, ())]

    def total(self, *names: str) -> float:
        return sum(sum(self.durations(n)) for n in names)

    def total_self(self) -> float:
        """Sum of every span's self time = wall time covered by spans."""
        return sum(self.self_time)

    def median_ms(self, name: str, *, self_time: bool = False) -> float:
        """Median duration (or self time) of ``name`` in ms; 0 if absent."""
        vals = self.self_times(name) if self_time else self.durations(name)
        return 1e3 * statistics.median(vals) if vals else 0.0

    def per_parent_sum_ms(self, name: str) -> float:
        """Median over parents of the summed duration of their ``name``
        children — e.g. the four overset calls of one enforce."""
        sums: dict[int, float] = defaultdict(float)
        for i in self._by_name.get(name, ()):
            sums[self.spans[i][3]] += self.dur[i]
        return 1e3 * statistics.median(sums.values()) if sums else 0.0

    def share(self, *names: str) -> float:
        """Share of the summed step time spent in ``names`` spans."""
        steps = self.total(STEP)
        return self.total(*names) / steps if steps else 0.0
