"""Spans around the benchmark's calls into the program, for the traced run.

Nothing in the program is instrumented. The benchmark wraps the callables it
hands to its burst loops, hands the NF a thin state backend that forwards to
the real ``StateManager`` inside spans, and, for traced bursts only, swaps
``statemgmt.seal_state``/``open_state`` for wrapped copies at module level.
"""

from __future__ import annotations

import time
from collections import defaultdict
from types import SimpleNamespace


class Tracer:
    """Span recorder: (id, name, start_ns, end_ns, parent id, burst id).

    Self time per span name (duration minus the time its child spans cover)
    is summed for every traced burst. Whole span records are kept only for
    the first ``KEEP_BURSTS`` traced bursts, so memory stays bounded.
    """

    KEEP_BURSTS = 3

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.burst = -1
        self.recording = False
        self._kept = 0
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._ids = 0

    def begin_burst(self, burst: int) -> None:
        self.burst = burst
        self.recording = self._kept < self.KEEP_BURSTS
        self._kept += self.recording

    def wrap(self, name: str, fn):
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            self._ids += 1
            frame = [self._ids, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_ns[name] += dur - frame[1]
                calls[name] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                if self.recording:
                    spans.append((frame[0], name, start, end, parent[0] if parent else 0, self.burst))

        return traced


def bind(tracer: Tracer | None, **named) -> SimpleNamespace:
    """Namespace of callables; each wrapped in a span when a tracer is given.

    ``named`` maps an attribute to ``(span name, callable)``.
    """
    if tracer is None:
        return SimpleNamespace(**{k: fn for k, (_, fn) in named.items()})
    return SimpleNamespace(**{k: tracer.wrap(span, fn) for k, (span, fn) in named.items()})


class TracedState:
    """State backend for the NF in traced bursts: the real manager inside spans."""

    def __init__(self, manager, tracer: Tracer):
        self.track = tracer.wrap("statemgmt.track", manager.track)
        self.terminate = tracer.wrap("statemgmt.terminate", manager.terminate)
        self.expire = tracer.wrap("statemgmt.expire", manager.expire)


class SealSpans:
    """Swaps ``seal_state``/``open_state`` in a module for wrapped copies and back."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._plain = (module.seal_state, module.open_state)
        self._traced = (
            tracer.wrap("statemgmt.seal", module.seal_state),
            tracer.wrap("statemgmt.open", module.open_state),
        )

    def install(self) -> None:
        self._module.seal_state, self._module.open_state = self._traced

    def remove(self) -> None:
        self._module.seal_state, self._module.open_state = self._plain
