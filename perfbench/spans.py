"""In-memory span tracer that wraps the program's functions from outside.

A span records its name, start, end, parent span and the benchmark
operation it belongs to. Wrappers are installed at the module attributes
the program's callers look up (for example `imputer.compute_cntk`, which
`estimate_channel_cntk` resolves at call time), so no source file changes.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into the span list, -1 for a root
    op: int  # benchmark operation id
    error: str | None = None


#: (module, attribute, span name, hook or None); the hook sees (tracer, args, kwargs).
Target = tuple[object, str, str, Callable | None]


class Tracer:
    """Collects spans and per-call counters for one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.sets: dict[str, set] = defaultdict(set)
        self.state: dict[str, object] = {}
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.op))
        self._stack.append(idx)
        return idx

    def end(self, idx: int, error: str | None = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter_ns()
        span.error = error
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        except BaseException as exc:
            self.end(idx, type(exc).__name__)
            raise
        self.end(idx)

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def recording(self, targets: Iterable[Target], op: int):
        """Install wrappers at every target for the duration of operation `op`.

        A function reachable under several names gets one wrapper, so a call
        through any of them records a single span. Originals are restored on
        exit.
        """
        saved = []
        wrappers: dict[int, Callable] = {}
        try:
            for module, attr, name, hook in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(name, original, hook)
                setattr(module, attr, wrappers[id(original)])
            self.op = op
            yield self
        finally:
            self.op = -1
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write every span as [name, start_ns, end_ns, parent, op, error]."""
        rows = [[s.name, s.start, s.end, s.parent, s.op, s.error] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "error"],
                       "spans": rows}, fh)


def self_times(spans: Sequence[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


@dataclass
class SpanTotals:
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: dict[str, int] = field(default_factory=dict)


def totals(spans: Sequence[Span]) -> dict[str, SpanTotals]:
    """Per span name: call count, summed duration, summed self time, error counts."""
    out: dict[str, SpanTotals] = defaultdict(SpanTotals)
    for s, own in zip(spans, self_times(spans)):
        t = out[s.name]
        t.count += 1
        t.total_ns += s.end - s.start
        t.self_ns += own
        if s.error is not None:
            t.errors[s.error] = t.errors.get(s.error, 0) + 1
    return out
