"""Timing helpers: the CPU-speed calibration every timed call is scaled
by, and the spans and counters recorded around the benchmark's own calls
into the library (kept in memory, summarised at the end)."""

from __future__ import annotations

import time
from contextlib import contextmanager

# On the shared 2-vCPU Linux VM (Python 3.11) the bounds were set on, the
# CPU switches, for seconds to tens of seconds at a time, between a fast
# state and one 30-60% slower.  Medians of raw times moved 20-30% between
# runs, so each call is scaled by the speed of a fixed reference timed just
# before and just after it: a pure-Python loop in this process for library
# calls, and a child interpreter that imports what the CLI imports and runs
# the same loop for CLI invocations (an in-process loop tracked those about
# half as well).  With the scaling, ten seeds spread 2-7% (quartile distance
# over median) on every timed end-to-end metric.
CALIBRATION_LOOPS = 6_000
CALIBRATION = f"""
table = {{}}
acc = 0
for i in range({CALIBRATION_LOOPS}):
    acc += i * i % 7 + i * 3 % 5 + i % 11
    key = frozenset((i % 13, i % 7))
    table[key] = table.get(key, 0) + acc % 11
"""
REFERENCE_CHILD = "import argparse, dataclasses, itertools, json, pathlib" + CALIBRATION
REFERENCE_S = 0.004  # the loop's time in the fast state of that VM
REFERENCE_CHILD_S = 0.06  # the reference child's wall time there
_LOOP = compile(CALIBRATION, "calibration", "exec")


def calibrate() -> float:
    """Seconds the calibration loop takes now in this process."""
    start = time.perf_counter()
    exec(_LOOP, {})
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float, reference: float = REFERENCE_S) -> float:
    """A time measured between two calibrations, at the reference speed."""
    return seconds * reference * 2 / (before + after)


class Tracer:
    """Spans aggregated per name as they close.  Each open span knows its
    parent (the one below it on the stack), which is charged the child's
    duration, so self time is a span's duration minus its children's.
    Nothing is kept per span: tens of thousands of stored records slowed
    the traced calls through garbage collection."""

    def __init__(self):
        self.counters: dict[str, float] = {}
        self._totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self._open: list[list] = []  # [start, children's seconds] per open span

    @contextmanager
    def span(self, name: str, also: str | None = None):
        """Record the enclosed call; ``also`` names a counter that gets its
        duration added."""
        frame = [time.perf_counter(), 0.0]
        self._open.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[0]
            self._open.pop()
            agg = self._totals.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[1]
            if self._open:
                self._open[-1][1] += duration
            if also:
                self.count(also, duration)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        return {name: {"calls": c, "s": s, "self_s": own} for name, (c, s, own) in self._totals.items()}


class NullTracer:
    """Tracing off: the same calls, no records."""

    @contextmanager
    def span(self, name: str, also: str | None = None):
        yield

    def count(self, name: str, n: float = 1) -> None:
        pass
