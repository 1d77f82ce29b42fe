"""Per-stage wall-clock attribution for the annotation cascade.

``stage("profile")`` context-manages a named stage; totals are *exclusive*:
time spent inside a nested stage is subtracted from the enclosing one, so
``classify`` does not double-count the ``featurize`` work it triggers, and
re-entrant same-stage nesting (``match`` calling ``match``) sums to the true
elapsed time exactly once.

The accumulator is process-global and thread-safe (per-thread stage stacks,
locked totals), so executor threads attribute correctly.  Multiprocess
workers accumulate in their own process; the parent's snapshot covers the
parent-side stages only.

``SigmaTyper.summary()["timings"]`` surfaces :func:`stage_timings`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["StageTimer", "stage", "stage_timings", "reset_stage_timings"]


class StageTimer:
    """Accumulates exclusive seconds and call counts per named stage."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals: dict[str, list[float]] = {}  # name -> [seconds, calls]
        self._local = threading.local()

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # frame = [start, child_seconds]
        frame = [time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - frame[0]
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            exclusive = elapsed - frame[1]
            with self._lock:
                bucket = self._totals.setdefault(name, [0.0, 0])
                bucket[0] += exclusive
                bucket[1] += 1

    def snapshot(self) -> dict[str, dict[str, float | int]]:
        with self._lock:
            return {
                name: {"seconds": bucket[0], "calls": int(bucket[1])}
                for name, bucket in sorted(self._totals.items())
            }

    def reset(self) -> None:
        with self._lock:
            self._totals.clear()


_GLOBAL_TIMER = StageTimer()


def stage(name: str):
    """Context manager: attribute the enclosed wall-clock to ``name``."""

    return _GLOBAL_TIMER.stage(name)


def stage_timings() -> dict[str, dict[str, float | int]]:
    """Snapshot of per-stage exclusive seconds and call counts."""

    return _GLOBAL_TIMER.snapshot()


def reset_stage_timings() -> None:
    _GLOBAL_TIMER.reset()
