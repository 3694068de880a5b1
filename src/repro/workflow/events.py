"""A tiny deterministic discrete-event queue.

Events are ``(time, payload)`` pairs; ties are broken by insertion order so
simulations are fully deterministic regardless of payload type.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Iterator

__all__ = ["EventQueue"]


class EventQueue:
    """Min-heap of timestamped events with FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Any]] = []
        self._counter = itertools.count()

    def push(self, time: float, payload: Any) -> None:
        if time < 0:
            raise ValueError(f"event time must be >= 0, got {time}")
        heapq.heappush(self._heap, (float(time), next(self._counter), payload))

    def pop(self) -> tuple[float, Any]:
        """Remove and return the earliest ``(time, payload)``."""
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        time, _, payload = heapq.heappop(self._heap)
        return time, payload

    def peek_time(self) -> float:
        if not self._heap:
            raise IndexError("peek on empty EventQueue")
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def drain_until(self, time: float) -> Iterator[tuple[float, Any]]:
        """Yield all events with timestamp <= ``time`` in order."""
        while self._heap and self._heap[0][0] <= time:
            yield self.pop()
