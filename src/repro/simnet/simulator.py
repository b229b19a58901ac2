"""Discrete-event simulator.

The whole TransEdge deployment — replicas, leaders, clients and the network
between them — runs on a single event loop driven by simulated time.  Time is
a float number of milliseconds.  Events are callbacks scheduled at absolute
times; ties are broken by insertion order so executions are deterministic for
a fixed seed.

The queue is a binary heap of plain ``(time_ms, sequence, handle)`` tuples.
``sequence`` is unique per simulator (a running insertion counter), so two
entries always differ by their first two fields: tuple comparison runs in C
and never reaches the :class:`EventHandle`, which takes no part in ordering.
The handle carries the callback and the cancelled/fired flags.  A cancelled
event keeps its heap entry and is skipped when popped.

A handle holds its callback only until the event fires or is cancelled.
Callers routinely keep the handle of a timer whose callback closes over the
caller (``wait.timer = schedule(..., lambda: finish(wait))``); dropping the
reference at that point breaks the ``owner -> handle -> closure -> owner``
cycle, so finished work is freed by reference counting instead of waiting for
the cyclic garbage collector.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.common.errors import SimulationError


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("_time", "_callback", "_cancelled", "_fired", "_simulator")

    def __init__(
        self, time_ms: float, callback: Callable[[], None], simulator: "Simulator"
    ) -> None:
        self._time = time_ms
        # Cleared when the event fires or is cancelled (see module docstring).
        self._callback: Optional[Callable[[], None]] = callback
        self._cancelled = False
        self._fired = False
        self._simulator = simulator

    @property
    def time(self) -> float:
        return self._time

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        self._callback = None
        self._simulator._pending -= 1


class Simulator:
    """A minimal, deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        self._pending = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live events still scheduled — a counter, not an O(n) heap scan."""
        return self._pending

    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay_ms`` from now."""
        if delay_ms < 0:
            raise SimulationError(f"cannot schedule an event {delay_ms}ms in the past")
        # The hottest call of a run: push directly instead of going through
        # schedule_at, whose past-time check cannot fail here.
        time_ms = self._now + delay_ms
        handle = EventHandle(time_ms, callback, self)
        heapq.heappush(self._queue, (time_ms, next(self._sequence), handle))
        self._pending += 1
        return handle

    def schedule_at(self, time_ms: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run at absolute time ``time_ms``."""
        if time_ms < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ms}ms; simulated time is already {self._now}ms"
            )
        handle = EventHandle(time_ms, callback, self)
        heapq.heappush(self._queue, (time_ms, next(self._sequence), handle))
        self._pending += 1
        return handle

    def run(
        self,
        until_ms: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events until the queue drains, ``until_ms`` or ``max_events``.

        Returns the number of events processed by this call.  When
        ``until_ms`` is given, the clock is advanced to ``until_ms`` even if
        the queue drained earlier, so back-to-back ``run`` calls observe a
        monotonically advancing clock.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        processed = 0
        try:
            while queue:
                time_ms, _, handle = queue[0]
                if until_ms is not None and time_ms > until_ms:
                    break
                if max_events is not None and processed >= max_events:
                    break
                heappop(queue)
                if handle._cancelled:
                    continue
                handle._fired = True
                self._pending -= 1
                self._now = time_ms
                callback = handle._callback
                handle._callback = None
                callback()
                processed += 1
                self._events_processed += 1
        finally:
            self._running = False
        if until_ms is not None and until_ms > self._now:
            self._now = until_ms
        return processed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain (bounded by ``max_events`` as a backstop)."""
        processed = self.run(max_events=max_events)
        if self._queue and processed >= max_events:
            raise SimulationError(
                f"simulation did not become idle within {max_events} events"
            )
        return processed
