"""The simulator event loop.

Time is a ``float`` measured in **milliseconds**.  All randomness used by a
simulation flows from the single seeded :class:`random.Random` owned by the
:class:`Simulator`, which makes every run reproducible bit-for-bit.

Hot-path notes
--------------
The heap holds plain tuples, so ``heapq`` compares keys entirely in C (no
Python ``__lt__`` per sift step); the unique ``seq`` guarantees
deterministic ordering no matter how the heap arranges equal-time entries
internally.  Two entry shapes share the heap:

* ``(time, seq, handle)`` — cancellable events from :meth:`schedule`.
* ``(time, seq, fn, args)`` — fire-and-forget events from :meth:`post`,
  which skip the :class:`EventHandle` allocation entirely (message
  deliveries and CPU dispatches dominate the queue and are never
  cancelled).

Cancellation stays lazy, but the simulator tracks live/cancelled counts so
``pending_events`` is O(1) and the heap is compacted once cancelled entries
outnumber live ones.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import EventHandle

#: Compaction threshold: never rebuild tiny heaps.
_COMPACT_MIN = 64

_INFINITY = float("inf")


class Simulator:
    """Deterministic discrete-event loop.

    Example
    -------
    >>> sim = Simulator(seed=7)
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.seed = seed
        # lint: allow[D103] -- the Simulator owns the root RNG; ``seed`` is
        # the namespace root every tagged f"tag:{seed}:..." stream derives from
        self.rng = random.Random(seed)
        self._queue: List[Tuple] = []
        self._seq = 0
        self._cancelled = 0
        self._events_processed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` milliseconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        self._seq += 1
        handle = EventHandle(self, time, self._seq, fn, args)
        heapq.heappush(self._queue, (time, self._seq, handle))
        return handle

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no cancellation.

        The cheap path for the simulator's bulk traffic (message
        deliveries, CPU dispatch ticks); semantically identical to
        ``schedule`` except that the event cannot be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, fn, args))

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`; see :meth:`post`."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, fn, args))

    # ------------------------------------------------------------------
    # Lazy-cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel`; keeps counters O(1)."""
        self._cancelled += 1
        if self._cancelled > _COMPACT_MIN and self._cancelled * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        ``seq`` keys are unique, so the pop order of the rebuilt heap is
        identical to the lazy-deletion order — determinism is unaffected.
        """
        self._queue = [
            entry
            for entry in self._queue
            if len(entry) == 4 or not entry[2].cancelled
        ]
        heapq.heapify(self._queue)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this bound; the clock is
            then advanced to exactly ``until``.
        max_events:
            Safety valve for tests; raise if more events than this fire.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        pop = heapq.heappop
        bound = _INFINITY if until is None else until
        budget = _INFINITY if max_events is None else max_events
        processed = 0
        try:
            queue = self._queue
            while queue:
                entry = queue[0]
                time = entry[0]
                if len(entry) == 4:
                    if time > bound:
                        break
                    pop(queue)
                    self.now = time
                    entry[2](*entry[3])
                else:
                    event = entry[2]
                    if event.cancelled:
                        pop(queue)
                        self._cancelled -= 1
                        # Cancellation may have compacted the heap; re-bind.
                        queue = self._queue
                        continue
                    if time > bound:
                        break
                    pop(queue)
                    event.fired = True
                    self.now = time
                    event.fn(*event.args)
                queue = self._queue
                processed += 1
                if processed > budget:
                    raise SimulationError(f"exceeded max_events={max_events}")
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._events_processed += processed
            self._running = False

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return len(self._queue) - self._cancelled

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.3f} pending={self.pending_events}>"
