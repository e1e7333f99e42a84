"""Deterministic discrete-event kernel: virtual clock, timed entry queue, seeded RNG streams.

Everything else in the simulator runs on top of this event loop. Entries are
totally ordered by (fire_at, seq) where seq is assigned in insertion order, so
two runs that schedule the same entries produce the same execution order.
"""

import hashlib
import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Callable


class SchedulingInPastError(Exception):
    """Raised when an entry is scheduled before the current clock (a logic bug)."""


class Kernel:
    """Single-threaded event loop owning the virtual clock.

    Agents are logically concurrent but physically serialized: one entry's
    action runs to completion before the next is dequeued. The heap holds
    plain (fire_at, seq, action) tuples; an entry is pending while its seq is
    in `_pending`, so cancelling only forgets the seq and the loop skips the
    stale tuple when it surfaces.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[[], Any]]] = []
        self._seq = 0
        self._pending: set[int] = set()

    def __len__(self) -> int:
        return len(self._pending)

    def schedule(self, fire_at: float, action: Callable[[], Any], kind: str = "timer") -> int:
        """Enqueue an action at a future (or current) virtual time; returns the
        entry id. `kind` labels the entry for tracers that wrap this method."""
        if not fire_at >= self.now:      # a NaN time raises too
            raise SchedulingInPastError(
                f"schedule at t={fire_at} before now={self.now}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (fire_at, seq, action))
        self._pending.add(seq)
        return seq

    def cancel(self, entry_id: int) -> bool:
        """True iff the entry existed and had not fired; cancelled entries never fire."""
        if entry_id in self._pending:
            self._pending.remove(entry_id)
            return True
        return False

    def run_until_quiescent(self, limit: float = float("inf")) -> float:
        """Process entries in (fire_at, seq) order until the queue drains or the clock
        would pass `limit`. Hitting the limit is a normal outcome: the clock is left
        at `limit` and remaining entries stay queued."""
        heap, pending = self._heap, self._pending
        pop = heapq.heappop
        while heap:
            fire_at, seq, action = heap[0]
            if seq not in pending:
                pop(heap)
                continue
            if fire_at > limit:
                self.now = limit
                return limit
            pop(heap)
            pending.remove(seq)
            self.now = fire_at
            action()
        return self.now


class RngStream(random.Random):
    """Seeded random stream isolated by label.

    Identical (seed, stream_id) pairs always yield identical draw sequences,
    and distinct labels give independent streams so e.g. changing the event
    probability never perturbs the generated workload.
    """

    def __new__(cls, seed: int, stream_id: str):
        return super().__new__(cls)

    def __init__(self, seed: int, stream_id: str):
        self.base_seed = seed
        self.stream_id = stream_id
        digest = hashlib.sha256(f"{seed}:{stream_id}".encode()).digest()
        super().__init__(int.from_bytes(digest[:8], "big"))


@dataclass
class RngStreams:
    """The two standard streams: scenario generation and event injection."""

    seed: int
    scenario: RngStream = field(init=False)
    events: RngStream = field(init=False)

    def __post_init__(self):
        self.scenario = RngStream(self.seed, "scenario")
        self.events = RngStream(self.seed, "events")
