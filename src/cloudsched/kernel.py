"""Deterministic discrete-event kernel: virtual clock, timed entry queue, seeded RNG streams.

Everything else in the simulator runs on top of this event loop. Entries are
totally ordered by (fire_at, seq) where seq is assigned in insertion order, so
two runs that schedule the same entries produce the same execution order.
"""

import hashlib
import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable


class SchedulingInPastError(Exception):
    """Raised when an entry is scheduled before the current clock (a logic bug)."""


class TimerLane(deque):
    """Actions of one kind, each set `delay` ahead of the clock, held as
    (fire_at, seq, key, value) items in the order they were set, which is
    fire order. An item is live while `live[key]` is the item: its owner
    cancels it by removing the key, with no kernel work. Only the first item
    has a heap entry, (fire_at, seq, lane), whose seq is never pending; when
    it surfaces, the kernel fires the lane's live items that come before the
    heap's top entry and arms the lane at the next live one."""

    __slots__ = ("live", "expire", "delay")

    def __init__(self, live: dict, expire: Callable[[Any, Any], Any], delay: float):
        super().__init__()
        self.live = live
        self.expire = expire
        self.delay = delay

    def __reduce__(self):       # copies keep the live map, expiry and delay
        return TimerLane, (self.live, self.expire, self.delay), None, iter(self)


class Kernel:
    """Single-threaded event loop owning the virtual clock.

    Agents are logically concurrent but physically serialized: one entry's
    action runs to completion before the next is dequeued. The heap holds
    plain (fire_at, seq, action) tuples; an entry is pending while its seq is
    in `_pending`, so cancelling only forgets the seq and the loop skips the
    stale tuple when it surfaces.

    Timer lanes (`lane`, `timer`) keep the same (fire_at, seq) order for
    actions set a fixed delay ahead: each reserves its seq when set, and a
    lane holds one heap entry at a time however many live items it holds.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = 0
        self._pending: set[int] = set()
        self._lives: list[dict] = []

    def __len__(self) -> int:
        """Actions still to run: pending entries and live lane items."""
        return len(self._pending) + sum(map(len, self._lives))

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

    def lane(self, live: dict, expire: Callable[[Any, Any], Any],
             delay: float) -> TimerLane:
        """A new timer lane whose live timers are the entries of `live`, each
        set `delay` ahead; a timer that fires leaves `live` and then runs
        `expire(key, value)`."""
        if not 0.0 <= delay < float("inf"):      # a NaN delay raises too
            raise ValueError(f"timer delay {delay} is not finite and >= 0")
        self._lives.append(live)
        return TimerLane(live, expire, delay)

    def timer(self, lane: TimerLane, key: Any, value: Any) -> None:
        """Arm a timer for `value` at now + the lane's delay, in the place
        `schedule` would give it, and make it `live[key]`."""
        fire_at = self.now + lane.delay
        seq = self._seq
        self._seq = seq + 1
        item = lane.live[key] = (fire_at, seq, key, value)
        if not lane:
            heapq.heappush(self._heap, (fire_at, seq, lane))
        lane.append(item)

    def _surface(self, lane: TimerLane, limit: float) -> bool:
        """The lane's first item came due: fire its live items in order while
        each comes before the heap's top entry, then arm the lane at its
        first live item. A live item past `limit` stays armed instead and
        cuts the run (True). Dead items are dropped without moving the clock.
        An action that refills the lane it emptied arms it through `timer`."""
        heap, live = self._heap, lane.live
        while lane:
            fire_at, seq, key, value = item = lane[0]
            if live.get(key) is not item:
                lane.popleft()
            elif heap and heap[0] < item:      # seqs are unique: no tie
                heapq.heappush(heap, (fire_at, seq, lane))
                return False
            elif fire_at > limit:
                heapq.heappush(heap, (fire_at, seq, lane))
                self.now = limit
                return True
            else:
                lane.popleft()
                emptied = not lane
                del live[key]
                self.now = fire_at
                lane.expire(key, value)
                if emptied:
                    return False
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
                if action.__class__ is TimerLane and self._surface(action, limit):
                    return limit
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
