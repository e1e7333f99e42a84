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
    """Timers of one kind, held as (fire_at, seq, key, value) items in the
    order they were set, which is fire order when each is set a fixed delay
    ahead. A timer is live while `live[key] is value`: its owner cancels it by
    removing the key, with no kernel work. Only the first item has a heap
    entry, (fire_at, seq, lane), whose seq is never pending; when it
    surfaces, the kernel fires that timer if it is live and arms the next
    live one."""

    __slots__ = ("live", "expire")

    def __init__(self, live: dict, expire: Callable[[Any, Any], Any]):
        super().__init__()
        self.live = live
        self.expire = expire

    def __reduce__(self):       # copies keep the live map and the expiry
        return TimerLane, (self.live, self.expire), None, iter(self)


class Kernel:
    """Single-threaded event loop owning the virtual clock.

    Agents are logically concurrent but physically serialized: one entry's
    action runs to completion before the next is dequeued. The heap holds
    plain (fire_at, seq, action) tuples; an entry is pending while its seq is
    in `_pending`, so cancelling only forgets the seq and the loop skips the
    stale tuple when it surfaces.

    Two cheaper forms keep the same (fire_at, seq) order:
    - the open batch: one pending entry at `batch_at` that runs the items of
      `batch` in order. An item may join it only while no other entry or
      timer has been set for that instant since it opened, and its action
      closes it as it starts to fire, so each item runs where an entry of its
      own would have. `batched` counts the items beyond each batch's first.
    - timer lanes (`lane`, `timer`): a timer reserves its seq when set and
      costs a heap entry only once it is the first live one of its lane.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = 0
        self._pending: set[int] = set()
        self.batch_at = -1.0        # no instant: the clock never goes negative
        self.batch: list = []
        self.batched = 0
        self._lives: list[dict] = []

    def __len__(self) -> int:
        """Actions still to run: pending entries, the later items of their
        batches, and live timers."""
        return len(self._pending) + self.batched + sum(map(len, self._lives))

    def schedule(self, fire_at: float, action: Callable[[], Any], kind: str = "timer") -> int:
        """Enqueue an action at a future (or current) virtual time; returns the
        entry id. `kind` labels the entry for tracers that wrap this method."""
        if not fire_at >= self.now:      # a NaN time raises too
            raise SchedulingInPastError(
                f"schedule at t={fire_at} before now={self.now}")
        if fire_at == self.batch_at:
            self.batch_at = -1.0
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

    def lane(self, live: dict, expire: Callable[[Any, Any], Any]) -> TimerLane:
        """A new timer lane whose live timers are the entries of `live`; a
        timer that fires leaves `live` and then runs `expire(key, value)`."""
        self._lives.append(live)
        return TimerLane(live, expire)

    def timer(self, lane: TimerLane, fire_at: float, key: Any, value: Any) -> None:
        """Set `live[key] = value` and arm its timer at fire_at, in the place
        `schedule` would give it. One set earlier than the lane's last gets a
        lane of its own."""
        if not fire_at >= self.now:
            raise SchedulingInPastError(
                f"timer at t={fire_at} before now={self.now}")
        if fire_at == self.batch_at:
            self.batch_at = -1.0
        seq = self._seq
        self._seq = seq + 1
        lane.live[key] = value
        item = (fire_at, seq, key, value)
        if lane:
            if fire_at >= lane[-1][0]:
                lane.append(item)
                return
            lane = TimerLane(lane.live, lane.expire)
        lane.append(item)
        heapq.heappush(self._heap, (fire_at, seq, lane))

    def _surface(self, lane: TimerLane, limit: float) -> bool:
        """The lane's first timer came due: fire it if live, after arming the
        next live one. A live timer past `limit` stays armed instead and cuts
        the run (True). Dead timers are dropped without moving the clock."""
        fire_at, seq, key, value = item = lane.popleft()
        live = lane.live
        fire = live.get(key) is value
        if fire and fire_at > limit:
            lane.appendleft(item)
            heapq.heappush(self._heap, (fire_at, seq, lane))
            self.now = limit
            return True
        while lane:
            head = lane[0]
            if live.get(head[2]) is head[3]:
                heapq.heappush(self._heap, (head[0], head[1], lane))
                break
            lane.popleft()
        if fire:
            del live[key]
            self.now = fire_at
            lane.expire(key, value)
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
