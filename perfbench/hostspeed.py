"""A fixed piece of pure-Python work that gauges how fast the host runs the
interpreter at the moment. It shares no code with the simulator, so a change
to the simulator cannot move it; only the host's speed does.

On a shared host the same round of a workload can take up to 1.8 times as
long from one minute to the next, uniformly over the round. `wall_s` divides
each round's wall time by the probe times measured through that round, which
cancels that drift (see README.md).
"""

import heapq

# The probe's time on the reference host (2-core x86-64, Python 3.11) when it
# runs at full speed; `wall_s` is expressed at this speed.
REFERENCE_S = 0.020


class _Event:
    __slots__ = ("at", "key", "load")

    def __init__(self, at: float, key: int, load: float):
        self.at = at
        self.key = key
        self.load = load


def probe(steps: int = 10_000) -> float:
    """A small event loop like the simulator's: objects, a heap and a dict."""
    heap, table, total = [], {}, 0.0
    x = 12345
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        ev = _Event(x / 2147483648.0, i % 211, float(i & 63))
        heapq.heappush(heap, (ev.at, i, ev))
        table[ev.key] = table.get(ev.key, 0.0) + ev.load
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].load
    return total
