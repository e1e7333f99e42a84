"""Structured JSON-lines trace of protocol activity.

One record per send/deliver/lease-transition/contract/event/reschedule-step
(including each intention the reschedule ladder selects); the safety test
suite replays runs from these records. The record kinds and their `detail`
keys are listed in the README.

With a sink (an open text file) attached, the log streams: every
CHUNK_RECORDS records are encoded into the sink and dropped from memory, and
the owner drains the rest with `write()` when the run ends.
"""

import json
from typing import Any, TextIO

CHUNK_RECORDS = 1024

_encode = json.JSONEncoder(sort_keys=True).encode


class TraceLog:
    def __init__(self, enabled: bool = True, sink: TextIO | None = None):
        self.enabled = enabled
        self.sink = sink
        self.records: list[dict] = []

    def emit(self, t: float, agent: str, kind: str, **detail: Any) -> None:
        if self.enabled:
            self.records.append({"t": t, "agent": agent, "kind": kind, "detail": detail})
            if self.sink is not None and len(self.records) >= CHUNK_RECORDS:
                self.write()

    def write(self) -> None:
        """Encode the buffered records into the sink, one line each, and clear
        the buffer."""
        self.sink.writelines(_encode(record) + "\n" for record in self.records)
        self.records.clear()


NULL_TRACE = TraceLog(enabled=False)
