"""Structured JSON-lines trace of protocol activity.

One record per send/deliver/belief-change/intention-switch/lease-transition/
contract event; the safety test suite replays runs from these records.
"""

import json
from typing import Any


class TraceLog:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: list[dict] = []

    def emit(self, t: float, agent: str, kind: str, **detail: Any) -> None:
        if self.enabled:
            self.records.append({"t": t, "agent": agent, "kind": kind, "detail": detail})

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")


NULL_TRACE = TraceLog(enabled=False)
