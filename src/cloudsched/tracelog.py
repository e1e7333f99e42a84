"""Structured JSON-lines trace of protocol activity.

One record per send/deliver/lease-transition/contract/event/reschedule-step
(including each intention the reschedule ladder selects); the safety test
suite replays runs from these records. The record kinds and their `detail`
keys are listed in the README.

With a sink (an open text file) attached, the log streams: every
CHUNK_RECORDS records are encoded into the sink and dropped from memory, and
the owner drains the rest with `write()` when the run ends.

Each line is byte-identical to `json.dumps(record, sort_keys=True)`. The
outer keys of a record are fixed and already in sorted order, so a line is a
fixed template; only `detail` and `t` go through the sorted-key encoder,
which is built once here rather than once per record.
"""

from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, TextIO

CHUNK_RECORDS = 1024


def _not_serializable(o: Any) -> Any:
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    f"is not JSON serializable")


# json.dumps(sort_keys=True)'s C encoder: ", " and ": " separators, ASCII
# escaping, NaN and infinities allowed. No circular-reference markers: a
# record's detail holds plain values only.
_encode = c_make_encoder(None, _not_serializable, encode_basestring_ascii,
                         None, ": ", ", ", True, False, True)


_join = "".join


def _line(record: dict) -> str:
    return (f'{{"agent": {encode_basestring_ascii(record["agent"])}, '
            f'"detail": {_join(_encode(record["detail"], 0))}, '
            f'"kind": {encode_basestring_ascii(record["kind"])}, '
            f'"t": {_join(_encode(record["t"], 0))}}}\n')


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
        self.sink.writelines(map(_line, self.records))
        self.records.clear()


NULL_TRACE = TraceLog(enabled=False)
