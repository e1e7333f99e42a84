"""Structured JSON-lines trace of protocol activity.

One record per send/deliver/lease-transition/contract/event/reschedule-step
(including each intention the reschedule ladder selects); the safety test
suite replays runs from these records. The record kinds and their `detail`
keys are listed in the README.

A record is encoded into its line when it is emitted; the log holds only
lines. With a sink (an open text file) attached, every CHUNK_RECORDS lines go
into the sink, and the owner drains the rest with `write()` at the run's end.

Each line is byte-identical to `json.dumps(record, sort_keys=True)`. A
record's outer keys are fixed and sorted, so a line is a fixed template, and
so is all of a message record's line (`message`) and of a lease record's
(`lease`); other details go through the sorted-key encoder, built once here.
The records of one instant share one `t` object, so the log keeps the last
`t` object and its text, matched by identity: equal stamps of different types
or signs (1, 1.0, True, 0.0, -0.0) encode differently.
"""

import json
from json.encoder import c_make_encoder, encode_basestring_ascii as _esc
from math import isfinite
from typing import Any, TextIO

CHUNK_RECORDS = 1024

# json.dumps(sort_keys=True)'s C encoder: ", " and ": " separators, ASCII
# escaping, NaN and infinities allowed, its TypeError for any other type. No
# circular-reference markers: a record's detail holds plain values only.
_encode = c_make_encoder(None, json.JSONEncoder().default, _esc,
                         None, ": ", ", ", True, False, True)


class TraceLog:
    def __init__(self, enabled: bool = True, sink: TextIO | None = None):
        self.enabled = enabled
        self.sink = sink
        self.lines: list[str] = []
        self._t, self._t_text = None, "null"

    @property
    def records(self) -> list[dict]:
        """The held lines parsed back into records (for tests and debugging)."""
        return [json.loads(line) for line in self.lines]

    def _stamp(self, t: Any) -> str:
        """`t` as the encoder writes it (a finite float by its repr), kept
        as the last stamp."""
        self._t = t
        self._t_text = (float.__repr__(t) if t.__class__ is float and isfinite(t)
                        else "".join(_encode(t, 0)))
        return self._t_text

    def emit(self, t: float, agent: str, kind: str, **detail: Any) -> None:
        if self.enabled:
            lines = self.lines
            lines.append(f'{{"agent": {_esc(agent)}, '
                         f'"detail": {"".join(_encode(detail, 0))}, '
                         f'"kind": {_esc(kind)}, "t": '
                         f'{self._t_text if t is self._t else self._stamp(t)}}}\n')
            if self.sink is not None and len(lines) >= CHUNK_RECORDS:
                self.write()

    def message(self, t: float, kind: str, agent: str, key: str, peer: str,
                performative: str, conversation: str) -> None:
        """A send, drop or deliver record; `key` ("to" or "sender") names
        the peer, and sorts after the other two detail keys."""
        if self.enabled:
            lines = self.lines
            lines.append(f'{{"agent": {_esc(agent)}, '
                         f'"detail": {{"conversation": {_esc(conversation)}, '
                         f'"performative": {_esc(performative)}, '
                         f'{_esc(key)}: {_esc(peer)}}}, '
                         f'"kind": {_esc(kind)}, "t": '
                         f'{self._t_text if t is self._t else self._stamp(t)}}}\n')
            if self.sink is not None and len(lines) >= CHUNK_RECORDS:
                self.write()

    def lease(self, t: float, vm: str, state: str, conversation: str,
              holder: str | None = None) -> None:
        """A registry's lease record (agent `supervise`); `holder` is written
        only when given, as a BUSY lease names one."""
        if self.enabled:
            held = "" if holder is None else f'"holder": {_esc(holder)}, '
            lines = self.lines
            lines.append(f'{{"agent": "supervise", '
                         f'"detail": {{"conversation": {_esc(conversation)}, {held}'
                         f'"state": {_esc(state)}, "vm": {_esc(vm)}}}, '
                         f'"kind": "lease", "t": '
                         f'{self._t_text if t is self._t else self._stamp(t)}}}\n')
            if self.sink is not None and len(lines) >= CHUNK_RECORDS:
                self.write()

    def write(self) -> None:
        """Write the held lines into the sink and drop them."""
        self.sink.writelines(self.lines)
        self.lines.clear()


NULL_TRACE = TraceLog(enabled=False)
