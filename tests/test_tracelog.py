"""The streamed trace: a run with a sink writes the same bytes as the lines
the same run holds in memory, and holds at most one chunk of lines at a time.
Each line, written by `emit` or by the `message` or `lease` template, is
byte-identical to `json.dumps(record, sort_keys=True)`. The last tests hold
every record to the README's schema table, and every row of that table to a
kind the source still emits."""

import ast
import io
import json
import re
from pathlib import Path

import pytest

from cloudsched import tracelog
from cloudsched.cli import main
from cloudsched.harness import run_simulation
from cloudsched.scenario import ScenarioConfig
from cloudsched.tracelog import TraceLog

ROOT = Path(__file__).resolve().parents[1]


def uncertain(scheduler, users=200, seed=3):
    return ScenarioConfig.from_json(str(ROOT / "configs" / "uncertain.json")) \
        .replaced(scheduler=scheduler, users=users, seed=seed)


def encoded(records):
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def streamed(config):
    sink = io.StringIO()
    result = run_simulation(config, trace_sink=sink)
    assert result.trace.lines == []
    return sink.getvalue()


def in_memory(config):
    return "".join(run_simulation(config, collect_trace=True).trace.lines)


def buffer_peak(monkeypatch):
    """Records the largest buffer seen after any emit, message or lease."""
    peak = [0]

    def watch(method):
        def watched(self, *args, **detail):
            method(self, *args, **detail)
            peak[0] = max(peak[0], len(self.lines))
        return watched
    for name in ("emit", "message", "lease"):
        monkeypatch.setattr(TraceLog, name, watch(getattr(TraceLog, name)))
    return peak


@pytest.mark.parametrize("scheduler", ["ara", "mct"])
@pytest.mark.parametrize("chunk", [None, 7])
def test_stream_matches_in_memory_encoding(scheduler, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(tracelog, "CHUNK_RECORDS", chunk)
    config = uncertain(scheduler)
    expected = in_memory(config)
    peak = buffer_peak(monkeypatch)
    text = streamed(config)
    assert text == expected
    assert 0 < peak[0] < tracelog.CHUNK_RECORDS
    if scheduler == "ara" and chunk is None:
        assert text.count("\n") > 4 * tracelog.CHUNK_RECORDS


def test_stream_of_exact_chunk_multiple(monkeypatch):
    config = uncertain("ara", users=100)
    lines = run_simulation(config, collect_trace=True).trace.lines
    factor = next(k for k in range(2, len(lines) + 1) if len(lines) % k == 0)
    monkeypatch.setattr(tracelog, "CHUNK_RECORDS", len(lines) // factor)
    assert len(lines) % tracelog.CHUNK_RECORDS == 0
    assert streamed(config) == "".join(lines)


def test_cli_trace_file_is_complete(tmp_path):
    config = uncertain("ara", users=120, seed=8)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    trace = tmp_path / "trace.jsonl"
    assert main(["run", "--config", str(config_path), "--trace", str(trace),
                 "--out", str(tmp_path / "out.csv")]) == 0
    expected = in_memory(config)
    assert expected.count("\n") > tracelog.CHUNK_RECORDS
    assert trace.read_text() == expected


def test_line_template_matches_json_dumps_on_any_record(monkeypatch):
    # the golden digests cover only the values the simulator emits today;
    # equal timestamps of different types (1, 1.0, True) encode differently
    monkeypatch.setattr(tracelog, "CHUNK_RECORDS", 3)
    sink = io.StringIO()
    log = TraceLog(sink=sink)
    t = 2.5
    cases = [
        (t, "user:ü☃\U0001f600", "send", {"to": 'q"uo\\te\n\t\x00\x1f\x7f'}),
        (t, "host:h0", "kénd", {"n": 3, "yes": True, "no": False,
                                    "none": None, "big": 10 ** 30}),
        (7, "sa", "deliver", {"inf": float("inf"), "ninf": float("-inf"),
                             "nan": float("nan"), "neg": -0.0, "tiny": 5e-324}),
        (1, "", "", {}), (1.0, "", "", {}), (True, "", "", {}),
        (float("nan"), "a", "b", {"z": {"b": [1, {"y": 2, "x": [None, 1.5]}],
                                        "a": ()}, "a": [], "m": {"k": "v"}}),
        (float("inf"), "a", "b", {"ids": ["u1", "u2"], "empty": {}}),
        (t, "a", "b", {"s": "ÿ\ud800"}),
    ]
    for t_, agent, kind, detail in cases:
        log.emit(t_, agent, kind, **detail)
    log.write()
    assert sink.getvalue() == encoded(
        {"t": t_, "agent": agent, "kind": kind, "detail": detail}
        for t_, agent, kind, detail in cases)


def test_message_template_matches_json_dumps(monkeypatch):
    # equal timestamps of different types or signs follow each other: the
    # log keeps the last timestamp's text by identity, never by value
    monkeypatch.setattr(tracelog, "CHUNK_RECORDS", 3)
    sink = io.StringIO()
    log = TraceLog(sink=sink)
    odd = 'q"uo\\te\n\t\x00\x1f\x7f ü☃\U0001f600 ÿ\ud800'
    cases = [
        (2.5, "send", odd, "to", odd, odd, odd),
        (0.25, "deliver", "user:u1", "sender", "host:h0", "PROPOSE", odd),
        (0.5, "drop", "user:u1", "to", "supervise:sa", odd, "u1#r0"),
    ] + [(t, "send", "a", "to", "b", "REQUEST", "c")
         for t in (7, True, 1, 1.0, 0.0, -0.0, 5e-324, 1e16, float("inf"),
                   float("-inf"), float("nan"))]
    for t, kind, agent, key, peer, performative, conversation in cases:
        log.message(t, kind, agent, key, peer, performative, conversation)
    log.write()
    assert sink.getvalue() == encoded(
        {"t": t, "agent": agent, "kind": kind,
         "detail": {key: peer, "performative": performative,
                    "conversation": conversation}}
        for t, kind, agent, key, peer, performative, conversation in cases)


def lease_record(t, vm, state, conversation, holder=None):
    detail = {"vm": vm, "state": state, "conversation": conversation}
    if holder is not None:
        detail["holder"] = holder
    return {"t": t, "agent": "supervise", "kind": "lease", "detail": detail}


def test_lease_template_matches_json_dumps(monkeypatch):
    monkeypatch.setattr(tracelog, "CHUNK_RECORDS", 3)
    sink = io.StringIO()
    log = TraceLog(sink=sink)
    odd = 'q"uo\\te\n\t\x00\x1f\x7f ü☃\U0001f600 ÿ\ud800'
    cases = [
        (2.5, odd, "BUSY", odd, odd),
        (2.5, "h000v00", "READY", "u1#r0", None),
        (0.25, "", "", "", ""),
        (0.25, odd, odd, odd, None),
    ] + [(t, "h001v02", state, "u00007#r3", holder)
         for t in (7, True, 1, 1.0, 0.0, -0.0, 0, False, 5e-324, 1e16,
                   float("inf"), float("-inf"), float("nan"))
         for state, holder in (("BUSY", "u00007"), ("READY", None))]
    for case in cases:
        log.lease(*case)
    log.write()
    assert sink.getvalue() == encoded(lease_record(*case) for case in cases)


def test_templates_share_the_stamp_by_identity():
    # each `t` object is shared by emit, message and lease; the next one, an
    # equal stamp of another type or sign, follows a lease line
    log = TraceLog()
    expected = []
    for t in (3.5, 3.5, -0.0, 0.0, 0, False, 1, True, 1.0, float("nan"),
              float("nan"), 2.0):
        log.emit(t, "host:h0", "contract", vm="h0v0")
        log.message(t, "send", "user:u1", "to", "host:h0", "REQUEST", "c")
        log.lease(t, "h0v0", "READY", "c")
        log.lease(t, "h0v0", "BUSY", "c", "u1")
        expected += [
            {"t": t, "agent": "host:h0", "kind": "contract",
             "detail": {"vm": "h0v0"}},
            {"t": t, "agent": "user:u1", "kind": "send",
             "detail": {"to": "host:h0", "performative": "REQUEST",
                        "conversation": "c"}},
            lease_record(t, "h0v0", "READY", "c"),
            lease_record(t, "h0v0", "BUSY", "c", "u1")]
    assert "".join(log.lines) == encoded(expected)


@pytest.mark.parametrize("scheduler", ["ara", "mct"])
def test_untraced_run_never_emits(scheduler, emit_only_when_enabled):
    # uncertain.json draws events at p=0.5: reschedule cycles, rescues,
    # reallocations and failures all run, and so does the untraced probe twin
    result = run_simulation(uncertain(scheduler, users=100))
    assert result.events and not result.trace.enabled


def documented_schema() -> set[tuple[str, frozenset]]:
    """(kind, detail keys) of each row of the README's trace record table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### Trace records", 1)[1].split("\n#", 1)[0]
    rows = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            kind, keys = line.split("|")[1:3]
            rows.add((kind.strip().strip("`"),
                      frozenset(re.findall(r"`(\w+)`", keys))))
    return rows


@pytest.mark.parametrize("scheduler", ["ara", "min_min"])
def test_records_follow_documented_schema(scheduler):
    records = run_simulation(uncertain(scheduler, users=100),
                             collect_trace=True).trace.records
    seen = {(r["kind"], frozenset(r["detail"])) for r in records}
    assert sorted(seen - documented_schema()) == []


def test_cycle_wait_records_follow_documented_schema():
    # at 200 users some reschedule cycles find no VM that holds their batch
    # and wait past their next poll (retry period 5)
    records = run_simulation(uncertain("ara"), collect_trace=True).trace.records
    waits = [r for r in records if r["kind"] == "cycle_wait"]
    assert waits
    assert {("cycle_wait", frozenset(r["detail"])) for r in waits} <= \
        documented_schema()
    assert all(r["detail"]["until"] > r["t"] + 5.0 for r in waits)


def emitted_kinds() -> set[str]:
    """Every string literal passed as the `kind` argument of an `emit(...)`
    call (the third) or a `message(...)` call (the second) in the package
    source, both branches of a conditional kind included, and `lease` if a
    `lease(...)` call on a trace log is there."""
    kinds = set()
    for path in (ROOT / "src" / "cloudsched").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            attr = getattr(node.func, "attr", None)
            if attr == "lease" and ast.unparse(node.func.value).endswith("trace"):
                kinds.add("lease")
            at = {"emit": 2, "message": 1}.get(attr)
            if at is not None and len(node.args) > at:
                kinds.update(c.value for c in ast.walk(node.args[at])
                             if isinstance(c, ast.Constant)
                             and isinstance(c.value, str))
    return kinds


def test_documented_kinds_are_still_emitted():
    documented = {kind for kind, _ in documented_schema()}
    assert {"send", "contract", "intention"} <= documented
    assert sorted(documented - emitted_kinds()) == []
