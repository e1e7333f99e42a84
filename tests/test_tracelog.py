"""The streamed trace: a run with a sink writes the same bytes that encoding
the in-memory records of the same run gives, and holds at most one chunk of
records at a time. Because the stream encodes a record long before the run
ends, a `detail` object mutated after `emit` would show up here as a byte
difference. The last tests hold every record to the README's schema table,
and every row of that table to a kind the source still emits."""

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
    assert result.trace.records == []
    return sink.getvalue()


def buffer_peak(monkeypatch):
    """Records the largest buffer seen after any emit."""
    peak = [0]
    emit = TraceLog.emit

    def watched(self, *args, **detail):
        emit(self, *args, **detail)
        peak[0] = max(peak[0], len(self.records))
    monkeypatch.setattr(TraceLog, "emit", watched)
    return peak


@pytest.mark.parametrize("scheduler", ["ara", "mct"])
@pytest.mark.parametrize("chunk", [None, 7])
def test_stream_matches_in_memory_encoding(scheduler, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(tracelog, "CHUNK_RECORDS", chunk)
    config = uncertain(scheduler)
    expected = encoded(run_simulation(config, collect_trace=True).trace.records)
    peak = buffer_peak(monkeypatch)
    text = streamed(config)
    assert text == expected
    assert 0 < peak[0] < tracelog.CHUNK_RECORDS
    if scheduler == "ara" and chunk is None:
        assert text.count("\n") > 4 * tracelog.CHUNK_RECORDS


def test_stream_of_exact_chunk_multiple(monkeypatch):
    config = uncertain("ara", users=100)
    records = run_simulation(config, collect_trace=True).trace.records
    factor = next(k for k in range(2, len(records) + 1) if len(records) % k == 0)
    monkeypatch.setattr(tracelog, "CHUNK_RECORDS", len(records) // factor)
    assert len(records) % tracelog.CHUNK_RECORDS == 0
    assert streamed(config) == encoded(records)


def test_cli_trace_file_is_complete(tmp_path):
    config = uncertain("ara", users=120, seed=8)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    trace = tmp_path / "trace.jsonl"
    assert main(["run", "--config", str(config_path), "--trace", str(trace),
                 "--out", str(tmp_path / "out.csv")]) == 0
    records = run_simulation(config, collect_trace=True).trace.records
    assert len(records) > tracelog.CHUNK_RECORDS
    assert trace.read_text() == encoded(records)


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


def emitted_kinds() -> set[str]:
    """Every string literal passed as the `kind` argument (the third) of an
    `emit(...)` call in the package source, both branches of a conditional
    kind included."""
    kinds = set()
    for path in (ROOT / "src" / "cloudsched").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and len(node.args) >= 3 and \
                    getattr(node.func, "attr", None) == "emit":
                kinds.update(c.value for c in ast.walk(node.args[2])
                             if isinstance(c, ast.Constant)
                             and isinstance(c.value, str))
    return kinds


def test_documented_kinds_are_still_emitted():
    documented = {kind for kind, _ in documented_schema()}
    assert {"send", "contract", "intention"} <= documented
    assert sorted(documented - emitted_kinds()) == []
