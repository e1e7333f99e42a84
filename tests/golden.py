"""The pinned golden-row matrix: five schedulers x seeds 1-3 x event
probability {0, 0.5} at desk scale (500 users). Runs with p = 0 use
configs/desk.json; runs with p > 0 use configs/uncertain.json, whose
deadlines give the reschedulers something to miss.

The rows in tests/data/golden_rows.csv are the csv_bytes of this matrix.
tests/data/golden_trace_sha256.txt pins the streamed trace of a smaller
matrix: five schedulers x p {0, 0.5}, seed 2, 200 users on 5 hosts with the
deadlines of configs/uncertain.json; each line is the cell's name, the
sha256 of its trace file, and the sha256 of the same trace with every
record's `detail.conversation` removed. The second digest holds still when a
change renames conversations and nothing else.

tests/data/saturated_rows.csv and tests/data/saturated_trace_sha256.txt pin
the rows and traces of a saturated matrix: five schedulers x p {0, 0.5},
seed 2, 300 users on 2 hosts with the deadlines of configs/uncertain.json.
There most users cannot be served, so `ara` retries its initial round
thousands of times and its empty recommendations dominate the run.

tests/data/kernel_calls_sha256.txt pins, for `ara` at p {0, 0.5} on the
worlds of the trace and saturated matrices, the sha256 of every
`Kernel.schedule` call (`repr(fire_at)`, `kind`) and every `Kernel.cancel`
(the cancelled entry's `repr(fire_at)` and `kind`, and whether it was still
pending), in call order. A trace cannot see an entry that is scheduled twice
or cancelled unfired; this digest can.

A change that moves a row or a trace must say so and regenerate every file:

  PYTHONPATH=src python tests/golden.py --write
"""

import hashlib
import io
import json
import pathlib
import sys
from unittest import mock

from cloudsched.harness import csv_bytes, result_row, run_simulation
from cloudsched.kernel import Kernel
from cloudsched.scenario import SCHEDULERS, ScenarioConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_rows.csv"
TRACE_DIGESTS = ROOT / "tests" / "data" / "golden_trace_sha256.txt"
SEEDS = (1, 2, 3)
PROBABILITIES = (0.0, 0.5)
SATURATED_ROWS = ROOT / "tests" / "data" / "saturated_rows.csv"
SATURATED_DIGESTS = ROOT / "tests" / "data" / "saturated_trace_sha256.txt"
KERNEL_DIGESTS = ROOT / "tests" / "data" / "kernel_calls_sha256.txt"
TRACE_SEED = 2


def cells() -> list[ScenarioConfig]:
    desk = ScenarioConfig.from_json(str(ROOT / "configs" / "desk.json"))
    uncertain = ScenarioConfig.from_json(str(ROOT / "configs" / "uncertain.json"))
    out = []
    for scheduler in SCHEDULERS:
        for seed in SEEDS:
            for p in PROBABILITIES:
                base = uncertain if p > 0.0 else desk
                out.append(base.replaced(scheduler=scheduler, seed=seed,
                                         event_probability=p))
    return out


def golden_bytes() -> bytes:
    """Run every cell on its own and render the rows as CSV."""
    rows = [result_row(run_simulation(cfg), axis="probability",
                       axis_value=cfg.event_probability) for cfg in cells()]
    return csv_bytes(rows)


def trace_cells(users: int = 200, hosts: int = 5) -> list[ScenarioConfig]:
    uncertain = ScenarioConfig.from_json(str(ROOT / "configs" / "uncertain.json"))
    return [uncertain.replaced(scheduler=scheduler, seed=TRACE_SEED, users=users,
                               hosts=hosts, event_probability=p)
            for scheduler in SCHEDULERS for p in PROBABILITIES]


def saturated_cells() -> list[ScenarioConfig]:
    return trace_cells(users=300, hosts=2)


def without_conversations(text: str) -> str:
    """The trace with `detail.conversation` dropped from every record."""
    records = [json.loads(line) for line in text.splitlines()]
    for record in records:
        record["detail"].pop("conversation", None)
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def traced_runs(configs: list[ScenarioConfig]) -> tuple[bytes, list[str]]:
    """Run every cell with a streamed trace: the rows as CSV, and one
    `<scheduler> p=<p> <sha256> <sha256 without conversations>` line per
    cell."""
    rows, lines = [], []
    for cfg in configs:
        sink = io.StringIO()
        rows.append(result_row(run_simulation(cfg, trace_sink=sink),
                               axis="probability",
                               axis_value=cfg.event_probability))
        text = sink.getvalue()
        digests = [hashlib.sha256(t.encode()).hexdigest()
                   for t in (text, without_conversations(text))]
        lines.append(f"{cfg.scheduler} p={cfg.event_probability} "
                     + " ".join(digests))
    return csv_bytes(rows), lines


def trace_digest_lines() -> list[str]:
    return traced_runs(trace_cells())[1]


def kernel_call_digest(cfg: ScenarioConfig) -> str:
    """The sha256 of the run's `Kernel.schedule` and `Kernel.cancel` calls."""
    calls, entries = [], {}
    schedule, cancel = Kernel.schedule, Kernel.cancel

    def spied_schedule(kernel, fire_at, action, kind="timer"):
        entry = schedule(kernel, fire_at, action, kind)
        entries[entry] = f"{fire_at!r} {kind}"
        calls.append(f"schedule {entries[entry]}\n")
        return entry

    def spied_cancel(kernel, entry_id):
        pending = cancel(kernel, entry_id)
        calls.append(f"cancel {entries[entry_id]} {pending}\n")
        return pending

    with mock.patch.object(Kernel, "schedule", spied_schedule), \
            mock.patch.object(Kernel, "cancel", spied_cancel):
        run_simulation(cfg)
    return hashlib.sha256("".join(calls).encode()).hexdigest()


def kernel_call_lines() -> list[str]:
    """One `<world> p=<p> <sha256>` line per `ara` cell of the trace and
    saturated matrices."""
    return [f"{world} p={cfg.event_probability} {kernel_call_digest(cfg)}"
            for world, configs in (("golden", trace_cells()),
                                   ("saturated", saturated_cells()))
            for cfg in configs if cfg.scheduler == "ara"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    GOLDEN.write_bytes(golden_bytes())
    TRACE_DIGESTS.write_text("\n".join(trace_digest_lines()) + "\n")
    rows, lines = traced_runs(saturated_cells())
    SATURATED_ROWS.write_bytes(rows)
    SATURATED_DIGESTS.write_text("\n".join(lines) + "\n")
    KERNEL_DIGESTS.write_text("\n".join(kernel_call_lines()) + "\n")
    print(f"wrote {GOLDEN}, {TRACE_DIGESTS}, {SATURATED_ROWS}, "
          f"{SATURATED_DIGESTS} and {KERNEL_DIGESTS}")
