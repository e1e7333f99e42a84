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

A change that moves a row or a trace must say so and regenerate every file:

  PYTHONPATH=src python tests/golden.py --write
"""

import hashlib
import io
import json
import pathlib
import sys

from cloudsched.harness import csv_bytes, result_row, run_simulation
from cloudsched.scenario import SCHEDULERS, ScenarioConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_rows.csv"
TRACE_DIGESTS = ROOT / "tests" / "data" / "golden_trace_sha256.txt"
SEEDS = (1, 2, 3)
PROBABILITIES = (0.0, 0.5)
SATURATED_ROWS = ROOT / "tests" / "data" / "saturated_rows.csv"
SATURATED_DIGESTS = ROOT / "tests" / "data" / "saturated_trace_sha256.txt"
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    GOLDEN.write_bytes(golden_bytes())
    TRACE_DIGESTS.write_text("\n".join(trace_digest_lines()) + "\n")
    rows, lines = traced_runs(saturated_cells())
    SATURATED_ROWS.write_bytes(rows)
    SATURATED_DIGESTS.write_text("\n".join(lines) + "\n")
    print(f"wrote {GOLDEN}, {TRACE_DIGESTS}, {SATURATED_ROWS} "
          f"and {SATURATED_DIGESTS}")
