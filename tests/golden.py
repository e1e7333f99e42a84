"""The pinned golden-row matrix: five schedulers x seeds 1-3 x event
probability {0, 0.5} at desk scale (500 users). Runs with p = 0 use
configs/desk.json; runs with p > 0 use configs/uncertain.json, whose
deadlines give the reschedulers something to miss.

The rows in tests/data/golden_rows.csv are the csv_bytes of this matrix. A
change that moves a row must say so and regenerate the file:

  PYTHONPATH=src python tests/golden.py --write
"""

import pathlib
import sys

from cloudsched.harness import csv_bytes, result_row, run_simulation
from cloudsched.scenario import SCHEDULERS, ScenarioConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_rows.csv"
SEEDS = (1, 2, 3)
PROBABILITIES = (0.0, 0.5)


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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    GOLDEN.write_bytes(golden_bytes())
    print(f"wrote {GOLDEN}")
