#!/usr/bin/env python3
"""Initial-scheduling experiment: sweep the recommendation width (theta) and
the host count, recording makespan and utilization variance per run.

Desk scale by default (about half a minute); pass --full for the
10000-user setting, which takes considerably longer.

  PYTHONPATH=src python scripts/experiment1.py --out results/experiment1.csv
"""

import argparse
import sys

from cloudsched.harness import sweep, write_csv
from cloudsched.scenario import ScenarioConfig


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="experiment1.csv")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--full", action="store_true",
                        help="10000 users instead of the desk-scale 500")
    args = parser.parse_args()

    users = 10000 if args.full else 500
    rows = []
    with open(args.out, "w", newline="") as out:     # a bad path fails now
        for hosts in (10, 30, 50):
            base = ScenarioConfig(seed=args.seed, users=users, hosts=hosts)
            chunk = sweep(base, "theta", list(range(1, 21)), reps=args.reps)
            for row in chunk:
                row["axis"] = f"theta@hosts={hosts}"
            rows.extend(chunk)
        write_csv(rows, out)
    print(f"{len(rows)} rows -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
