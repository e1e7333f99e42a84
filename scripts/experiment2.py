#!/usr/bin/env python3
"""Rescheduling experiment: task success rate of the agent pipeline against
the four centralized baselines while the uncertain-event probability rises
from 0.1 to 1.0.

Deadlines are scaled off a no-event probe run so the zero-event success rate
starts near 1.0, mirroring the deadline-bound setting this sweep studies.

  PYTHONPATH=src python scripts/experiment2.py --out results/experiment2.csv
"""

import argparse
import sys

from cloudsched.harness import compare, run_simulation, write_csv
from cloudsched.scenario import SCHEDULERS, ScenarioConfig


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="experiment2.csv")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--full", action="store_true",
                        help="10000 users / 30 hosts instead of desk scale")
    args = parser.parse_args()

    users, hosts = (10000, 30) if args.full else (500, 10)
    probe_cfg = ScenarioConfig(seed=args.seed, users=users, hosts=hosts, theta=5)
    if args.full:
        deadline = (2000.0, 5000.0)
    else:
        horizon = run_simulation(probe_cfg).metrics.makespan
        deadline = (horizon, 2.5 * horizon)
    base = probe_cfg.replaced(deadline=deadline)
    probabilities = [round(0.1 * k, 1) for k in range(1, 11)]
    with open(args.out, "w", newline="") as out:     # a bad path fails now
        rows = compare(base, list(SCHEDULERS), probabilities, reps=args.reps)
        write_csv(rows, out)
    print(f"deadlines {deadline[0]:.0f}..{deadline[1]:.0f}; "
          f"{len(rows)} rows -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
