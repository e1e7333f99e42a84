"""The four benchmark workloads. Each drives the simulator only through its
documented entry points (`harness.run_simulation`, `harness.compare`,
`cli.main`) and spreads one round over several generated worlds, one per
sub-seed drawn from the run's seed, so that the modelled metrics average over
datacenters instead of hanging on one draw of VM counts and speeds.

A workload object offers:
  build()      generate every original world and drop it (part of set-up)
  reference()  run every cell once, check it, and return its result row and
               its check violations; a cell that raises gets the violation
               "raised ...". Each original world lives only while its cells
               are checked.
  units()      the timed part, as zero-argument calls, each timed on its own;
               like a single `cloudsched run`, no cell's world outlives its
               unit
  rows(outs)   one result row per cell, as strings, in the order of
               reference(), from the outputs of units()

A cell is one (scheduler, event probability, seed) run.
"""

import csv
import json
import os
from functools import partial

from cloudsched import cli, harness
from cloudsched.kernel import RngStreams
from cloudsched.scenario import ScenarioConfig, generate_scenario

import checks

CENTRAL = ("mct", "met", "min_min", "round_robin")
ALL_SCHEDULERS = ("ara",) + CENTRAL
PROBABILITIES = (0.2, 0.5, 0.8)
SEED_STRIDE = 100       # sub-seeds of run seed n are n*100 .. n*100 + worlds - 1


def _as_strings(row: dict) -> dict:
    return {k: str(v) for k, v in row.items()}


def _checked(config: ScenarioConfig, check, **row_args) -> tuple[dict, list[str]]:
    """Run one cell and check it; a cell that raises fails with its error."""
    try:
        result = harness.run_simulation(config)
        row = _as_strings(harness.result_row(result, **row_args))
        return row, check(result, row)
    except Exception as exc:
        return ({"scheduler": config.scheduler, "seed": str(config.seed)},
                [f"raised {type(exc).__name__}: {exc}"])


class Workload:
    name = ""
    worlds = 1              # generated worlds (sub-seeds) per round
    users = 0
    schedulers: tuple = ()

    def __init__(self, seed: int, workdir: str):
        self.seeds = [seed * SEED_STRIDE + k for k in range(self.worlds)]
        self.workdir = workdir

    def base_config(self, seed: int) -> ScenarioConfig:
        return ScenarioConfig(seed=seed, users=self.users, hosts=10)

    def world(self, seed: int):
        return generate_scenario(self.base_config(seed), RngStreams(seed).scenario)

    def build(self) -> None:
        for seed in self.seeds:
            self.world(seed)

    @property
    def cells(self) -> int:
        return len(self.seeds) * len(self.schedulers)


def _run_cell(config: ScenarioConfig) -> dict:
    return _as_strings(harness.result_row(harness.run_simulation(config)))


class _PerCellRuns(Workload):
    """One `run_simulation` per (seed, scheduler) with no events; each cell
    is a timed unit of its own."""

    def cell_configs(self, seed: int) -> list[ScenarioConfig]:
        return [self.base_config(seed).replaced(scheduler=s)
                for s in self.schedulers]

    def units(self) -> list:
        return [partial(_run_cell, c) for seed in self.seeds
                for c in self.cell_configs(seed)]

    def rows(self, outs) -> list[dict]:
        return outs

    def reference(self):
        rows, found = [], []
        for seed in self.seeds:
            original = self.world(seed)
            for config in self.cell_configs(seed):
                row, bad = _checked(config, partial(self.check, original))
                rows.append(row)
                found.append(bad)
        return rows, found

    def check(self, original, result, row) -> list[str]:
        found = checks.check_world(original, result, result.config.time_limit)
        found += checks.check_no_event(original, result)
        found += checks.check_row(row, original, result)
        return found + self.verify_policy(original, result)

    def verify_policy(self, original, result) -> list[str]:
        return []


class CentralInitial(_PerCellRuns):
    """The four central baselines, no events, unbounded deadlines: the VM
    ledger and the baseline assigners do the work, min_min's flush most."""
    name = "central-initial"
    worlds = 6
    users = 400
    schedulers = CENTRAL

    def verify_policy(self, original, result) -> list[str]:
        return checks.check_replay(result.config.scheduler, original, result,
                                   result.config.minmin_interval)


class AgentsInitial(_PerCellRuns):
    """The agent pipeline alone in the experiment-1 setting (theta 5,
    unbounded deadlines, no events): kernel, messaging, registry and GC."""
    name = "agents-initial"
    worlds = 8
    users = 500
    schedulers = ("ara",)

    def base_config(self, seed: int) -> ScenarioConfig:
        return ScenarioConfig(seed=seed, users=self.users, hosts=10, theta=5)

    def verify_policy(self, original, result) -> list[str]:
        return checks.check_listeners(result.runtime)


class UncertainGrid(Workload):
    """`harness.compare` over all five schedulers x event probability
    {0.2, 0.5, 0.8}, deadlines [850, 2100] as in configs/uncertain.json; one
    `compare` per world is a timed unit."""
    name = "uncertain-grid"
    worlds = 10
    users = 50
    schedulers = ALL_SCHEDULERS

    def base_config(self, seed: int) -> ScenarioConfig:
        return ScenarioConfig(seed=seed, users=self.users, hosts=10,
                              deadline=(850.0, 2100.0))

    @property
    def cells(self) -> int:
        return super().cells * len(PROBABILITIES)

    def units(self) -> list:
        return [partial(harness.compare, self.base_config(seed),
                        list(self.schedulers), list(PROBABILITIES))
                for seed in self.seeds]

    def rows(self, outs) -> list[dict]:
        return [_as_strings(r) for rows in outs for r in rows]

    def reference(self):
        """Every cell run on its own, in the row order `compare` sorts to; a
        timed `compare` row must equal its cell's row here."""
        rows, found = [], []
        for seed in self.seeds:
            original = self.world(seed)
            for scheduler in sorted(self.schedulers):
                for p in PROBABILITIES:
                    config = self.base_config(seed).replaced(
                        scheduler=scheduler, event_probability=p)
                    row, bad = _checked(config, partial(self.check, original),
                                        axis="probability", axis_value=p)
                    rows.append(row)
                    found.append(bad)
        return rows, found

    def check(self, original, result, row) -> list[str]:
        found = checks.check_world(original, result, result.config.time_limit)
        found += checks.check_row(row, original, result)
        if result.runtime is not None:
            found += checks.check_listeners(result.runtime)
        return found


class AgentsTraced(AgentsInitial):
    """`cloudsched run --trace` on the agents-initial worlds: the only
    workload where the trace log records and writes. One `cli.main` call per
    world is a timed unit.

    The reference pass is the untraced run of each world, so a CSV row must
    equal the untraced row of the same config. Every round's trace files are
    checked after the clock stops; a row's `trace` field says "ok" when they
    pass."""
    name = "agents-traced"

    def paths(self, seed: int) -> tuple[str, str, str]:
        stem = os.path.join(self.workdir, f"{self.name}-{seed}")
        return stem + ".json", stem + ".csv", stem + ".jsonl"

    def build(self) -> None:
        super().build()
        for seed in self.seeds:
            config_path, _, _ = self.paths(seed)
            with open(config_path, "w") as fh:
                json.dump(self.base_config(seed).to_dict(), fh)

    def reference(self):
        rows, found = super().reference()
        for row in rows:
            row.update(exit_code="0", trace="ok")
        return rows, found

    def units(self) -> list:
        calls = []
        for seed in self.seeds:
            config_path, csv_path, trace_path = self.paths(seed)
            calls.append(partial(cli.main, ["run", "--config", config_path,
                                            "--trace", trace_path,
                                            "--out", csv_path]))
        return calls

    def rows(self, codes) -> list[dict]:
        rows = []
        for seed, code in zip(self.seeds, codes):
            _, csv_path, trace_path = self.paths(seed)
            with open(csv_path, newline="") as fh:
                (row,) = list(csv.DictReader(fh))
            with open(trace_path) as fh:
                bad, records = checks.check_trace(fh)
            if records == 0:
                bad.append("trace file holds no records")
            row.update(exit_code=str(code), trace="; ".join(bad[:3]) or "ok")
            rows.append(row)
        return rows


WORKLOADS = {w.name: w for w in (CentralInitial, AgentsInitial, UncertainGrid,
                                 AgentsTraced)}
