"""Two scale relations, each exact because a power of two only moves a
float's exponent.

Time: doubling every time quantity of a config and halving every VM's cpu
doubles every drawn time and every time in the run, so the makespan doubles
with `==` and the success count and utilization variance are equal. A hidden
absolute time constant, or a timer delay applied twice or left unscaled,
breaks it.

Work: multiplying `task_workload` and `vm_cpu` by the same 2^k leaves every
run time, so every placement and every metric, equal with `==`. A hidden
absolute work constant breaks it: the old 1e-6 MI completion tolerance left
leftovers that no slot could pour, and the run livelocked from k = 14."""

import json
from pathlib import Path

import pytest

from cloudsched.harness import run_simulation
from cloudsched.scenario import SCHEDULERS, ScenarioConfig

from conftest import ledger_rows

ROOT = Path(__file__).resolve().parent.parent
DEADLINES = tuple(json.loads((ROOT / "configs" / "uncertain.json").read_text())
                  ["deadline"])

TIME_FIELDS = ("latency", "retry_period", "collect_timeout", "lease_timeout",
               "minmin_interval", "realloc_cost_per_pair", "time_limit")


def doubled_event(event):
    body = event.to_json()
    body["fire_at"] *= 2
    if "delta" in body["mutation"]:
        body["mutation"] = dict(body["mutation"], delta=body["mutation"]["delta"] * 2)
    return body


def doubled(config, events):
    """C′: C with every time doubled, cpu halved and C's events pinned at
    twice their times."""
    changes = {name: 2 * getattr(config, name) for name in TIME_FIELDS}
    return config.replaced(
        deadline=None if config.deadline is None else
        tuple(2 * x for x in config.deadline),
        arrival_window=tuple(2 * x for x in config.arrival_window),
        vm_cpu=tuple(x / 2 for x in config.vm_cpu),
        events=tuple(doubled_event(e) for e in events), **changes)


@pytest.mark.parametrize("deadline", [DEADLINES, None],
                         ids=["deadlines", "unbounded"])
@pytest.mark.parametrize("p", [0.0, 0.5])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_doubling_every_time_doubles_the_makespan(scheduler, p, deadline):
    config = ScenarioConfig(seed=1, users=100, hosts=3, scheduler=scheduler,
                            event_probability=p, deadline=deadline)
    base = run_simulation(config)
    scaled = run_simulation(doubled(config, base.events))
    assert len(scaled.events) == len(base.events)
    assert not base.truncated and not scaled.truncated
    assert scaled.metrics.makespan == 2 * base.metrics.makespan
    assert scaled.metrics.successful_tasks == base.metrics.successful_tasks
    assert scaled.metrics.utilization_variance == \
        base.metrics.utilization_variance


def work_scaled(config, events, k):
    """C with task workloads and VM cpus times 2^k and C's events pinned."""
    return config.replaced(
        task_workload=tuple(x * 2.0 ** k for x in config.task_workload),
        vm_cpu=tuple(x * 2.0 ** k for x in config.vm_cpu),
        events=tuple(e.to_json() for e in events))


@pytest.mark.parametrize("deadline", [DEADLINES, None],
                         ids=["deadlines", "unbounded"])
@pytest.mark.parametrize("p", [0.0, 0.5])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_scaling_work_and_cpu_alike_changes_nothing(scheduler, p, deadline):
    config = ScenarioConfig(seed=1, users=100, hosts=3, scheduler=scheduler,
                            event_probability=p, deadline=deadline)
    base = run_simulation(config)
    for k in (-24, 14, 40):
        # the cut turns a livelock into a failure instead of a hang
        scaled = run_simulation(work_scaled(config, base.events, k).replaced(
            time_limit=2 * base.final_time))
        assert not scaled.truncated
        assert scaled.metrics == base.metrics
        assert ledger_rows(scaled) == ledger_rows(base)


@pytest.mark.parametrize("scheduler", ["mct", "ara"])
def test_work_scaled_by_2_14_runs_to_quiescence(scheduler):
    """The default world with both ranges times 2^14 once livelocked: a
    leftover just above 1e-6 MI booked one-ulp slots that poured nothing.
    The cut at 1.5 times the unscaled makespan (716.03 s under mct) makes
    such a livelock fail fast instead of hang."""
    config = ScenarioConfig(seed=1, users=100, hosts=3, scheduler=scheduler,
                            time_limit=1074.0)
    base = run_simulation(config)
    scaled = run_simulation(work_scaled(config, [], 14))
    assert not base.truncated and not scaled.truncated
    assert scaled.metrics == base.metrics
    assert ledger_rows(scaled) == ledger_rows(base)
