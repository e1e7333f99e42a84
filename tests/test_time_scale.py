"""The ×2 time-scale property: doubling every time quantity of a config and
halving every VM's cpu doubles every drawn time and every time in the run
exactly (a factor of two only moves a float's exponent), so the makespan
doubles with `==` and the success count and utilization variance are equal.
A hidden absolute time constant, or a timer delay applied twice or left
unscaled, breaks it."""

import json
from pathlib import Path

import pytest

from cloudsched.harness import run_simulation
from cloudsched.scenario import SCHEDULERS, ScenarioConfig

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
