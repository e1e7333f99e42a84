import json

import pytest

from cloudsched import harness
from cloudsched.harness import (compare, csv_bytes, result_row,
                                run_simulation, sweep)
from cloudsched.kernel import RngStream, RngStreams
from cloudsched.rescheduling import (DeadlineCut, TaskInflate, VmDegrade,
                                     generate_events)
from cloudsched.scenario import (SCHEDULERS, ConfigError, ScenarioConfig,
                                 generate_scenario)


def test_event_sets_nest_across_probabilities():
    config = ScenarioConfig(seed=3, users=60, hosts=3)
    world = generate_scenario(config, RngStream(3, "scenario"))
    vms = list(world.vms.values())

    def keyed(p):
        events = generate_events(world.users, vms, p, RngStream(3, "events"),
                                 500.0)
        return {json.dumps({**e.to_json(), "event_id": None}, sort_keys=True)
                for e in events}

    low, high = keyed(0.3), keyed(0.8)
    assert low <= high
    assert len(keyed(1.0)) == len(world.users) + len(vms)


@pytest.mark.parametrize("kind", ["ara", "mct"])
def test_success_rate_non_increasing_in_probability(kind):
    srs = []
    for p in (0.0, 0.5, 1.0):
        config = ScenarioConfig(seed=1, users=120, hosts=4, theta=4,
                                scheduler=kind, deadline=(400.0, 1000.0),
                                event_probability=p)
        srs.append(run_simulation(config).metrics.success_rate)
    assert srs[0] >= srs[1] >= srs[2]


def test_explicit_horizon_matches_probe_path():
    config = ScenarioConfig(seed=5, users=60, hosts=3, theta=3,
                            deadline=(400.0, 1000.0), event_probability=0.5)
    probe = run_simulation(config.replaced(event_probability=0.0))
    auto = run_simulation(config)
    manual = run_simulation(config, horizon=probe.metrics.makespan)
    assert auto.events == manual.events
    assert auto.metrics == manual.metrics


def test_pinned_event_list_replays_bit_exactly():
    config = ScenarioConfig(seed=5, users=60, hosts=3, theta=3,
                            deadline=(400.0, 1000.0), event_probability=0.5)
    original = run_simulation(config)
    assert original.events
    pinned = config.replaced(events=tuple(e.to_json() for e in original.events))
    replay = run_simulation(ScenarioConfig.from_dict(pinned.to_dict()))
    assert replay.events == original.events
    assert replay.metrics == original.metrics


def test_sweep_emits_row_per_value_and_seed():
    config = ScenarioConfig(seed=10, users=30, hosts=2, arrival_window=(0, 10))
    rows = sweep(config, "theta", [1, 2], reps=2)
    assert [(r["axis_value"], r["seed"]) for r in rows] == \
        [(1, 10), (1, 11), (2, 10), (2, 11)]
    assert all(r["axis"] == "theta" for r in rows)


def test_sweep_rejects_unknown_axis_and_empty_values():
    config = ScenarioConfig(users=5, hosts=1)
    with pytest.raises(ValueError):
        sweep(config, "latency", [1])
    with pytest.raises(ValueError):
        sweep(config, "theta", [])


def test_empty_grids_are_config_errors():
    config = ScenarioConfig(users=5, hosts=1)
    for reps in (0, -1):
        with pytest.raises(ConfigError, match="reps must be at least 1"):
            sweep(config, "theta", [1], reps=reps)
        with pytest.raises(ConfigError, match="reps must be at least 1"):
            compare(config, ["mct"], [0.0], reps=reps)
    for schedulers, probabilities in (([], [0.0]), (["mct"], [])):
        with pytest.raises(ConfigError, match="requires a scheduler and a"):
            compare(config, schedulers, probabilities)


@pytest.mark.parametrize("grid", [
    lambda config: compare(config, ["mct", "bogus"], [0.0, 0.5]),
    lambda config: compare(config, ["mct"], [0.5, 2.0]),
    lambda config: sweep(config, "hosts", [1, 0]),
], ids=["unknown-scheduler", "probability-above-1", "hosts-0"])
def test_bad_grid_cell_fails_before_any_run(monkeypatch, grid):
    executions = count_calls(monkeypatch, harness, "_execute")
    with pytest.raises(ConfigError):
        grid(ScenarioConfig(users=5, hosts=1))
    assert executions == []


def test_hosts_axis_changes_world_size():
    config = ScenarioConfig(seed=10, users=20, hosts=2, arrival_window=(0, 10))
    rows = sweep(config, "hosts", [1, 3])
    assert rows[0]["vm_count"] < rows[1]["vm_count"]


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap `owner.name` so that each call appends its arguments to the list
    returned."""
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *a: calls.append(a) or original(*a))
    return calls


def test_compare_rows_equal_per_cell_runs(monkeypatch):
    """compare probes once per (scheduler, seed) and generates one world per
    seed; every row must still equal the row of its cell run on its own,
    which probes and generates for itself."""
    config = ScenarioConfig(seed=7, users=40, hosts=2, theta=2,
                            arrival_window=(0, 20), deadline=(300.0, 800.0))
    schedulers, probabilities = ["ara", "mct", "min_min"], [0.0, 0.5, 1.0]
    executions = count_calls(monkeypatch, harness, "_execute")
    generated = count_calls(monkeypatch, harness, "generate_scenario")
    rows = compare(config, schedulers, probabilities, reps=2)
    # 18 cells plus one probe per (scheduler, seed), not one per p > 0
    assert len(executions) == 18 + 3 * 2
    assert [cfg.seed for cfg, _ in generated] == [7, 8]
    monkeypatch.undo()
    expected = []
    for scheduler in sorted(schedulers):
        for p in probabilities:
            for seed in (7, 8):
                cfg = config.replaced(scheduler=scheduler, event_probability=p,
                                      seed=seed)
                expected.append(result_row(run_simulation(cfg),
                                           axis="probability", axis_value=p))
    assert csv_bytes(rows) == csv_bytes(expected)


def test_probability_sweep_rows_equal_per_cell_runs():
    config = ScenarioConfig(seed=3, users=40, hosts=2, scheduler="mct",
                            arrival_window=(0, 20), deadline=(300.0, 800.0))
    rows = sweep(config, "probability", [0.5, 1.0], reps=2)
    expected = [result_row(run_simulation(config.replaced(
                    event_probability=p, seed=seed)),
                    axis="probability", axis_value=p)
                for p in (0.5, 1.0) for seed in (3, 4)]
    assert csv_bytes(rows) == csv_bytes(expected)


@pytest.mark.parametrize("axis, values, scheduler, worlds", [
    ("theta", [1, 3], "ara", 2),      # the world does not change: one per seed
    ("hosts", [1, 2], "mct", 4),      # it does: one per (hosts, seed)
])
def test_sweep_rows_equal_per_cell_runs(monkeypatch, axis, values, scheduler,
                                        worlds):
    config = ScenarioConfig(seed=3, users=30, hosts=2, theta=2,
                            scheduler=scheduler, event_probability=0.6,
                            arrival_window=(0, 20), deadline=(300.0, 800.0))
    generated = count_calls(monkeypatch, harness, "generate_scenario")
    rows = sweep(config, axis, values, reps=2)
    assert len(generated) == worlds
    monkeypatch.undo()
    expected = [result_row(run_simulation(config.replaced(
                    **{axis: value, "seed": seed})),
                    axis=axis, axis_value=value)
                for value in values for seed in (3, 4)]
    assert csv_bytes(rows) == csv_bytes(expected)


def ground_truth(world) -> tuple:
    """Task fields, VM capacities and ledgers, deadlines and statuses."""
    return ([(t.task_id, t.workload, t.ram, t.storage, t.bandwidth)
             for req in world.users for t in req.tasks],
            [(vm.vm_id, vm.cpu, vm.ram, vm.storage, vm.bandwidth,
              vm.reservations) for vm in world.vms.values()],
            [(req.user_id, req.deadline, req.status) for req in world.users])


def test_compare_leaves_its_template_as_generated(monkeypatch):
    """At p=1 every user is inflated or cut and every VM degraded, under each
    scheduler; the runs write only their copies, so the grid's template
    still equals a freshly generated world."""
    config = ScenarioConfig(seed=4, users=30, hosts=2, theta=2,
                            arrival_window=(0, 20), deadline=(300.0, 800.0))
    made, runs = [], []
    make, execute = harness._Template, harness._execute
    monkeypatch.setattr(harness, "_Template",
                        lambda cfg: made.append(make(cfg)) or made[-1])
    monkeypatch.setattr(harness, "_execute",
                        lambda *a: runs.append(execute(*a)) or runs[-1])
    compare(config, list(SCHEDULERS), [1.0])
    fresh = generate_scenario(config, RngStreams(4).scenario)
    tasks, vms, users = ground_truth(fresh)

    cells = [r for r in runs if r.events]
    assert len(cells) == len(SCHEDULERS) and len(runs) == 2 * len(SCHEDULERS)
    for result in cells:
        assert len(result.events) == len(fresh.users) + len(fresh.vms)
        assert {type(e.mutation) for e in result.events} == \
            {TaskInflate, DeadlineCut, VmDegrade}
        run_tasks, run_vms, run_users = ground_truth(result.world)
        assert run_tasks != tasks and run_vms != vms and run_users != users
    (template,) = made
    assert ground_truth(template.world) == (tasks, vms, users)
    assert all(not vm.reservations for vm in template.world.vms.values())
    assert template.world == fresh
