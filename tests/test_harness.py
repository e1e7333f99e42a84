import json
import os
import signal
import threading
import time
from functools import partial

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


def test_explicit_horizon_matches_probe_path(monkeypatch):
    """At p > 0 a run executes its no-event twin, then itself; given the
    twin's makespan as its horizon, it executes itself alone, with the
    same events and metrics."""
    config = ScenarioConfig(seed=5, users=60, hosts=3, theta=3,
                            deadline=(400.0, 1000.0), event_probability=0.5)
    probe = run_simulation(config.replaced(event_probability=0.0))
    executions = count_calls(monkeypatch, harness, "_execute")
    auto = run_simulation(config)
    assert [cfg.event_probability for cfg, *_ in executions] == [0.0, 0.5]
    executions.clear()
    manual = run_simulation(config, horizon=probe.metrics.makespan)
    assert [cfg.event_probability for cfg, *_ in executions] == [0.5]
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


def cores(monkeypatch, n: int) -> None:
    """Make the grids see `n` usable cores, so that they run on `n`
    processes; with 1 they run in this one, where calls can be counted."""
    monkeypatch.setattr(harness, "usable_cores", lambda: n)


def test_compare_rows_equal_per_cell_runs(monkeypatch):
    """compare probes once per (scheduler, seed) and generates one world per
    seed; every row must still equal the row of its cell run on its own,
    which probes and generates for itself."""
    config = ScenarioConfig(seed=7, users=40, hosts=2, theta=2,
                            arrival_window=(0, 20), deadline=(300.0, 800.0))
    schedulers, probabilities = ["ara", "mct", "min_min"], [0.0, 0.5, 1.0]
    executions = count_calls(monkeypatch, harness, "_execute")
    generated = count_calls(monkeypatch, harness, "generate_scenario")
    cores(monkeypatch, 1)
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
    cores(monkeypatch, 1)
    rows = sweep(config, axis, values, reps=2)
    assert len(generated) == worlds
    monkeypatch.undo()
    expected = [result_row(run_simulation(config.replaced(
                    **{axis: value, "seed": seed})),
                    axis=axis, axis_value=value)
                for value in values for seed in (3, 4)]
    assert csv_bytes(rows) == csv_bytes(expected)


def forks(monkeypatch) -> list:
    """Count the processes forked from this one."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


def no_child_left() -> bool:
    """True when this process has no child, reaped or not."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


GRID = ScenarioConfig(seed=7, users=40, hosts=2, theta=2,
                      arrival_window=(0, 20), deadline=(300.0, 800.0))


def on_cores(monkeypatch, n: int, grid) -> list[dict]:
    """The rows of `grid()` run with `n` usable cores."""
    cores(monkeypatch, n)
    return grid()


def test_compare_rows_do_not_depend_on_cores(monkeypatch):
    grid = partial(compare, GRID, ["ara", "mct", "min_min"], [0.0, 0.5, 1.0],
                   reps=2)
    forked = forks(monkeypatch)
    assert csv_bytes(on_cores(monkeypatch, 2, grid)) == \
        csv_bytes(on_cores(monkeypatch, 1, grid))
    assert len(forked) == 1 and no_child_left()


@pytest.mark.parametrize("axis, values", [
    ("theta", [1, 3]), ("hosts", [1, 2]), ("probability", [0.0, 0.5, 1.0])])
def test_sweep_rows_do_not_depend_on_cores(monkeypatch, axis, values):
    grid = partial(sweep, GRID.replaced(scheduler="ara", event_probability=0.6),
                   axis, values, reps=2)
    forked = forks(monkeypatch)
    assert csv_bytes(on_cores(monkeypatch, 2, grid)) == \
        csv_bytes(on_cores(monkeypatch, 1, grid))
    assert len(forked) == 1 and no_child_left()


def test_five_processes_run_each_group_once(monkeypatch):
    """Five processes claim eight one-cell groups from one token: a group
    claimed twice or never would add or lose a row."""
    config = ScenarioConfig(seed=3, users=10, hosts=1, scheduler="mct",
                            arrival_window=(0, 5))
    grid = partial(sweep, config, "theta", list(range(1, 9)))
    forked = forks(monkeypatch)
    started = time.monotonic()
    rows = on_cores(monkeypatch, 5, grid)
    assert time.monotonic() - started < 60
    assert len(forked) == 4 and no_child_left()
    assert csv_bytes(rows) == csv_bytes(on_cores(monkeypatch, 1, grid))


def test_grid_with_other_threads_does_not_fork(monkeypatch):
    cores(monkeypatch, 2)
    forked = forks(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        rows = compare(GRID, ["mct", "met"], [0.0])
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive() and forked == []
    assert csv_bytes(rows) == csv_bytes(on_cores(
        monkeypatch, 1, partial(compare, GRID, ["mct", "met"], [0.0])))


def in_child_only(monkeypatch, tmp_path, child, parent=None):
    """Run the grids on two processes and patch `_execute`: in the forked
    one it marks `tmp_path` and calls `child()`; this process waits for the
    mark (so that the child has claimed a group), then calls `parent()` if
    given, else runs the cell."""
    cores(monkeypatch, 2)
    me, execute = os.getpid(), harness._execute
    mark = tmp_path / "child-ran"

    def patched(*args):
        if os.getpid() != me:
            mark.touch()
            child()
        deadline = time.monotonic() + 60
        while not mark.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        if parent is not None:
            parent()
        return execute(*args)
    monkeypatch.setattr(harness, "_execute", patched)
    return mark


def test_child_error_reaches_the_caller_naming_its_cell(monkeypatch, tmp_path):
    def boom():
        raise RuntimeError("boom in a child")
    mark = in_child_only(monkeypatch, tmp_path, boom)
    with pytest.raises(RuntimeError, match="boom in a child") as caught:
        compare(GRID, ["mct", "met"], [0.0])
    assert mark.exists()
    assert_from_child_cell(caught.value.__notes__, "boom")
    assert no_child_left()


def assert_from_child_cell(notes: list[str], function: str) -> None:
    """`notes` name the one cell a child ran, and hold the child's traceback
    down to the frame of `function`."""
    cell = [n for n in notes if n.startswith("in grid cell")]
    assert cell in (["in grid cell (scheduler mct, seed 7, probability 0.0)"],
                    ["in grid cell (scheduler met, seed 7, probability 0.0)"])
    traceback = [n for n in notes if n.startswith("traceback in the grid "
                                                  "worker process")]
    assert len(traceback) == 1
    assert f", in {function}\n" in traceback[0]
    assert ", in row\n" in traceback[0]         # the worker's own frame


class TwoPartError(Exception):
    """An error that a pickle cannot rebuild: its constructor takes two
    arguments, but it keeps one."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize("error", [
    lambda: TwoPartError("boom", "a child"),        # fails to unpickle
    lambda: RuntimeError("boom", lambda: None),     # fails to pickle
], ids=["not-rebuilt", "not-pickled"])
def test_child_error_that_cannot_be_pickled_reaches_the_caller(
        monkeypatch, tmp_path, error):
    def boom():
        raise error()
    in_child_only(monkeypatch, tmp_path, boom)
    with pytest.raises(RuntimeError, match="cannot be sent between "
                                           "processes") as caught:
        compare(GRID, ["mct", "met"], [0.0])
    assert repr(error()).split("(")[0] in str(caught.value)
    assert "boom" in str(caught.value)
    assert_from_child_cell(caught.value.__notes__, "boom")
    assert no_child_left()


def test_killed_child_is_named_with_its_signal(monkeypatch, tmp_path):
    in_child_only(monkeypatch, tmp_path,
                  lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(RuntimeError, match=r"grid worker process \d+ ended "
                       r"by signal 9 without sending its rows"):
        compare(GRID, ["mct", "met"], [0.0])
    assert no_child_left()


def test_interrupted_parent_kills_and_reaps_its_children(monkeypatch, tmp_path):
    def interrupt():
        raise KeyboardInterrupt
    in_child_only(monkeypatch, tmp_path, lambda: time.sleep(60), interrupt)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        compare(GRID, ["mct", "met"], [0.0])
    assert time.monotonic() - started < 30
    assert no_child_left()


def test_first_failing_group_raises_on_any_cores(monkeypatch):
    """Every group from the first one that raises on is skipped or fails,
    so the error is the one the serial loop meets first. The failing cells
    wait before they raise, so that both processes claim one."""
    execute = harness._execute

    def fails_from_seed_8(config, *rest):
        if config.seed >= 8:
            time.sleep(0.2)
            raise ConfigError(f"seed {config.seed} fails")
        return execute(config, *rest)
    monkeypatch.setattr(harness, "_execute", fails_from_seed_8)
    for n in (1, 2):
        cores(monkeypatch, n)
        with pytest.raises(ConfigError, match="seed 8 fails") as caught:
            sweep(GRID.replaced(scheduler="mct"), "theta", [1, 2], reps=3)
        assert "in grid cell (scheduler mct, seed 8, theta 1)" in \
            caught.value.__notes__
        assert no_child_left()


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
    cores(monkeypatch, 1)
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
