"""Tests of the benchmark's output checks: real outputs pass, and deliberately
broken copies of them fail the check meant to catch each fault.

  python3 -m pytest perfbench/test_checks.py
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
from cloudsched import cli, harness  # noqa: E402
from cloudsched.kernel import RngStreams  # noqa: E402
from cloudsched.scenario import ScenarioConfig, generate_scenario  # noqa: E402

CENTRAL = ("mct", "met", "min_min", "round_robin")


def run(**fields):
    config = ScenarioConfig(**dict(dict(seed=3, users=60, hosts=3), **fields))
    original = generate_scenario(config, RngStreams(config.seed).scenario)
    return original, harness.run_simulation(config)


@pytest.fixture(scope="module")
def plain():
    return {s: run(scheduler=s) for s in CENTRAL + ("ara",)}


@pytest.fixture(scope="module")
def uncertain():
    return run(users=80, deadline=(850.0, 2100.0), event_probability=0.8)


def world_faults(original, result):
    return checks.check_world(original, result, result.config.time_limit)


def all_faults(scheduler, original, result):
    found = world_faults(original, result)
    found += checks.check_no_event(original, result)
    found += checks.check_row(harness.result_row(result), original, result)
    if scheduler == "ara":
        found += checks.check_listeners(result.runtime)
    else:
        found += checks.check_replay(scheduler, original, result,
                                     result.config.minmin_interval)
    return found


def broken(pair):
    original, result = pair
    return original, copy.deepcopy(result)


def busy_vm(result, at_least=2):
    return next(vm for vm in result.world.vms.values()
                if len(vm.reservations) >= at_least)


def has(found, text):
    return any(text in line for line in found)


@pytest.mark.parametrize("scheduler", CENTRAL + ("ara",))
def test_real_no_event_outputs_pass(plain, scheduler):
    assert all_faults(scheduler, *plain[scheduler]) == []


def test_real_event_outputs_pass(uncertain):
    original, result = uncertain
    assert result.events
    assert world_faults(original, result) == []
    assert checks.check_listeners(result.runtime) == []


def test_min_min_replay_matches_naive_definition(plain):
    """The lazy heap gives the pairs a full rescan per commit gives."""
    original, result = plain["min_min"]
    vms = checks._vm_specs(original)
    interval = result.config.minmin_interval
    last_end = {vm[0]: 0.0 for vm in vms}
    want = {}
    groups = {}
    for u in sorted(original.users, key=lambda u: u.arrival):
        groups.setdefault((u.arrival // interval + 1) * interval, []).append(u)
    for tau, users in sorted(groups.items()):
        left = list(users)
        while left:
            options = []
            for u in left:
                need = (max(t.ram for t in u.tasks), max(t.storage for t in u.tasks),
                        max(t.bandwidth for t in u.tasks))
                work = sum(t.workload for t in u.tasks)
                for vm in vms:
                    if checks._fits(vm, need):
                        start = max(tau, last_end[vm[0]])
                        options.append((start + work / vm[1], u.user_id, vm[0],
                                        start, u))
            completion, user_id, vm_id, start, u = min(options, key=lambda o: o[:3])
            last_end[vm_id] = completion
            want[user_id] = (vm_id, start)
            left.remove(u)
    assert checks.replay_central("min_min", original, interval) == want


def test_overlapping_reservation_fails(plain):
    original, result = broken(plain["mct"])
    vm = busy_vm(result)
    first, second = sorted(vm.reservations, key=lambda r: r.start)[:2]
    second.start = (first.start + first.end) / 2
    assert has(world_faults(original, result), f"vm {vm.vm_id}")


def test_user_on_two_vms_at_once_fails(plain):
    original, result = broken(plain["round_robin"])
    held = next(r for vm in result.world.vms.values() for r in vm.reservations)
    other = next(vm for vm in result.world.vms.values() if vm.vm_id != held.vm_id)
    twin = copy.copy(held)
    twin.vm_id = other.vm_id
    other.reservations[:] = [twin]
    assert has(world_faults(original, result), f"user {held.user_id}")


def test_start_before_arrival_fails(plain):
    original, result = broken(plain["met"])
    res = busy_vm(result, 1).reservations[0]
    res.start = original.users[int(res.user_id[1:])].arrival - 5.0
    assert has(world_faults(original, result), "before arrival")


def test_flipped_success_flag_fails(plain):
    original, result = broken(plain["ara"])
    batch = next(iter(result.world.batches.values()))
    batch.successes[0] = not batch.successes[0]
    assert has(world_faults(original, result), "success flag")


def test_success_count_fails(plain):
    original, result = broken(plain["mct"])
    result.metrics.successful_tasks -= 1
    assert has(world_faults(original, result), "successful_tasks")


def test_flipped_success_under_deadline_cut_fails(uncertain):
    original, result = broken(uncertain)
    cuts = checks._deadline_cuts(result.events)
    judged = [(uid, i) for uid, (fire_at, _) in cuts.items()
              for i, f in enumerate(result.world.batches[uid].finishes)
              if f is not None and f > fire_at]
    assert judged, "no task finished after a deadline cut at this seed"
    uid, i = judged[0]
    batch = result.world.batches[uid]
    batch.successes[i] = not batch.successes[i]
    assert has(world_faults(original, result), "success flag")


def test_deadline_in_force():
    assert checks.deadline_in_force(1000.0, None, 5000.0) == 1000.0
    assert checks.deadline_in_force(1000.0, (100.0, 300.0), 50.0) == 1000.0
    assert checks.deadline_in_force(1000.0, (100.0, 300.0), 150.0) == 700.0
    assert checks.deadline_in_force(200.0, (100.0, 300.0), 150.0) == 100.0


def test_wrong_makespan_fails(plain):
    original, result = broken(plain["min_min"])
    result.metrics.makespan += 1.0
    assert has(world_faults(original, result), "makespan")


def test_unfinished_batch_and_time_limit_fail(plain):
    original, result = broken(plain["ara"])
    next(iter(result.world.batches.values())).request.status = "EXECUTING"
    result.final_time = result.config.time_limit
    found = world_faults(original, result)
    assert has(found, "batch ended EXECUTING") and has(found, "time_limit")


def test_task_count_fails(plain):
    original, result = broken(plain["met"])
    result.metrics.total_tasks += 1
    assert has(world_faults(original, result), "total_tasks")


def test_contract_timeline_fails(plain):
    original, result = broken(plain["mct"])
    res = busy_vm(result, 1).reservations[0]
    res.per_task_finish[0] += 1.0
    assert has(checks.check_no_event(original, result), "contract finish")


def test_batch_finish_off_contract_fails(plain):
    original, result = broken(plain["ara"])
    batch = next(iter(result.world.batches.values()))
    batch.finishes[-1] -= 1.0
    assert has(checks.check_no_event(original, result), "finished at")


def test_lost_work_fails(plain):
    original, result = broken(plain["round_robin"])
    res = busy_vm(result, 1).reservations[0]
    res.released_at = (res.start + res.end) / 2
    assert has(checks.check_no_event(original, result), "busy time x cpu")


def test_failed_task_without_events_fails(plain):
    original, result = broken(plain["ara"])
    result.metrics.successful_tasks -= 1
    assert has(checks.check_no_event(original, result), "did not succeed")


def test_makespan_below_lower_bound_fails(plain):
    original, result = broken(plain["mct"])
    result.metrics.makespan = 1.0
    assert has(checks.check_no_event(original, result), "lower bound")


@pytest.mark.parametrize("scheduler", CENTRAL)
def test_batch_on_a_worse_vm_fails_replay(plain, scheduler):
    original, result = broken(plain[scheduler])
    res = busy_vm(result, 1).reservations[0]
    other = next(vm for vm in result.world.vms.values() if vm.vm_id != res.vm_id)
    result.world.vms[res.vm_id].reservations.remove(res)
    res.vm_id = other.vm_id
    other.reservations.append(res)
    assert has(checks.check_replay(scheduler, original, result,
                                   result.config.minmin_interval),
               f"{res.user_id}: {scheduler} placed on {other.vm_id}")


def test_late_start_fails_replay(plain):
    original, result = broken(plain["min_min"])
    res = busy_vm(result, 1).reservations[-1]
    res.start += 3.0
    assert has(checks.check_replay("min_min", original, result,
                                   result.config.minmin_interval), res.user_id)


def test_unresolved_listener_fails(plain):
    _, result = broken(plain["ara"])
    result.runtime.listeners_registered += 1
    assert has(checks.check_listeners(result.runtime), "registered")


def test_row_that_disagrees_fails(plain):
    original, result = plain["mct"]
    row = harness.result_row(result)
    row["makespan"] = repr(float(row["makespan"]) * 1.01)
    assert has(checks.check_row(row, original, result), "row makespan")


@pytest.fixture(scope="module")
def trace_lines(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    config = tmp / "config.json"
    config.write_text(json.dumps(ScenarioConfig(seed=3, users=60, hosts=3).to_dict()))
    trace = tmp / "trace.jsonl"
    assert cli.main(["run", "--config", str(config), "--trace", str(trace),
                     "--out", str(tmp / "out.csv")]) == 0
    return trace.read_text().splitlines()


def test_real_trace_passes(trace_lines):
    found, records = checks.check_trace(trace_lines)
    assert found == [] and records == len(trace_lines) > 0


def test_round_that_did_not_choose_the_argmin_fails(trace_lines):
    lines = list(trace_lines)
    n = next(i for i, line in enumerate(lines)
             if json.loads(line)["kind"] == "round"
             and len(json.loads(line)["detail"]["proposals"]) > 1)
    rec = json.loads(lines[n])
    worst = max(rec["detail"]["proposals"], key=lambda p: (p[1], p[0]))
    rec["detail"]["chosen"] = worst[0]
    lines[n] = json.dumps(rec)
    assert has(checks.check_trace(lines)[0], "round chose")


def test_double_busy_lease_fails(trace_lines):
    lines = list(trace_lines)
    n = next(i for i, line in enumerate(lines)
             if json.loads(line)["kind"] == "lease"
             and json.loads(line)["detail"]["state"] == "BUSY")
    rec = json.loads(lines[n])
    rec["detail"]["conversation"] = "intruder"
    lines.insert(n + 1, json.dumps(rec))
    assert has(checks.check_trace(lines)[0], "while held by")


def test_unparsable_and_backward_records_fail(trace_lines):
    lines = list(trace_lines)
    late = json.loads(lines[-1])
    late["t"] = -1.0
    lines += ["{not json", json.dumps(late)]
    found = checks.check_trace(lines)[0]
    assert has(found, "not a trace record") and has(found, "before previous")


def test_cell_that_raises_fails_with_its_error(monkeypatch):
    import workloads

    def raising(config):
        raise RuntimeError("scheduling in the past")
    monkeypatch.setattr(harness, "run_simulation", raising)
    config = ScenarioConfig(seed=3, users=5, hosts=2, scheduler="mct")
    row, found = workloads._checked(config, lambda result, row: [])
    assert row["scheduler"] == "mct"
    assert found == ["raised RuntimeError: scheduling in the past"]


def test_tally_fails_every_cell_of_an_unchecked_or_changed_round():
    from run import Tally
    tally = Tally(2)
    tally.first(None)
    tally.later([{"a": "1"}, {"a": "2"}])
    assert (tally.attempted, tally.failed) == (4, 4)
    tally = Tally(2)
    tally.first(([{"a": "1"}, {"a": "2"}], [[], ["late start"]]))
    tally.later([{"a": "1"}, {"a": "2"}])
    tally.later([{"a": "9"}, {"a": "2"}])
    assert (tally.attempted, tally.failed) == (6, 4)


def test_wall_time_is_the_fastest_round_at_reference_speed():
    import hostspeed
    from run import wall_at_reference_speed
    ref = hostspeed.REFERENCE_S
    # the second round ran on a host twice as slow: same work at reference speed
    rounds = [([3.0, 3.0], [ref, ref]), ([6.0, 6.0], [2 * ref, 2 * ref]),
              ([9.0, 9.0], [ref, ref])]
    assert wall_at_reference_speed(rounds) == pytest.approx(6.0)
