import math
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudsched import model
from cloudsched.agents import WAKE_PASSES, ReplacementOffer, UserAgent
from cloudsched.bdi import PROPOSE, AgentMessage
from cloudsched.harness import run_simulation
from cloudsched.kernel import Kernel, RngStream
from cloudsched.model import BatchState, RequestStatus
from cloudsched.rescheduling import (DEADLINE_CUT_RANGE, TASK_FIELDS,
                                     TASK_INFLATE_RANGE, VM_DEGRADE_RANGE,
                                     VM_FIELDS, DeadlineCut, TaskInflate,
                                     UncertainEvent, VmDegrade, apply_event,
                                     apply_user_event, apply_vm_degrade,
                                     contract_holds, draw_events,
                                     generate_events, select_events,
                                     validate_contract)
from cloudsched.tracelog import TraceLog
from cloudsched.scenario import ScenarioConfig

from conftest import (assert_no_overlap, make_request, make_vm, make_world,
                      requirements)
from oracles import reference_remaining_requirements
from test_ara import build_sim


def inflate_event(target, factor=1.5, fire_at=0.0, event_id=0):
    return UncertainEvent(event_id, fire_at, "user", target, TaskInflate(
        {f: factor for f in ("workload", "ram", "storage", "bandwidth")}))


def cut_event(target, delta, fire_at=0.0, event_id=0):
    return UncertainEvent(event_id, fire_at, "user", target, DeadlineCut(delta))


def degrade_event(target, factor=0.5, fire_at=0.0, event_id=0):
    return UncertainEvent(event_id, fire_at, "vm", target, VmDegrade(
        {f: factor for f in ("cpu", "ram", "storage", "bandwidth")}))


def contracted_batch(vm, workloads=(10000.0,), deadline=math.inf, start=0.0,
                     user="u00000"):
    req = make_request(user, workloads=workloads, deadline=deadline)
    batch = BatchState(req)
    batch.reservation = model.reserve(vm, requirements(req), start)
    return batch


class TestGenerateEvents:
    def _population(self, users=20, vms=10):
        reqs = [make_request(f"u{i:05d}") for i in range(users)]
        machines = [make_vm(f"h000v{i:02d}") for i in range(vms)]
        return reqs, machines

    def test_p_zero_empty(self):
        reqs, machines = self._population()
        assert generate_events(reqs, machines, 0.0, RngStream(1, "events"),
                               100.0) == []

    def test_p_one_exactly_one_event_per_target(self):
        reqs, machines = self._population()
        events = generate_events(reqs, machines, 1.0, RngStream(1, "events"),
                                 100.0)
        users_hit = [e.target_id for e in events if e.target_kind == "user"]
        vms_hit = [e.target_id for e in events if e.target_kind == "vm"]
        assert sorted(users_hit) == sorted(r.user_id for r in reqs)
        assert sorted(vms_hit) == sorted(vm.vm_id for vm in machines)
        assert len(set(users_hit)) == len(users_hit)
        assert len(set(vms_hit)) == len(vms_hit)
        for event in events:
            assert 0.0 <= event.fire_at <= 100.0
            if isinstance(event.mutation, TaskInflate):
                assert all(1.10 <= f <= 1.50
                           for f in event.mutation.factors.values())
            elif isinstance(event.mutation, DeadlineCut):
                assert 100.0 <= event.mutation.delta <= 1000.0
            else:
                assert all(0.50 <= f <= 0.90
                           for f in event.mutation.factors.values())

    def test_selected_count_binomial(self):
        # fixed seeds make this deterministic; all 30 counts sit within
        # 3 sigma of n*p for Binomial(10000, 0.5)
        n, p = 10000, 0.5
        sigma = (n * p * (1 - p)) ** 0.5
        reqs = [make_request(f"u{i:05d}") for i in range(n)]
        for seed in range(30):
            events = generate_events(reqs, [], p, RngStream(seed, "events"),
                                     100.0)
            assert abs(len(events) - n * p) <= 3 * sigma

    def test_round_trip_serialization(self):
        reqs, machines = self._population(5, 3)
        events = generate_events(reqs, machines, 1.0, RngStream(9, "events"),
                                 50.0)
        back = [UncertainEvent.from_json(e.to_json()) for e in events]
        assert back == events


def one_pass_events(users, vms, probability, rng, horizon):
    """The event generator as one loop that draws and selects together, as
    it was before the draws were split from the selection."""
    events = []
    next_id = 0
    for req in users:
        selected = rng.random() < probability
        fire_at = rng.uniform(0.0, horizon)
        inflate = rng.random() < 0.5
        factors = {f: rng.uniform(*TASK_INFLATE_RANGE) for f in TASK_FIELDS}
        delta = rng.uniform(*DEADLINE_CUT_RANGE)
        if selected:
            mutation = TaskInflate(factors) if inflate else DeadlineCut(delta)
            events.append(UncertainEvent(next_id, fire_at, "user",
                                         req.user_id, mutation))
            next_id += 1
    for vm in vms:
        selected = rng.random() < probability
        fire_at = rng.uniform(0.0, horizon)
        factors = {f: rng.uniform(*VM_DEGRADE_RANGE) for f in VM_FIELDS}
        if selected:
            events.append(UncertainEvent(next_id, fire_at, "vm", vm.vm_id,
                                         VmDegrade(factors)))
            next_id += 1
    events.sort(key=lambda e: (e.fire_at, e.event_id))
    return events


@given(seed=st.integers(0, 2**32), users=st.integers(0, 12),
       vms=st.integers(0, 6),
       cells=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                                          st.just(1.0)),
                                st.floats(1e-3, 1e7)),
                      min_size=1, max_size=4))
def test_split_draws_match_one_pass_generation(seed, users, vms, cells):
    """One set of draws, selected for several (probability, horizon) cells,
    gives each cell bit for bit the events of a fresh one-pass draw."""
    reqs = [make_request(f"u{i:05d}") for i in range(users)]
    machines = [make_vm(f"h000v{i:02d}") for i in range(vms)]
    draws = draw_events(reqs, machines, RngStream(seed, "events"))
    for p, horizon in cells:
        expected = one_pass_events(reqs, machines, p, RngStream(seed, "events"),
                                   horizon)
        assert select_events(draws, p, horizon) == expected
        assert generate_events(reqs, machines, p, RngStream(seed, "events"),
                               horizon) == expected


class TestApplyEvent:
    def test_task_inflate_upper_bound(self):
        vm = make_vm(cpu=1000.0)
        batch = contracted_batch(vm, workloads=(10000.0,))
        assert apply_user_event(batch, vm, inflate_event("u00000"), 0.0)
        assert batch.request.tasks[0].workload == pytest.approx(15000.0)

    def test_deadline_cut(self):
        vm = make_vm()
        batch = contracted_batch(vm, deadline=2000.0)
        apply_user_event(batch, vm, cut_event("u00000", 1000.0), 0.0)
        assert batch.request.deadline == pytest.approx(1000.0)

    def test_deadline_cut_floored_at_now(self):
        vm = make_vm(cpu=1000.0)
        batch = contracted_batch(vm, workloads=(50000.0,), deadline=100.0)
        apply_user_event(batch, vm, cut_event("u00000", 500.0, fire_at=30.0), 30.0)
        assert batch.request.deadline == pytest.approx(30.0)

    def test_vacuous_on_terminal_batch(self):
        vm = make_vm(cpu=1000.0)
        batch = contracted_batch(vm, workloads=(10000.0,))
        model.checkpoint(batch, vm, 10.0)
        assert batch.request.status is RequestStatus.COMPLETED
        assert apply_user_event(batch, vm, inflate_event("u00000"), 10.0) is False

    def test_completed_tasks_not_inflated(self):
        vm = make_vm(cpu=1000.0)
        batch = contracted_batch(vm, workloads=(10000.0, 10000.0))
        apply_user_event(batch, vm, inflate_event("u00000", 1.2, fire_at=10.0),
                         10.0)
        assert batch.request.tasks[0].workload == pytest.approx(10000.0)
        assert batch.request.tasks[1].workload == pytest.approx(12000.0)

    def test_vm_degrade_recomputes_timelines(self):
        vm = make_vm(cpu=2000.0)
        first = contracted_batch(vm, workloads=(20000.0,), user="u00000")   # [0,10]
        second = contracted_batch(vm, workloads=(20000.0,), user="u00001",
                                  start=10.0)                               # [10,20]
        batches = {"u00000": first, "u00001": second}
        affected = apply_vm_degrade(vm, degrade_event(vm.vm_id, 0.5, fire_at=5.0),
                                    batches, 5.0)
        assert vm.cpu == pytest.approx(1000.0)
        assert [b.request.user_id for b in affected] == ["u00000", "u00001"]
        # first executed 10000 MI by t=5; remaining 10000 MI at 1000 MIPS
        assert first.reservation.end == pytest.approx(15.0)
        # second shifts behind the stretched first and runs at half speed
        assert second.reservation.start == pytest.approx(15.0)
        assert second.reservation.end == pytest.approx(35.0)
        assert_no_overlap(vm)


class TestValidateContract:
    def test_untouched_contract_valid(self):
        vm = make_vm(cpu=1000.0)
        batch = contracted_batch(vm, deadline=100.0)
        assert validate_contract(batch, vm, 0.0) is True

    def test_deadline_cut_below_end_invalidates(self):
        vm = make_vm(cpu=1000.0)
        batch = contracted_batch(vm, workloads=(50000.0,), deadline=100.0)
        apply_user_event(batch, vm, cut_event("u00000", 60.0), 0.0)
        assert validate_contract(batch, vm, 0.0) is False

    def test_inflation_breaks_slot_fit(self):
        vm = make_vm(cpu=1000.0)
        batch = contracted_batch(vm, workloads=(10000.0,), deadline=1000.0)
        apply_user_event(batch, vm, inflate_event("u00000", 1.2), 0.0)
        assert validate_contract(batch, vm, 0.0) is False

    def test_degrade_with_slack_stays_valid(self):
        vm = make_vm(cpu=1000.0)
        batch = contracted_batch(vm, workloads=(10000.0,), deadline=1000.0)
        apply_vm_degrade(vm, degrade_event(vm.vm_id, 0.5), {"u00000": batch}, 0.0)
        assert validate_contract(batch, vm, 0.0) is True


class TestContractHolds:
    """`contract_holds`: the batch checkpointed to now, then True when that
    finished it or its contract still delivers. One VM of cpu 1000."""

    def test_true_when_the_checkpoint_finishes_the_batch(self):
        # the cut at 2 leaves the written end (10) past the deadline (5), but
        # by 10 the batch has run to its end
        vm = make_vm(cpu=1000.0)
        batch = contracted_batch(vm, deadline=100.0)
        apply_user_event(batch, vm, cut_event("u00000", 95.0), 2.0)
        assert not validate_contract(batch, vm, 10.0)
        assert contract_holds(batch, vm, 10.0) is True
        assert batch.request.status is RequestStatus.COMPLETED
        assert batch.successes == [False]

    def test_true_for_a_valid_contract(self):
        vm = make_vm(cpu=1000.0)
        batch = contracted_batch(vm, workloads=(10000.0, 10000.0),
                                 deadline=100.0)
        assert contract_holds(batch, vm, 15.0) is True
        assert batch.incomplete_indices() == [1]
        assert batch.remaining[1] == pytest.approx(5000.0)

    def test_false_for_a_broken_contract(self):
        # inflated x1.2 at 5: 18000 MI left for the 15 s to the written end
        vm = make_vm(cpu=1000.0)
        batch = contracted_batch(vm, workloads=(10000.0, 10000.0),
                                 deadline=100.0)
        apply_user_event(batch, vm, inflate_event("u00000", 1.2), 5.0)
        assert contract_holds(batch, vm, 8.0) is False
        assert batch.remaining[0] == pytest.approx(3000.0)   # checkpointed to 8


class TestApplyEventStep:
    """`apply_event`, the one event step both drivers call: apply, record, re-arm, and
    return the broken contracts."""

    def _bound(self, world, kernel, on_end, user, start):
        batch = world.batches[user]
        vm = world.vms["h000v00"]
        model.bind(batch, model.reserve(vm, batch.remaining_requirements(),
                                        start), kernel, on_end)
        return batch

    def _run(self, event, world, kernel, on_end, trace):
        out = []
        kernel.schedule(event.fire_at, lambda: out.extend(apply_event(
            event, world, kernel, on_end, trace, "who")))
        kernel.run_until_quiescent()
        return out

    def test_user_event_returns_its_broken_batch(self):
        world = make_world([("h000", [make_vm(cpu=1000.0)])],
                           [make_request(workloads=(10000.0,), deadline=100.0)])
        kernel, trace, ends = Kernel(), TraceLog(), []
        on_end = lambda b: ends.append((kernel.now, b.request.user_id))
        batch = self._bound(world, kernel, on_end, "u00000", 0.0)
        broken = self._run(inflate_event("u00000", 1.2, fire_at=5.0), world,
                           kernel, on_end, trace)
        assert broken == [batch]
        assert ends == [(10.0, "u00000")]    # a user event re-arms nothing
        assert [(r["t"], r["agent"], r["kind"], r["detail"])
                for r in trace.records] == [
            (5.0, "who", "event", {"event": 0, "target": "u00000",
                                   "mutation": "TaskInflate",
                                   "vacuous": False})]

    def test_vm_event_rearms_in_ledger_order_returns_by_user_id(self):
        # u00001 runs [0,10], then u00000 [10,20]; halving the cpu at t=5
        # stretches them to [0,15] (deadline 12) and [15,35] (deadline 30)
        world = make_world(
            [("h000", [make_vm(cpu=2000.0)])],
            [make_request("u00000", workloads=(20000.0,), deadline=30.0),
             make_request("u00001", workloads=(20000.0,), deadline=12.0)])
        kernel, trace, ends = Kernel(), TraceLog(), []
        on_end = lambda b: ends.append((kernel.now, b.request.user_id))
        second = self._bound(world, kernel, on_end, "u00001", 0.0)
        first = self._bound(world, kernel, on_end, "u00000", 10.0)
        broken = self._run(degrade_event("h000v00", 0.5, fire_at=5.0), world,
                           kernel, on_end, trace)
        assert broken == [first, second]
        assert ends == [(pytest.approx(15.0), "u00001"),
                        (pytest.approx(35.0), "u00000")]
        assert [(r["t"], r["agent"], r["kind"], r["detail"])
                for r in trace.records] == [
            (5.0, "who", "event", {"event": 0, "target": "h000v00",
                                   "mutation": "VmDegrade", "affected": 2})]


class TestRequirementsView:
    """remaining_requirements() is cached on the batch; every writer of what
    it reads must reset the cache."""

    def test_view_follows_every_writer(self):
        vm = make_vm(cpu=1000.0)
        batch = contracted_batch(
            vm, workloads=(10000.0, 20000.0, 10000.0), deadline=500.0)
        batch.request.tasks[2].ram = 1100.0

        def check():
            assert batch.remaining_requirements() == \
                reference_remaining_requirements(batch)

        check()
        model.checkpoint(batch, vm, 15.0)                   # partial
        check()
        apply_user_event(batch, vm, inflate_event("u00000", 1.2), 15.0)
        check()
        apply_user_event(batch, vm, cut_event("u00000", 100.0), 16.0)
        check()
        model.release_remainder(batch, vm, 20.0)
        check()
        batch.reservation = model.reserve(vm, batch.remaining_requirements(), 20.0)
        model.checkpoint(batch, vm, 100.0)                  # completing
        assert batch.request.status is RequestStatus.COMPLETED
        check()
        assert batch.remaining_requirements().task_indices == ()

    @pytest.mark.parametrize("scheduler", ["ara", "mct", "min_min"])
    def test_every_call_during_a_run_matches_scratch(self, scheduler):
        cached = BatchState.remaining_requirements
        calls = []

        def checked(batch):
            got = cached(batch)
            assert got == reference_remaining_requirements(batch), \
                batch.request.user_id
            calls.append(1)
            return got

        config = ScenarioConfig(seed=5, users=120, hosts=3, scheduler=scheduler,
                                event_probability=0.7,
                                deadline=(200.0, 1200.0))
        BatchState.remaining_requirements = checked
        try:
            result = run_simulation(config)
        finally:
            BatchState.remaining_requirements = cached
        assert calls
        mutations = {type(e.mutation) for e in result.events}
        assert {TaskInflate, DeadlineCut, VmDegrade} <= mutations


class TestLadder:
    """The user agent's reschedule ladder as plain state: a rung index over
    i1/i2/i3. Plans are started but never answered (the kernel does not
    run); each test reports outcomes by hand."""

    def _agent(self):
        world = make_world(
            [("h000", [make_vm("h000v00", "h000", cpu=1000.0)])],
            [make_request(workloads=(10000.0,), deadline=100.0)])
        kernel, runtime, sa, hosts, users = build_sim(world, theta=1)
        assert hosts["h000"].commit_contract("u00000", "h000v00") is not None
        batch = world.batches["u00000"]
        batch.request.deadline = 5.0    # the contract ends at 10: invalid
        batch.view = None
        return users["u00000"], runtime

    def _attempts(self, runtime):
        return [(r["detail"]["pass_index"], r["detail"]["intention"])
                for r in runtime.trace.records if r["kind"] == "cycle_attempt"]

    def test_failed_rung_advances_to_the_next(self):
        agent, runtime = self._agent()
        agent._begin_cycle(0)
        assert self._attempts(runtime) == [(0, "i1")]
        agent._intention_done(False)
        agent._intention_done(False)
        assert self._attempts(runtime) == [(0, "i1"), (0, "i2"), (0, "i3")]
        assert agent._rung == 2
        assert agent._cycle.attempts == 3

    def test_exhausted_pass_wraps_to_i1_and_counts_passes(self):
        agent, runtime = self._agent()
        agent._begin_cycle(0)
        for _ in range(3):
            agent._intention_done(False)
        assert agent._cycle.passes == 1
        assert agent._rung == 0
        assert agent._next is not None   # the one pending step: the next pass
        agent._resume()                  # its entry fires
        assert self._attempts(runtime)[-1] == (1, "i1")

    def test_begin_cycle_restarts_at_i1(self):
        agent, runtime = self._agent()
        agent._begin_cycle(0)
        agent._intention_done(False)
        agent._intention_done(False)
        agent._end_cycle(False)
        agent._begin_cycle(1)
        assert self._attempts(runtime)[-1] == (0, "i1")
        assert agent._rung == 0
        assert agent._cycle.triggering_event == 1



class TestIntentions:
    """Scripted single-event scenarios driving the user agent's cycle."""

    def _attempts(self, runtime, user="user:u00000"):
        return [r["detail"]["intention"] for r in runtime.trace.records
                if r["kind"] == "cycle_attempt" and r["agent"] == user]

    def _run(self, world, events, theta=2, **kw):
        kernel, runtime, sa, hosts, users = build_sim(world, theta=theta, **kw)
        for event in events:
            if event.target_kind == "user":
                agent = users[event.target_id]
                kernel.schedule(event.fire_at,
                                lambda e=event, a=agent: a.on_user_event(e))
            else:
                agent = hosts[world.vms[event.target_id].host_id]
                kernel.schedule(event.fire_at,
                                lambda e=event, a=agent: a.on_vm_event(e))
        kernel.run_until_quiescent()
        return kernel, runtime

    def test_i1_resolves_inflation_on_same_vm(self):
        world = make_world(
            [("h000", [make_vm("h000v00", "h000", cpu=1000.0)])],
            [make_request(workloads=(20000.0,), deadline=200.0)])
        kernel, runtime = self._run(world, [inflate_event("u00000",
                                                          fire_at=5.0)])
        batch = world.batches["u00000"]
        assert batch.request.status is RequestStatus.COMPLETED
        assert self._attempts(runtime) == ["i1"]
        assert batch.reservation.vm_id == "h000v00"
        # inflated remainder pushed the end out but within the deadline
        assert batch.finishes[0] > 20.0
        assert batch.successes == [True]

    def test_i2_rescues_on_sibling_when_deadline_cut(self):
        # after the cut the slow VM cannot re-fit the batch, the fast sibling can
        world = make_world(
            [("h000", [make_vm("h000v00", "h000", cpu=600.0),
                       make_vm("h000v01", "h000", cpu=2500.0)])],
            [make_request(workloads=(60000.0,), deadline=1000.0)])
        kernel, runtime = self._run(world, [cut_event("u00000", 950.0,
                                                      fire_at=2.0)],
                                    theta=1)
        batch = world.batches["u00000"]
        assert batch.request.status is RequestStatus.COMPLETED
        assert self._attempts(runtime) == ["i1", "i2"]
        assert batch.reservation.vm_id == "h000v01"
        assert batch.successes == [True]

    def test_i3_goes_global_when_host_exhausted(self):
        world = make_world(
            [("h000", [make_vm("h000v00", "h000", cpu=600.0)]),
             ("h001", [make_vm("h001v00", "h001", cpu=2500.0)])],
            [make_request(workloads=(60000.0,), deadline=1000.0)])
        kernel, runtime = self._run(world, [cut_event("u00000", 950.0,
                                                      fire_at=2.0)],
                                    theta=1)
        batch = world.batches["u00000"]
        assert batch.request.status is RequestStatus.COMPLETED
        assert self._attempts(runtime) == ["i1", "i2", "i3"]
        assert batch.reservation.vm_id == "h001v00"

    def test_deadline_elapse_fails_batch(self):
        world = make_world(
            [("h000", [make_vm("h000v00", "h000", cpu=500.0)])],
            [make_request(workloads=(50000.0,), deadline=150.0)])
        kernel, runtime = self._run(world, [cut_event("u00000", 140.0,
                                                      fire_at=5.0)])
        batch = world.batches["u00000"]
        assert batch.request.status is RequestStatus.FAILED
        assert batch.successes == [False]
        failed = [r for r in runtime.trace.records if r["kind"] == "failed"]
        assert failed

    def test_locality_order_within_each_pass(self):
        world = make_world(
            [("h000", [make_vm("h000v00", "h000", cpu=500.0)])],
            [make_request(workloads=(50000.0,), deadline=400.0)])
        kernel, runtime = self._run(world, [cut_event("u00000", 390.0,
                                                      fire_at=5.0)])
        order = {"i1": 0, "i2": 1, "i3": 2}
        passes = {}
        for record in runtime.trace.records:
            if record["kind"] != "cycle_attempt":
                continue
            key = (record["agent"], record["detail"]["pass_index"])
            rank = order[record["detail"]["intention"]]
            assert rank >= passes.get(key, -1), "locality order violated"
            passes[key] = rank

    def test_two_affected_users_processed_in_user_id_order(self):
        # the degrade stretches u00000 to ~19 (deadline 18) and pushes u00001
        # to ~39 (deadline 25): both contracts break and the host must rescue
        # them onto distinct siblings in user-id order
        world = make_world(
            [("h000", [make_vm("h000v00", "h000", cpu=2000.0),
                       make_vm("h000v01", "h000", cpu=1500.0),
                       make_vm("h000v02", "h000", cpu=1500.0)])],
            [make_request("u00000", workloads=(20000.0,), deadline=18.0),
             make_request("u00001", workloads=(20000.0,), deadline=25.0)])
        kernel, runtime, sa, hosts, users = build_sim(world, theta=1)
        batches = world.batches
        # both batches contracted back-to-back on the same VM
        host = hosts["h000"]
        assert host.commit_contract("u00000", "h000v00") is not None
        assert host.commit_contract("u00001", "h000v00") is not None
        event = degrade_event("h000v00", 0.5, fire_at=1.0)
        kernel.schedule(1.0, lambda: host.on_vm_event(event))
        kernel.run_until_quiescent()
        offers = [r for r in runtime.trace.records if r["kind"] == "rescue_offer"]
        assert [o["detail"]["user"] for o in offers] == ["u00000", "u00001"]
        assert offers[0]["t"] < offers[1]["t"]
        for vm in world.vms.values():
            assert_no_overlap(vm)
        assert batches["u00000"].request.status is RequestStatus.COMPLETED
        assert batches["u00001"].request.status is RequestStatus.COMPLETED
        # the two rescues landed on distinct siblings (no double booking)
        vms_used = {batches["u00000"].reservation.vm_id,
                    batches["u00001"].reservation.vm_id}
        assert vms_used == {"h000v01", "h000v02"}

    def _rescue_world(self, deadlines, cpus):
        """u0000k (20000 MI each) contracted back to back on h000v00, on one
        host whose VM h000v0j has cpu `cpus[j]`."""
        world = make_world(
            [("h000", [make_vm(f"h000v{j:02d}", "h000", cpu=cpu)
                       for j, cpu in enumerate(cpus)])],
            [make_request(f"u{k:05d}", workloads=(20000.0,), deadline=d)
             for k, d in enumerate(deadlines)])
        kernel, runtime, sa, hosts, users = build_sim(world, theta=1)
        host = hosts["h000"]
        for k in range(len(deadlines)):
            assert host.commit_contract(f"u{k:05d}", "h000v00") is not None
        return world, kernel, runtime, host

    def _records(self, runtime, kind, agent=None):
        return [r for r in runtime.trace.records if r["kind"] == kind
                and (agent is None or r["agent"] == agent)]

    def test_declined_rescue_commit_starts_the_cycle_of_the_offer(self):
        # halving h000v00 at t=1 stretches u00000 to ~39 (deadline 25); the
        # host offers h000v01 (completion ~20), but h000v01 is halved too
        # while the user's ACCEPT is on the wire, so the commit's re-quote
        # (~39) declines and the user starts its own cycle for event 7
        world, kernel, runtime, host = self._rescue_world([25.0],
                                                          [1000.0, 1000.0])
        first = degrade_event("h000v00", 0.5, fire_at=1.0, event_id=7)
        second = degrade_event("h000v01", 0.5, fire_at=1.015, event_id=8)
        for event in (first, second):
            kernel.schedule(event.fire_at, lambda e=event: host.on_vm_event(e))
        kernel.run_until_quiescent()
        (offer,) = self._records(runtime, "rescue_offer")
        assert offer["detail"] == {"user": "u00000", "vm": "h000v01", "event": 7}
        starts = self._records(runtime, "cycle_start", "user:u00000")
        assert starts[0]["detail"] == {"event": 7}
        assert starts[0]["t"] == pytest.approx(1.03)
        assert [c["t"] for c in self._records(runtime, "contract")
                if c["t"] < starts[0]["t"]] == [0.0]
        for vm in world.vms.values():
            assert_no_overlap(vm)

    def test_unanswered_rescue_offer_times_out_and_serves_the_next(self):
        # halving h000v00 at t=1 breaks both contracts (ends ~19 and ~39
        # against deadlines 18 and 25); the offer to u00000 is lost, so the
        # host's listener expires, tells u00000 its rescue failed, and only
        # then offers u00001 a sibling
        world, kernel, runtime, host = self._rescue_world(
            [18.0, 25.0], [2000.0, 1500.0, 1500.0])
        runtime.drop_filter = lambda m: isinstance(m.body, ReplacementOffer) \
            and m.to.name == "u00000"
        event = degrade_event("h000v00", 0.5, fire_at=1.0, event_id=3)
        kernel.schedule(1.0, lambda: host.on_vm_event(event))
        kernel.run_until_quiescent()
        offers = self._records(runtime, "rescue_offer")
        assert [(o["t"], o["detail"]["user"]) for o in offers[:2]] == \
            [(1.0, "u00000"), (pytest.approx(2.0), "u00001")]
        (timeout,) = self._records(runtime, "listener_timeout", "host:h000")
        assert timeout["t"] == pytest.approx(2.0)
        starts = self._records(runtime, "cycle_start", "user:u00000")
        assert starts[0]["detail"] == {"event": 3}
        assert starts[0]["t"] == pytest.approx(2.01)
        assert not self._records(runtime, "cycle_start", "user:u00001")
        assert world.batches["u00001"].request.status is RequestStatus.COMPLETED
        for vm in world.vms.values():
            assert_no_overlap(vm)

    def _rescue_during_cycle(self, busy_siblings):
        """A cut at t=2 breaks u00000's contract on h000v00: i1 is declined,
        and i2's quote request leaves at 2.02. A degrade of h000v00 at 2.005
        has the host rescue the batch onto h000v01; the user accepts the
        offer at 2.015, and its commit ends the cycle at 2.035, before i2's
        proposal (h000v02) lands at 2.04, which must not be accepted. With
        `busy_siblings`, u00001 and u00002 hold h000v01 and h000v02."""
        others = [make_request("u00001", workloads=(25000.0,)),
                  make_request("u00002", workloads=(30000.0,))]
        world = make_world(
            [("h000", [make_vm("h000v00", "h000", cpu=600.0),
                       make_vm("h000v01", "h000", cpu=2500.0),
                       make_vm("h000v02", "h000", cpu=2500.0)])],
            [make_request("u00000", workloads=(60000.0,), deadline=1000.0)]
            + (others if busy_siblings else []))
        kernel, runtime, sa, hosts, users = build_sim(world, theta=1)
        host, user = hosts["h000"], users["u00000"]
        contracts = [("u00000", "h000v00")]
        if busy_siblings:
            contracts += [("u00001", "h000v01"), ("u00002", "h000v02")]
        for user_id, vm_id in contracts:
            assert host.commit_contract(user_id, vm_id) is not None
        cut = cut_event("u00000", 950.0, fire_at=2.0, event_id=1)
        degrade = degrade_event("h000v00", 0.9, fire_at=2.005, event_id=2)
        kernel.schedule(2.0, lambda: user.on_user_event(cut))
        kernel.schedule(2.005, lambda: host.on_vm_event(degrade))
        kernel.run_until_quiescent()
        assert self._attempts(runtime) == ["i1", "i2"]
        (end,) = self._records(runtime, "cycle_end", "user:u00000")
        assert end["detail"]["resolved"] is True
        assert end["t"] == pytest.approx(2.035)
        proposals = [r for r in self._records(runtime, "deliver", "user:u00000")
                     if r["detail"]["performative"] == "PROPOSE"]
        assert proposals[-1]["t"] == pytest.approx(2.04)
        accepts = [r for r in self._records(runtime, "send", "user:u00000")
                   if r["detail"]["performative"] == "ACCEPT"]
        assert [a["t"] for a in accepts] == [pytest.approx(2.015)]
        batch = world.batches["u00000"]
        assert batch.reservation.vm_id == "h000v01"
        assert batch.request.status is RequestStatus.COMPLETED
        for vm in world.vms.values():
            assert_no_overlap(vm)
        return world

    def test_direct_proposal_after_rescue_resolved_the_cycle_is_not_accepted(self):
        # the rescue slot on h000v01 waits behind u00001, so it has not
        # started when the user checks it
        world = self._rescue_during_cycle(busy_siblings=True)
        assert [r.user_id for r in world.vms["h000v02"].reservations] == \
            ["u00002"]

    def test_rescue_onto_an_idle_sibling_ends_the_running_cycle(self):
        # the rescue slot on h000v01 starts at its commit (2.025), so when
        # the user hears of it (2.035) the contract holds only for the batch
        # checkpointed to 2.035
        world = self._rescue_during_cycle(busy_siblings=False)
        assert world.batches["u00000"].reservation.start == pytest.approx(2.025)
        assert not world.vms["h000v02"].reservations

    @pytest.mark.parametrize("event, starts_cycle", [
        (cut_event("u00001", 500.0, event_id=1), False),
        (inflate_event("u00001", event_id=1), True)])
    def test_contract_checked_only_when_request_changes(self, event,
                                                        starts_cycle):
        """u00001's deadline is unbounded, and a degrade took its VM's ram
        below its tasks', so its contract is already invalid while the host's
        rescue of it waits behind u00000's. A deadline cut leaves the request
        unchanged (inf - delta = inf) and must start no cycle of its own; an
        inflation changes it, and the check finds the contract broken."""
        world = make_world(
            [("h000", [make_vm("h000v00", "h000"), make_vm("h000v01", "h000")])],
            [make_request("u00000", ram=1000.0),
             make_request("u00001", ram=1000.0)])
        kernel, runtime, sa, hosts, users = build_sim(world, theta=1)
        host = hosts["h000"]
        assert host.commit_contract("u00000", "h000v00") is not None
        assert host.commit_contract("u00001", "h000v00") is not None
        host.on_vm_event(degrade_event("h000v00", 0.5))
        batch = world.batches["u00001"]
        assert host._rescue_queue == [("u00001", 0)]
        assert not validate_contract(batch, world.vms["h000v00"], kernel.now)
        users["u00001"].on_user_event(event)
        starts = [r for r in runtime.trace.records
                  if r["kind"] == "cycle_start" and r["agent"] == "user:u00001"]
        assert bool(starts) is starts_cycle
        assert (users["u00001"]._cycle is not None) is starts_cycle

    def test_vacuous_events_leave_metrics_unchanged(self):
        from cloudsched.metrics import compute_metrics
        layout = [("h000", [make_vm("h000v00", "h000", cpu=2000.0)])]

        def fresh():
            return make_world(
                [("h000", [make_vm("h000v00", "h000", cpu=2000.0)])],
                [make_request(workloads=(10000.0,), deadline=500.0)])

        world_a = fresh()
        self._run(world_a, [])
        world_b = fresh()
        # event fires long after the batch completed: a recorded no-op
        self._run(world_b, [inflate_event("u00000", fire_at=400.0)])
        a, b = compute_metrics(world_a), compute_metrics(world_b)
        assert (a.makespan, a.utilization_variance, a.success_rate) == \
            (b.makespan, b.utilization_variance, b.success_rate)


class TestGiveUpRule:
    """`UserAgent._retry`, the one rule for a failed initial round and for a
    pass end: a batch fails at its deadline, or once no VM holds its
    remaining tasks and it is unbound or its slot has no finish left and no
    deadline. A bound batch that no VM holds waits for its slot's next finish
    (`UserAgent._wake`); any other batch retries after the retry period. One
    host, one VM of ram 1740 and cpu 1000, latency 0.01, retry period 5."""

    def _run(self, deadline, ram=(1200.0, 800.0), event=None, later=()):
        """Two tasks of 10000 MI and the given rams; `event`, when given,
        fires at 2, and each `(t, action)` of `later` calls `action(host,
        user)` at t. Returns the batch, the trace and each entry kind set."""
        tasks = [model.TaskSpec(f"u00000t{i}", 10000.0, r, 1.0, 100.0)
                 for i, r in enumerate(ram)]
        world = make_world([("h000", [make_vm("h000v00", "h000", cpu=1000.0)])],
                           [model.UserRequest("u00000", tasks, deadline)])
        kernel, runtime, sa, hosts, users = build_sim(world, theta=1)
        kinds, schedule = [], kernel.schedule
        kernel.schedule = lambda at, action, kind="timer": \
            kinds.append(kind) or schedule(at, action, kind)
        if event is not None:
            kernel.schedule(2.0, lambda: users["u00000"].on_user_event(event))
        for at, action in later:
            kernel.schedule(at, partial(action, hosts["h000"], users["u00000"]))
        kernel.run_until_quiescent()
        return world.batches["u00000"], runtime.trace.records, kinds

    def _failed_at(self, records):
        return [r["t"] for r in records if r["kind"] == "failed"]

    def _ends(self, records):
        return [(r["t"], r["detail"]["resolved"], r["detail"]["passes"])
                for r in records if r["kind"] == "cycle_end"]

    def _polled(self, monkeypatch):
        """Make every wait end at the plain next poll."""
        monkeypatch.setattr(UserAgent, "_wake", lambda agent, pass_end, finish:
                            pass_end + agent.retry_period)

    def test_wake_walks_the_polling_chain(self):
        world = make_world([("h000", [make_vm("h000v00", "h000")])],
                           [make_request(deadline=10.09)])
        user = build_sim(world, theta=1)[4]["u00000"]
        # from a pass end at 0, passes run 5.0-5.06 and 10.06-10.12, with
        # steps at 10.06, 10.08, 10.10 and 10.12
        assert user._wake(0.0, 5.05) == 5.0
        assert user._wake(0.0, 5.07) == pytest.approx(10.06)
        assert user._wake(0.0, math.inf) == pytest.approx(10.10)
        user.request.deadline = 1e9
        assert user._wake(0.0, math.inf) == pytest.approx(
            WAKE_PASSES * 5.0 + (WAKE_PASSES - 1) * 0.06)

    def test_unbound_batch_no_vm_holds_fails_at_its_first_round(self):
        batch, records, kinds = self._run(100.0, ram=(2000.0, 800.0))
        assert batch.request.status is RequestStatus.FAILED
        assert self._failed_at(records) == [pytest.approx(0.02)]
        assert "round-retry" not in kinds

    def test_bound_batch_with_a_deadline_retries_until_its_slot_helps(self):
        # the inflation lifts task 0's ram to 1800 and task 1's to 1200: no
        # VM holds the batch until its own slot finishes task 0 (at about
        # 14.1). The first pass ends at 2.06; the passes of 7.06 and 12.12
        # end before that finish and are skipped, and the pass of 17.18
        # re-quotes the VM
        batch, records, kinds = self._run(
            200.0, event=inflate_event("u00000", 1.5, fire_at=2.0))
        assert batch.request.status is RequestStatus.COMPLETED
        assert batch.successes == [True, True]
        assert kinds.count("cycle-retry") == 1
        assert not self._failed_at(records)
        ends = [r for r in records if r["kind"] == "cycle_end"]
        assert [(e["detail"]["resolved"], e["detail"]["passes"])
                for e in ends] == [(True, 1)]
        assert 14.0 < ends[0]["t"] < 20.0
        waits = [r for r in records if r["kind"] == "cycle_wait"]
        assert [(w["t"], w["detail"]["event"], w["detail"]["until"])
                for w in waits] == [(pytest.approx(2.06), 0, pytest.approx(17.18))]

    def test_waiting_ends_where_polling_does(self, monkeypatch):
        event = inflate_event("u00000", 1.5, fire_at=2.0)
        batch, records, kinds = self._run(200.0, event=event)
        self._polled(monkeypatch)
        polled, polled_records, polled_kinds = self._run(200.0, event=event)
        assert polled_kinds.count("cycle-retry") == 3
        assert [t for t, _, _ in self._ends(records)] == \
            [t for t, _, _ in self._ends(polled_records)]
        assert batch.finishes == pytest.approx(polled.finishes, rel=1e-12)

    def test_cycle_end_cancels_no_retry_entry_that_fired(self, monkeypatch):
        # the cycle ends in the step that its one wake entry ran: the entry
        # has fired, so `_end_cycle` has nothing left to cancel
        inside, cancels = [], []
        end_cycle, cancel = UserAgent._end_cycle, Kernel.cancel

        def spied_end(agent, resolved):
            inside.append(True)
            try:
                end_cycle(agent, resolved)
            finally:
                inside.pop()

        monkeypatch.setattr(UserAgent, "_end_cycle", spied_end)
        monkeypatch.setattr(Kernel, "cancel", lambda kernel, entry: (
            cancels.append(entry) if inside else None) or cancel(kernel, entry))
        batch, records, kinds = self._run(
            200.0, event=inflate_event("u00000", 1.5, fire_at=2.0))
        assert batch.request.status is RequestStatus.COMPLETED
        assert kinds.count("cycle-retry") == 1
        assert [r["kind"] for r in records].count("cycle_end") == 1
        assert cancels == []

    def test_bound_batch_with_no_deadline_waits_for_its_slot(self):
        # as with a deadline: the slot finishes task 0, and the pass after
        # that re-quotes the VM
        batch, records, kinds = self._run(
            math.inf, event=inflate_event("u00000", 1.5, fire_at=2.0))
        assert batch.request.status is RequestStatus.COMPLETED
        assert batch.successes == [True, True]
        assert kinds.count("cycle-retry") == 1
        assert not self._failed_at(records)
        assert [(resolved, passes) for _, resolved, passes
                in self._ends(records)] == [(True, 1)]

    def test_bound_batch_with_no_deadline_fails_once_its_slot_has_no_finish(self):
        # inflated x1.5 at 2, each task's ram tops the VM's 1740. The first
        # pass waits for task 0 to finish (at 14.05), the second for the
        # slot's end (at 20.05, task 1 short of its work), and the third finds
        # no finish left to wait for
        batch, records, kinds = self._run(
            math.inf, ram=(1200.0, 1200.0),
            event=inflate_event("u00000", 1.5, fire_at=2.0))
        assert batch.request.status is RequestStatus.FAILED
        assert batch.successes == [True, False]
        assert batch.finishes[0] is not None and batch.finishes[1] is None
        (t, resolved, passes), = self._ends(records)
        assert (resolved, passes) == (False, 3)
        assert self._failed_at(records) == [t]
        expired, = [r["t"] for r in records if r["kind"] == "slot_expired"]
        assert expired == pytest.approx(20.05) and 20.05 < t < 25.5

    @pytest.mark.parametrize("cut_to", [7.09, 10.0])
    def test_deadline_cut_while_waiting_fails_where_polling_does(
            self, monkeypatch, cut_to):
        # the cycle waits from 2.06 to 17.18; a cut at 5 brings the deadline
        # into the pass of 7.06 (its steps are 7.06, 7.08, 7.10 and 7.12)
        # or into the gap before the pass of 12.12
        later = [(5.0, lambda host, user: user.on_user_event(
            cut_event("u00000", 200.0 - cut_to, fire_at=5.0, event_id=1)))]
        event = inflate_event("u00000", 1.5, fire_at=2.0)
        batch, records, _ = self._run(200.0, event=event, later=later)
        self._polled(monkeypatch)
        polled, polled_records, _ = self._run(200.0, event=event, later=later)
        assert batch.request.status is polled.request.status \
            is RequestStatus.FAILED
        assert self._failed_at(records) == self._failed_at(polled_records)
        assert [t for t, _, _ in self._ends(records)] == \
            [t for t, _, _ in self._ends(polled_records)]
        failed_at, = self._failed_at(records)
        assert batch.request.deadline <= failed_at < batch.request.deadline + 5.0
        waits = [r["detail"]["until"] for r in records if r["kind"] == "cycle_wait"]
        assert waits[-1] == failed_at

    def test_degrade_of_its_vm_while_waiting_ends_where_polling_does(
            self, monkeypatch):
        # at 5 the VM keeps half its cpu and 0.9 of its ram (1566): task 1
        # (1200) fits it, task 0 (1800) does not, and task 0 now finishes
        # later than the wait planned for
        degrade = UncertainEvent(1, 5.0, "vm", "h000v00", VmDegrade(
            {"cpu": 0.5, "ram": 0.9, "storage": 1.0, "bandwidth": 1.0}))
        later = [(5.0, lambda host, user: host.on_vm_event(degrade))]
        event = inflate_event("u00000", 1.5, fire_at=2.0)
        batch, records, kinds = self._run(200.0, event=event, later=later)
        self._polled(monkeypatch)
        polled, polled_records, polled_kinds = self._run(
            200.0, event=event, later=later)
        assert batch.request.status is polled.request.status
        assert batch.successes == polled.successes
        assert batch.finishes == pytest.approx(polled.finishes, rel=1e-12)
        assert [(t, resolved) for t, resolved, _ in self._ends(records)] == \
            [(t, resolved) for t, resolved, _ in self._ends(polled_records)]
        assert kinds.count("cycle-retry") < polled_kinds.count("cycle-retry")

    def test_rescue_ends_the_cycle_and_cancels_its_wake(self, monkeypatch):
        # no run raises a capacity; this test does, at 5, so that the host's
        # offer of the VM commits in a one-VM world while the cycle waits
        entries, cancelled = [], []
        wait, cancel = UserAgent._wait, Kernel.cancel

        def spied_wait(agent, pass_end, finish, step, kind):
            wait(agent, pass_end, finish, step, kind)
            entries.append(agent._next[0])

        monkeypatch.setattr(UserAgent, "_wait", spied_wait)
        monkeypatch.setattr(Kernel, "cancel", lambda kernel, entry: (
            cancelled.append((entry, cancel(kernel, entry))) or cancelled[-1][1]))

        def rescue(host, user):
            host.world.vms["h000v00"].ram = 2000.0
            offer = host._quote("u00000", "h000v00")
            host.send(AgentMessage("h000:rescue:1", host.id, user.id, PROPOSE,
                                   ReplacementOffer(offer, 0)),
                      partial(host._rescue_reply, "u00000", 0))

        batch, records, kinds = self._run(
            200.0, event=inflate_event("u00000", 1.5, fire_at=2.0),
            later=[(5.0, rescue)])
        assert batch.request.status is RequestStatus.COMPLETED
        assert len(entries) == 1 and (entries[0], True) in cancelled
        (t, resolved, passes), = self._ends(records)
        assert (resolved, passes) == (True, 1)
        assert 5.0 < t < 5.1
        assert not [r for r in records
                    if r["kind"] == "cycle_attempt" and r["t"] > 5.0]
