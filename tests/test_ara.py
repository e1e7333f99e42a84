import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudsched import model
from cloudsched.agents import HostAgent, SuperviseAgent, UserAgent
from cloudsched.ara import (HostProposal, VmRegistry, VmSnapshot,
                            make_proposal, select_best)
from cloudsched.bdi import ACCEPT, INFORM, AgentRuntime
from cloudsched.harness import run_simulation
from cloudsched.kernel import Kernel
from cloudsched.model import RequestStatus
from cloudsched.scenario import ScenarioConfig
from cloudsched.tracelog import TraceLog

from conftest import (assert_no_overlap, make_request, make_vm, make_world,
                      requirements)
from test_ledger_properties import worlds


def snap(vm_id, at=0.0, cpu=1000.0, ram=1740.0, storage=10.0, bw=2000.0,
         host="h000"):
    return VmSnapshot(vm_id, host, cpu, ram, storage, bw, at)


def reqs(user="u00000", total=10000.0, deadline=math.inf):
    return requirements(make_request(user, workloads=(total,),
                                     deadline=deadline))


def ordered_ids(registry):
    """The registry's VMs in priority order: available time, then vm_id."""
    return [vm_id for _, vm_id, _ in registry._order]


class TestRegistry:
    def test_first_sync_creates_ready_entry(self):
        registry = VmRegistry()
        registry.sync(snap("h000v00"))
        assert registry.snapshots["h000v00"] == snap("h000v00")
        assert "h000v00" not in registry.busy

    def test_sync_replaces_snapshot_and_reorders(self):
        registry = VmRegistry()
        registry.sync(snap("a", at=0.0))
        registry.sync(snap("b", at=5.0))
        assert ordered_ids(registry) == ["a", "b"]
        registry.sync(snap("a", at=40.0))
        assert ordered_ids(registry) == ["b", "a"]

    def test_sync_preserves_lease(self):
        registry = VmRegistry()
        registry.sync(snap("a"))
        registry.recommend(reqs(), theta=1, tau=0.0, conversation_id="c")
        registry.sync(snap("a", at=99.0))
        assert "a" in registry.busy

    def test_recommend_priority_and_cap(self):
        registry = VmRegistry()
        for vm_id, at in (("a", 0.0), ("b", 5.0), ("c", 9.0)):
            registry.sync(snap(vm_id, at=at))
        rec = registry.recommend(reqs(), theta=2, tau=0.0, conversation_id="c")
        assert [s.vm_id for s in rec.vm_refs] == ["a", "b"]
        assert "a" in registry.busy
        assert "b" in registry.busy
        assert "c" not in registry.busy

    def test_recommend_stops_when_no_more_vms(self):
        registry = VmRegistry()
        registry.sync(snap("a"))
        registry.sync(snap("tiny", ram=100.0))   # infeasible for the request
        rec = registry.recommend(reqs(), theta=5, tau=0.0, conversation_id="c")
        assert [s.vm_id for s in rec.vm_refs] == ["a"]

    def test_all_busy_yields_empty(self):
        registry = VmRegistry()
        registry.sync(snap("a"))
        registry.recommend(reqs("u00000"), theta=1, tau=0.0, conversation_id="c1")
        rec = registry.recommend(reqs("u00001"), theta=1, tau=0.0,
                                 conversation_id="c2")
        assert rec.vm_refs == []

    def test_finalize_idempotent(self):
        registry = VmRegistry()
        registry.sync(snap("a"))
        registry.sync(snap("b"))
        registry.recommend(reqs(), theta=2, tau=0.0, conversation_id="c")
        assert registry.finalize("c", 1.0) == 2
        assert registry.finalize("c", 1.0) == 0
        assert len(registry.snapshots) == 2 and not registry.busy

    def test_never_skips_earlier_feasible_ready_vm(self):
        registry = VmRegistry()
        for vm_id, at in (("c", 9.0), ("a", 0.0), ("b", 5.0)):
            registry.sync(snap(vm_id, at=at))
        rec = registry.recommend(reqs(), theta=1, tau=0.0, conversation_id="c")
        assert [s.vm_id for s in rec.vm_refs] == ["a"]

    def test_deadline_respected_in_snapshot_feasibility(self):
        registry = VmRegistry()
        registry.sync(snap("slow", at=0.0, cpu=500.0))
        registry.sync(snap("fast", at=0.0, cpu=2500.0))
        rec = registry.recommend(reqs(total=40000.0, deadline=50.0), theta=5,
                                 tau=0.0, conversation_id="c")
        assert [s.vm_id for s in rec.vm_refs] == ["fast"]


CPUS = (500.0, 1000.0, 2500.0)
RAMS = (100.0, 800.0, 1740.0)
STORAGES = (1.0, 5.0, 10.0)
BANDWIDTHS = (100.0, 1000.0, 2000.0)

# A sync's capacities and cpu both fall and rise from one sync of a VM to the
# next. A request's maxima are drawn from the same values (plus one above
# them all), so a capacity often equals the requirement, and its workload
# over any cpu is a whole number, so max(tau, available) + W / cpu often
# equals a deadline tau + slack.
registry_ops = st.lists(st.one_of(
    st.tuples(st.just("sync"), st.integers(0, 5),
              st.sampled_from([0.0, 5.0, 9.0, 20.0]), st.sampled_from(RAMS),
              st.sampled_from(STORAGES), st.sampled_from(BANDWIDTHS),
              st.sampled_from(CPUS)),
    st.tuples(st.just("recommend"), st.integers(1, 4),
              st.sampled_from([5000.0, 10000.0, 20000.0]),
              st.sampled_from(RAMS + (2000.0,)),
              st.sampled_from(STORAGES + (20.0,)),
              st.sampled_from(BANDWIDTHS + (3000.0,)),
              st.sampled_from([math.inf, 2.0, 4.0, 10.0, 14.0, 20.0, 30.0])),
    st.tuples(st.just("finalize"), st.integers(0, 12))), max_size=40)


def reference_walk(snaps, busy, want, theta, tau):
    """The first theta READY VMs, by (available_time, vm_id), whose snapshot
    covers the request's maxima and, started at max(tau, available_time),
    completes by its deadline: recommend's definition, re-sorted from
    scratch and written out here rather than through `model.quote`."""
    def serves(s):
        return (s.ram >= want.max_ram and s.storage >= want.max_storage
                and s.bandwidth >= want.max_bandwidth
                and max(tau, s.available_time) + want.total_workload / s.cpu
                <= want.deadline)
    order = sorted(snaps, key=lambda v: (snaps[v].available_time, v))
    return [v for v in order if v not in busy and serves(snaps[v])][:theta]


@given(registry_ops)
@example([("sync", 1, 20.0, 1740.0, 10.0, 2000.0, 1000.0),
          ("sync", 0, 0.0, 1740.0, 10.0, 2000.0, 1000.0),
          ("recommend", 2, 10000.0, 800.0, 1.0, 100.0, math.inf),
          ("finalize", 0)])
# a capacity that rises after the index was built
@example([("sync", 0, 0.0, 100.0, 10.0, 2000.0, 1000.0),
          ("recommend", 1, 10000.0, 800.0, 1.0, 100.0, math.inf),
          ("sync", 0, 0.0, 1740.0, 10.0, 2000.0, 1000.0),
          ("recommend", 1, 10000.0, 800.0, 1.0, 100.0, math.inf)])
# capacities equal to the requirement
@example([("sync", 0, 0.0, 800.0, 5.0, 1000.0, 1000.0),
          ("recommend", 1, 10000.0, 800.0, 5.0, 1000.0, math.inf)])
# a slow VM first in the index, then a fast one that finishes exactly at
# the deadline: start 3 + 20000 / 2500 == 3 + 8
@example([("sync", 0, 0.0, 1740.0, 10.0, 2000.0, 500.0),
          ("sync", 1, 0.0, 1740.0, 10.0, 2000.0, 2500.0),
          ("recommend", 1, 20000.0, 800.0, 1.0, 100.0, 8.0)])
def test_registry_matches_full_sort_reference(ops):
    """Random sync / recommend / finalize sequences (the supervise agent's
    lease expiry is a finalize too) against a model that re-sorts every time:
    the index equals a full sort by (available_time, vm_id), recommend takes
    the first theta READY feasible VMs in that order, and finalize releases
    exactly its conversation's leases, in first-sync order, once. A request's
    deadline is tau plus the op's slack."""
    trace = TraceLog()
    registry = VmRegistry(trace=trace)
    snaps, busy, conversations = {}, {}, []
    tau = 0.0
    for op in ops:
        tau += 1.0
        if op[0] == "sync":
            _, k, at, ram, storage, bw, cpu = op
            snaps[f"v{k}"] = snap(f"v{k}", at=at, cpu=cpu, ram=ram,
                                  storage=storage, bw=bw)
            registry.sync(snaps[f"v{k}"])
        elif op[0] == "recommend":
            _, theta, total, ram, storage, bw, slack = op
            conv = f"c{len(conversations)}"
            conversations.append(conv)
            want = model.Requirements("u00000", total, ram, storage, bw,
                                      tau + slack, (total,), (0,))
            expected = reference_walk(snaps, busy, want, theta, tau)
            rec = registry.recommend(want, theta, tau, conv)
            assert [s.vm_id for s in rec.vm_refs] == expected
            busy.update((v, conv) for v in expected)
        else:
            conv = conversations[op[1] % len(conversations)] \
                if conversations else "never-issued"
            held = [v for v in snaps if busy.get(v) == conv]
            trace.lines.clear()
            assert registry.finalize(conv, tau) == len(held)
            assert [r["detail"]["vm"] for r in trace.records] == held
            assert registry.finalize(conv, tau) == 0
            for v in held:
                del busy[v]
        assert ordered_ids(registry) == sorted(
            snaps, key=lambda v: (snaps[v].available_time, v))
        assert registry.busy == set(busy)


@settings(max_examples=20, deadline=None)
@given(world=worlds, tight=st.booleans())
def test_every_recommend_of_a_run_matches_the_reference(world, tight):
    """Every recommendation of an `ara` run over a random world with events
    equals the reference walk over the registry's snapshots at that call.
    A tight world gives every VM and task the same ram, so every request's
    ram equals every VM's."""
    if tight:
        world = dict(world, vm_ram=(1250.0, 1250.0), task_ram=(1250.0, 1250.0))
    recommend = VmRegistry.recommend
    calls = []

    def checked(registry, want, theta, tau, conversation_id):
        expected = reference_walk(registry.snapshots, registry.busy, want,
                                  theta, tau)
        rec = recommend(registry, want, theta, tau, conversation_id)
        assert [s.vm_id for s in rec.vm_refs] == expected, tau
        calls.append(tau)
        return rec

    VmRegistry.recommend = checked
    try:
        run_simulation(ScenarioConfig(scheduler="ara", **world))
    finally:
        VmRegistry.recommend = recommend
    assert calls


class TestSelectBest:
    def test_argmin_completion(self):
        proposals = [HostProposal("u", "a", 0.0, 12.0),
                     HostProposal("u", "b", 0.0, 9.5),
                     HostProposal("u", "c", 0.0, 30.0)]
        assert select_best(proposals).completion == 9.5

    def test_single_proposal(self):
        only = HostProposal("u", "a", 0.0, 7.0)
        assert select_best([only]) is only

    def test_tie_break_by_vm_id(self):
        proposals = [HostProposal("u", "b", 0.0, 10.0),
                     HostProposal("u", "a", 0.0, 10.0)]
        assert select_best(proposals).vm_id == "a"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best([])

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1e6),
                              st.integers(min_value=0, max_value=30)),
                    min_size=1, max_size=20))
    def test_matches_argmin_oracle(self, pairs):
        proposals = [HostProposal("u", f"v{i:02d}", 0.0, c)
                     for c, i in pairs]
        best = select_best(proposals)
        assert (best.completion, best.vm_id) == \
            min((p.completion, p.vm_id) for p in proposals)


class TestMakeProposal:
    def test_quote_formula(self):
        vm = make_vm(cpu=2000.0)
        proposal = make_proposal(vm, reqs(total=20000.0, deadline=100.0), 0.0)
        assert proposal.start == 0.0
        assert proposal.completion == pytest.approx(10.0)

    def test_stale_snapshot_declined(self):
        # ground truth moved: completion 105 > deadline 100
        vm = make_vm(cpu=1000.0)
        model.reserve(vm, reqs(total=95000.0), 0.0)
        assert make_proposal(vm, reqs("u00001", total=10000.0, deadline=100.0),
                             0.0) is None

    def test_capacity_decline_and_unknown_vm(self):
        vm = make_vm(ram=900.0)
        bad = requirements(make_request(workloads=(100.0,), ram=1000.0))
        assert make_proposal(vm, bad, 0.0) is None
        assert make_proposal(None, reqs(), 0.0) is None

    def test_best_sibling_tie_goes_to_the_lower_vm_id(self):
        # two idle siblings of one cpu quote the same completion
        world = make_world(
            [("h000", [make_vm("h000v02", "h000"), make_vm("h000v00", "h000"),
                       make_vm("h000v01", "h000")])],
            [make_request(workloads=(10000.0,))])
        kernel, runtime, sa, hosts, users = build_sim(world)
        want = requirements(world.users[0])
        best = hosts["h000"]._best_sibling(want, exclude_vm="h000v00")
        assert (best.vm_id, best.completion) == ("h000v01", 10.0)
        assert make_proposal(world.vms["h000v02"], want, 0.0).completion == 10.0


def build_sim(world, theta=2, latency=0.01, lease_timeout=10.0,
              retry_period=5.0, collect_timeout=1.0):
    kernel = Kernel()
    runtime = AgentRuntime(kernel, latency=latency,
                           collect_timeout=collect_timeout, trace=TraceLog())
    sa = SuperviseAgent(runtime, theta=theta, lease_timeout=lease_timeout)
    runtime.register(sa)
    hosts = {}
    for host in world.datacenter.hosts:
        agent = HostAgent(runtime, host, world, sa.id)
        runtime.register(agent)
        hosts[host.host_id] = agent
    users = {}
    for req in world.users:
        agent = UserAgent(runtime, world.batches[req.user_id], world, sa.id,
                          retry_period=retry_period)
        runtime.register(agent)
        users[req.user_id] = agent
    for agent in hosts.values():
        agent.start()
    for req in world.users:
        kernel.schedule(req.arrival, users[req.user_id].start, kind="arrival")
    return kernel, runtime, sa, hosts, users


class TestProtocol:
    def test_single_user_contracts_best_vm(self):
        world = make_world(
            [("h000", [make_vm("h000v00", "h000", cpu=500.0)]),
             ("h001", [make_vm("h001v00", "h001", cpu=2500.0)])],
            [make_request(workloads=(25000.0,))])
        kernel, runtime, sa, hosts, users = build_sim(world, theta=2)
        kernel.run_until_quiescent()
        batch = world.batches["u00000"]
        assert batch.request.status is RequestStatus.COMPLETED
        # minimum-completion choice: the fast VM
        assert world.vms["h001v00"].reservations
        assert not world.vms["h000v00"].reservations
        assert len(sa.registry.snapshots) == 2 and not sa.registry.busy

    def test_contention_retry_then_success(self):
        # one VM, two users arriving together: the loser's recommendation is
        # empty while the lease is out, and it retries until the VM frees up
        world = make_world(
            [("h000", [make_vm("h000v00", "h000", cpu=1000.0)])],
            [make_request("u00000", workloads=(10000.0,)),
             make_request("u00001", workloads=(10000.0,))])
        kernel, runtime, sa, hosts, users = build_sim(world, theta=1)
        kernel.run_until_quiescent()
        statuses = {u: world.batches[u].request.status for u in world.batches}
        assert all(s is RequestStatus.COMPLETED for s in statuses.values())
        assert_no_overlap(world.vms["h000v00"])

    def test_dropped_accept_frees_leases_via_expiry(self):
        lease_timeout = 10.0
        world = make_world(
            [("h000", [make_vm("h000v00", "h000"), make_vm("h000v01", "h000")])],
            [make_request(workloads=(10000.0,), deadline=40.0)])
        kernel, runtime, sa, hosts, users = build_sim(
            world, theta=2, lease_timeout=lease_timeout)

        def drop(msg):
            # the user goes silent after collecting proposals: its ACCEPTs and
            # round outcomes never reach anyone
            return msg.sender.name == "u00000" and \
                msg.performative in (ACCEPT, INFORM)

        runtime.drop_filter = drop
        kernel.run_until_quiescent()
        batch = world.batches["u00000"]
        assert batch.request.status is RequestStatus.FAILED
        assert len(sa.registry.snapshots) == 2 and not sa.registry.busy
        # every BUSY interval closed within the lease timeout
        opened = {}
        for record in runtime.trace.records:
            if record["kind"] != "lease":
                continue
            vm = record["detail"]["vm"]
            if record["detail"]["state"] == "BUSY":
                opened[vm] = record["t"]
            else:
                held = record["t"] - opened.pop(vm)
                assert held <= lease_timeout + 1e-9
        assert not opened
        expired = [r for r in runtime.trace.records
                   if r["kind"] == "lease_expired"]
        assert expired, "lease expiry path never exercised"

    def test_accepted_vm_resynced_after_agreement(self):
        world = make_world(
            [("h000", [make_vm("h000v00", "h000", cpu=1000.0)])],
            [make_request(workloads=(10000.0,))])
        kernel, runtime, sa, hosts, users = build_sim(world, theta=1)
        kernel.run_until_quiescent()
        snapshot = sa.registry.snapshots["h000v00"]
        reservation = world.vms["h000v00"].reservations[0]
        # the contract starts after the negotiation hops and the accepting
        # host's sync brings the registry snapshot up to the new tail
        assert reservation.start == pytest.approx(0.05)
        assert snapshot.available_time == pytest.approx(reservation.end)
        assert "h000v00" not in sa.registry.busy
