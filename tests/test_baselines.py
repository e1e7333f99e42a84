import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudsched import model
from cloudsched.baselines import (CENTRAL_KINDS, CentralScheduler, assign_mct,
                                  assign_met, assign_min_min, assign_round_robin)
from cloudsched.kernel import Kernel
from cloudsched.metrics import utilization_variance
from cloudsched.model import BatchState, RequestStatus
from cloudsched.rescheduling import TaskInflate, UncertainEvent, VmDegrade
from cloudsched.tracelog import TraceLog

import oracles
from conftest import (assert_no_overlap, make_request, make_vm, make_world,
                      placed, requirements)


def fresh_batches(specs):
    """specs: list of (user_id, total_workload[, deadline])."""
    out = []
    for spec in specs:
        user_id, total = spec[0], spec[1]
        deadline = spec[2] if len(spec) > 2 else math.inf
        req = make_request(user_id, workloads=(total,), deadline=deadline)
        out.append(BatchState(req))
    return out


class TestAssignExamples:
    def test_mct_prefers_earliest_completion(self):
        vms = [make_vm("a", cpu=1000.0), make_vm("b", cpu=2000.0)]
        batches = fresh_batches([("u00000", 20000.0)])
        assert placed(assign_mct(batches, vms, 0.0)) == [("u00000", "b")]

    def test_mct_queue_aware(self):
        fast = make_vm("a", cpu=2000.0)
        slow = make_vm("b", cpu=1000.0)
        model.reserve(fast, requirements(
            make_request("u99999", workloads=(30000.0,))), 0.0)  # busy to 15
        batches = fresh_batches([("u00000", 20000.0)])
        # completions: fast 15+10=25, slow 0+20=20
        assert placed(assign_mct(batches, [fast, slow], 0.0)) == [("u00000", "b")]

    def test_mct_capacity_failure(self):
        vms = [make_vm("a", ram=900.0)]
        req = make_request("u00000", workloads=(100.0,), ram=1000.0)
        assert placed(assign_mct([BatchState(req)], vms, 0.0)) == [("u00000", None)]

    def test_met_ignores_queue(self):
        fast = make_vm("a", cpu=2000.0)
        slow = make_vm("b", cpu=1000.0)
        model.reserve(fast, requirements(
            make_request("u99999", workloads=(200000.0,))), 0.0)  # busy to 100
        batches = fresh_batches([("u00000", 20000.0)])
        # executions: fast 10, slow 20 - fast wins despite its queue
        assert placed(assign_met(batches, [fast, slow], 0.0)) == [("u00000", "a")]

    def test_met_homogeneous_ties_pile_on_lowest_id(self):
        vms = [make_vm("a", cpu=1000.0), make_vm("b", cpu=1000.0)]
        batches = fresh_batches([(f"u{i:05d}", 10000.0) for i in range(4)])
        pairs = placed(assign_met(batches, vms, 0.0))
        assert all(vm == "a" for _, vm in pairs)

    def test_met_concentration_raises_variance(self):
        vms = [make_vm("a", cpu=500.0), make_vm("b", cpu=2500.0)]
        specs = [(f"u{i:05d}", 20000.0) for i in range(100)]
        met_pairs = placed(assign_met(fresh_batches(specs), vms, 0.0))
        assert all(vm == "b" for _, vm in met_pairs)
        met_busy = [model.available_time(vm, 0.0) for vm in vms]
        met_var = utilization_variance([b / max(met_busy) for b in met_busy])
        vms2 = [make_vm("a", cpu=500.0), make_vm("b", cpu=2500.0)]
        assign_mct(fresh_batches(specs), vms2, 0.0)
        mct_busy = [model.available_time(vm, 0.0) for vm in vms2]
        mct_var = utilization_variance([b / max(mct_busy) for b in mct_busy])
        assert met_var > mct_var

    def test_min_min_shortest_first(self):
        vms = [make_vm("a", cpu=1000.0)]
        batches = fresh_batches([("u00000", 40000.0), ("u00001", 10000.0)])
        pairs = placed(assign_min_min(batches, vms, 0.0))
        assert pairs == [("u00001", "a"), ("u00000", "a")]
        spans = sorted((r.start, r.end) for r in vms[0].reservations)
        assert spans == [(0.0, 10.0), (10.0, 50.0)]

    def test_min_min_single_batch_matches_mct(self):
        vms = [make_vm("a", cpu=1000.0), make_vm("b", cpu=2500.0)]
        one = fresh_batches([("u00000", 25000.0)])
        vms2 = [make_vm("a", cpu=1000.0), make_vm("b", cpu=2500.0)]
        other = fresh_batches([("u00000", 25000.0)])
        assert placed(assign_min_min(one, vms, 0.0)) == placed(assign_mct(other, vms2, 0.0))

    def test_round_robin_circular(self):
        vms = [make_vm("a"), make_vm("b")]
        batches = fresh_batches([(f"u{i:05d}", 10000.0) for i in range(4)])
        pairs = placed(assign_round_robin(batches, vms, 0.0))
        assert [vm for _, vm in pairs] == ["a", "b", "a", "b"]

    def test_round_robin_skips_infeasible(self):
        vms = [make_vm("a"), make_vm("b", ram=900.0)]
        first = BatchState(make_request("u00000", workloads=(10000.0,)))
        second = BatchState(make_request("u00001", workloads=(10000.0,),
                                         ram=1000.0))
        third = BatchState(make_request("u00002", workloads=(10000.0,)))
        pairs = placed(assign_round_robin([first, second, third], vms, 0.0))
        # the scan advanced past a again, skipping b
        assert pairs == [("u00000", "a"), ("u00001", "a"), ("u00002", "b")]

    def test_round_robin_ring_persists_across_arrivals(self):
        world = make_world([("h000", [make_vm("h000v00"), make_vm("h000v01"),
                                      make_vm("h000v02")])],
                           [make_request(f"u{i:05d}", arrival=float(i))
                            for i in range(4)])
        kernel = Kernel()
        scheduler = CentralScheduler("round_robin", world, kernel)
        scheduler.start()
        kernel.run_until_quiescent()
        assert [world.vms[vm_id].reservations[0].user_id
                for vm_id in ("h000v00", "h000v01", "h000v02")] == \
            ["u00000", "u00001", "u00002"]
        assert world.vms["h000v00"].reservations[1].user_id == "u00003"
        assert scheduler.ring == 1

    def test_round_robin_homogeneous_spread_bound(self):
        vms = [make_vm(f"v{i}", cpu=1000.0) for i in range(5)]
        batches = fresh_batches([(f"u{i:05d}", 20000.0) for i in range(23)])
        assign_round_robin(batches, vms, 0.0)
        reserved = [sum(r.end - r.start for r in vm.reservations) for vm in vms]
        assert max(reserved) - min(reserved) <= 20.0 + 1e-9   # one batch length


class TestOracleEquivalence:
    def _random_instance(self, rng):
        n_vms = rng.randint(1, 4)
        vms = []
        for i in range(n_vms):
            vms.append(make_vm(f"v{i:02d}", cpu=rng.uniform(500, 2500),
                               ram=rng.uniform(1250, 1740),
                               storage=rng.uniform(4, 10),
                               bandwidth=rng.uniform(1000, 2000)))
        n_batches = rng.randint(1, 6)
        batches = []
        for i in range(n_batches):
            req = make_request(f"u{i:05d}",
                               workloads=tuple(rng.uniform(10000, 40000)
                                               for _ in range(rng.randint(1, 3))),
                               ram=rng.uniform(800, 1200),
                               storage=rng.uniform(1, 8),
                               bandwidth=rng.uniform(100, 500))
            batches.append(BatchState(req))
        return vms, batches

    def _tuples(self, vms, batches, tau):
        vm_tuples = [(vm.vm_id, vm.cpu, vm.ram, vm.storage, vm.bandwidth,
                      model.available_time(vm, tau)) for vm in vms]
        batch_tuples = []
        for b in batches:
            reqs = b.remaining_requirements()
            batch_tuples.append((b.request.user_id, reqs.total_workload,
                                 reqs.max_ram, reqs.max_storage,
                                 reqs.max_bandwidth))
        return vm_tuples, batch_tuples

    def test_hundred_random_instances_match_all_policies(self):
        rng = random.Random(20240817)
        for case in range(100):
            vms, batches = self._random_instance(rng)
            vm_tuples, batch_tuples = self._tuples(vms, batches, 0.0)
            expected = oracles.oracle_mct(batch_tuples, vm_tuples)
            assert placed(assign_mct(batches, vms, 0.0)) == expected, f"mct case {case}"

            vms, batches = self._random_instance(rng)
            vm_tuples, batch_tuples = self._tuples(vms, batches, 0.0)
            expected = oracles.oracle_met(batch_tuples, vm_tuples)
            assert placed(assign_met(batches, vms, 0.0)) == expected, f"met case {case}"

            vms, batches = self._random_instance(rng)
            vm_tuples, batch_tuples = self._tuples(vms, batches, 0.0)
            expected = oracles.oracle_min_min(batch_tuples, vm_tuples)
            assert placed(assign_min_min(batches, vms, 0.0)) == expected, \
                f"min_min case {case}"

            vms, batches = self._random_instance(rng)
            vm_tuples, batch_tuples = self._tuples(vms, batches, 0.0)
            start = rng.randrange(len(vms))
            expected = oracles.oracle_round_robin(batch_tuples, vm_tuples,
                                                  start=start)
            assert placed(assign_round_robin(batches, vms, 0.0, start)) == expected, \
                f"rr case {case}"


def full_scan_available(vm, tau):
    """available_time by its definition: tau or the latest effective end."""
    return max([tau] + [r.effective_end for r in vm.reservations])


class TestStressOracle:
    """Larger instances than TestOracleEquivalence: 40-80 batches on 6-12 VMs
    with integer workloads and cpus (so completions tie and the vm-id and
    user-id tie-breaks decide), pre-booked ledgers and tau > 0 (so VMs start
    at different availabilities), and batches some or all VMs cannot hold."""

    POLICIES = ("mct", "met", "min_min", "round_robin")

    def _instance(self, rng):
        tau = rng.choice([0.0, 7.0, 30.0])
        vms = []
        for i in range(rng.randint(6, 12)):
            vm = make_vm(f"v{i:02d}", cpu=float(rng.choice([500, 1000, 2000])),
                         ram=float(rng.choice([1000, 1250, 1740])))
            start = float(rng.choice([0, 5, 20]))
            for k in range(rng.randint(0, 3)):
                pre = make_request(f"p{i:02d}{k}",
                                   workloads=(float(rng.randint(1, 6) * 5000),))
                res = model.reserve(vm, requirements(pre), start)
                if rng.random() < 0.3:
                    res.released_at = res.start + (res.end - res.start) / 2
                start = res.effective_end + rng.choice([0, 0, 3])
            vms.append(vm)
        batches = []
        for n in range(rng.randint(40, 80)):
            req = make_request(
                f"u{n:05d}",
                workloads=tuple(float(rng.randint(1, 8) * 5000)
                                for _ in range(rng.randint(1, 3))),
                ram=float(rng.choice([800, 1200, 1200, 1600, 1800])))
            batches.append(BatchState(req))
        rng.shuffle(batches)
        return vms, batches, tau

    def _tuples(self, vms, batches, tau):
        vm_tuples = [(vm.vm_id, vm.cpu, vm.ram, vm.storage, vm.bandwidth,
                      full_scan_available(vm, tau)) for vm in vms]
        batch_tuples = [(b.request.user_id, reqs.total_workload, reqs.max_ram,
                         reqs.max_storage, reqs.max_bandwidth)
                        for b in batches
                        for reqs in [b.remaining_requirements()]]
        return vm_tuples, batch_tuples

    @pytest.mark.parametrize("policy", POLICIES)
    def test_random_instances_match_oracle(self, policy):
        rng = random.Random(f"stress-{policy}")
        for case in range(25):
            vms, batches, tau = self._instance(rng)
            vm_tuples, batch_tuples = self._tuples(vms, batches, tau)
            if policy == "round_robin":
                start = rng.randrange(len(vms))
                expected = oracles.oracle_round_robin(batch_tuples, vm_tuples,
                                                      start=start)
                actual = placed(assign_round_robin(batches, vms, tau, start))
            else:
                oracle = getattr(oracles, f"oracle_{policy}")
                assign = {"mct": assign_mct, "met": assign_met,
                          "min_min": assign_min_min}[policy]
                expected = oracle(batch_tuples, vm_tuples)
                actual = placed(assign(batches, vms, tau))
            assert actual == expected, f"{policy} case {case}"
            for vm, vm_tuple in zip(vms, vm_tuples):
                # new bookings chain from the pre-booked availability
                assert_no_overlap(vm)
                at = vm_tuple[5]
                for res in vm.reservations:
                    if res.user_id.startswith("u"):
                        assert res.start == at
                        at = res.end

    def test_all_ties_break_by_user_then_vm(self):
        vms = [make_vm(f"v{i:02d}", cpu=1000.0) for i in range(6)]
        batches = fresh_batches([(f"u{i:05d}", 10000.0) for i in range(40)])
        batches.reverse()
        vm_tuples, batch_tuples = self._tuples(vms, batches, 0.0)
        expected = oracles.oracle_min_min(batch_tuples, vm_tuples)
        assert placed(assign_min_min(batches, vms, 0.0)) == expected
        assert expected[:7] == [("u00000", "v00"), ("u00001", "v01"),
                                ("u00002", "v02"), ("u00003", "v03"),
                                ("u00004", "v04"), ("u00005", "v05"),
                                ("u00006", "v00")]


tie_instances = st.fixed_dictionaries({
    # equal cpus, with at most one faster VM that many batches share as best
    "cpus": st.lists(st.sampled_from([1000.0, 1000.0, 2000.0]),
                     min_size=1, max_size=6),
    "star": st.sampled_from([None, 4000.0, 8000.0]),
    "rams": st.lists(st.sampled_from([1000.0, 1740.0]), min_size=7, max_size=7),
    # equal pre-booked availabilities, often the same on every VM
    "busy": st.lists(st.sampled_from([0, 0, 10000, 20000]), min_size=7, max_size=7),
    "tau": st.sampled_from([0.0, 5.0, 10.0]),
    "batches": st.lists(st.tuples(st.integers(1, 4),
                                  st.sampled_from([800.0, 800.0, 1200.0, 1800.0])),
                        min_size=1, max_size=40),
})


@settings(max_examples=150, deadline=None)
@given(instance=tie_instances)
def test_min_min_matches_oracle_on_heavy_ties(instance):
    cpus = instance["cpus"] + ([instance["star"]] if instance["star"] else [])
    vms = []
    for i, cpu in enumerate(cpus):
        vm = make_vm(f"v{i:02d}", cpu=cpu, ram=instance["rams"][i])
        if instance["busy"][i]:
            model.reserve(vm, requirements(make_request(
                f"p{i:02d}", workloads=(float(instance["busy"][i]),))), 0.0)
        vms.append(vm)
    tau = instance["tau"]
    batches = [BatchState(make_request(f"u{n:05d}", workloads=(units * 5000.0,),
                                       ram=ram))
               for n, (units, ram) in enumerate(instance["batches"])]
    vm_tuples = [(vm.vm_id, vm.cpu, vm.ram, vm.storage, vm.bandwidth,
                  full_scan_available(vm, tau)) for vm in vms]
    batch_tuples = [(b.request.user_id, reqs.total_workload, reqs.max_ram,
                     reqs.max_storage, reqs.max_bandwidth)
                    for b in batches for reqs in [b.remaining_requirements()]]
    expected = oracles.oracle_min_min(batch_tuples, vm_tuples)
    assert placed(assign_min_min(batches, vms, tau)) == expected
    for vm, vm_tuple in zip(vms, vm_tuples):
        at = vm_tuple[5]
        for res in vm.reservations:
            if res.user_id.startswith("u"):
                assert res.start == at
                at = res.end


@pytest.mark.parametrize("kind", CENTRAL_KINDS)
def test_absorb_binds_the_booked_ledger_tail(kind):
    vms = [make_vm("h000v00", "h000", cpu=1000.0),
           make_vm("h000v01", "h000", cpu=2000.0)]
    users = [make_request(f"u{n:05d}", workloads=(5000.0 * (n % 3 + 1),))
             for n in range(6)]
    world = make_world([("h000", vms)], users)
    driver = CentralScheduler(kind, world, Kernel())
    batches = [world.batches[u.user_id] for u in users]
    for batch in batches[:3]:   # one placement at a time: each is the tail
        driver._place([batch])
        res = batch.reservation
        assert res is world.vms[res.vm_id].reservations[-1]
        assert res.user_id == batch.request.user_id
        assert batch.request.status is RequestStatus.PENDING
    driver._place(batches[3:])   # one flush of three
    for vm in vms:
        for res in vm.reservations:
            assert world.batches[res.user_id].reservation is res
    assert all(b.reservation is not None for b in batches)


class TestReactiveRealloc:
    def _driver(self, world, kind="mct", realloc_cost=0.0):
        kernel = Kernel()
        driver = CentralScheduler(kind, world, kernel, realloc_cost=realloc_cost,
                                  trace=TraceLog())
        driver.start()
        return kernel, driver

    def _inflate(self, target, factor=1.3, fire_at=5.0):
        return UncertainEvent(0, fire_at, "user", target, TaskInflate(
            {f: factor for f in ("workload", "ram", "storage", "bandwidth")}))

    def test_cost_disabled_realloc_is_immediate(self):
        world = make_world([("h000", [make_vm("h000v00", "h000", cpu=1000.0)])],
                           [make_request(workloads=(20000.0,), deadline=100.0)])
        kernel, driver = self._driver(world, realloc_cost=0.0)
        event = self._inflate("u00000")
        kernel.schedule(5.0, lambda: driver.on_event(event))
        kernel.run_until_quiescent()
        batch = world.batches["u00000"]
        assert batch.request.status is RequestStatus.COMPLETED
        assert batch.successes == [True]
        queued = [r for r in driver.trace.records if r["kind"] == "realloc_queued"]
        assert queued[0]["detail"]["commit_at"] == pytest.approx(5.0)

    def test_delay_formula(self):
        # mct books both batches on the fast VM, u00000 [0,10] then u00001
        # [10,20]; halving it at t=5 stretches them to [0,15] (deadline 12)
        # and [15,35] (deadline 25), so one event breaks two contracts and
        # the commit waits cost x 2 affected x 2 VMs
        world = make_world(
            [("h000", [make_vm("h000v00", "h000", cpu=1000.0),
                       make_vm("h000v01", "h000", cpu=100.0)])],
            [make_request("u00000", workloads=(10000.0,), deadline=12.0),
             make_request("u00001", workloads=(10000.0,), deadline=25.0)])
        kernel, driver = self._driver(world, realloc_cost=0.25)
        event = UncertainEvent(0, 5.0, "vm", "h000v00", VmDegrade(
            {f: 0.5 for f in ("cpu", "ram", "storage", "bandwidth")}))
        kernel.schedule(5.0, lambda: driver.on_event(event))
        kernel.run_until_quiescent()
        queued = [r["detail"] for r in driver.trace.records
                  if r["kind"] == "realloc_queued"]
        assert queued[0]["users"] == ["u00000", "u00001"]
        assert queued[0]["commit_at"] == pytest.approx(5.0 + 0.25 * 2 * 2)

    def test_delay_alone_flips_success_to_failure(self):
        def build():
            return make_world(
                [("h000", [make_vm("h000v00", "h000", cpu=1000.0),
                           make_vm("h000v01", "h000", cpu=1000.0)])],
                [make_request(workloads=(20000.0,), deadline=60.0)])

        outcomes = {}
        for label, cost in (("free", 0.0), ("slow", 50.0)):
            world = build()
            kernel, driver = self._driver(world, realloc_cost=cost)
            event = self._inflate("u00000", factor=1.5, fire_at=5.0)
            kernel.schedule(5.0, lambda: driver.on_event(event))
            kernel.run_until_quiescent()
            outcomes[label] = world.batches["u00000"].request.status
        assert outcomes["free"] is RequestStatus.COMPLETED
        assert outcomes["slow"] is RequestStatus.FAILED

    def test_serialized_commits_back_up(self):
        world = make_world(
            [("h000", [make_vm("h000v00", "h000", cpu=1000.0),
                       make_vm("h000v01", "h000", cpu=1000.0)])],
            [make_request("u00000", workloads=(20000.0,), deadline=1000.0),
             make_request("u00001", workloads=(20000.0,), deadline=1000.0)])
        kernel, driver = self._driver(world, realloc_cost=1.0)  # 2 s per event
        for i, user in enumerate(("u00000", "u00001")):
            event = UncertainEvent(i, 5.0, "user", user, TaskInflate(
                {f: 1.3 for f in ("workload", "ram", "storage", "bandwidth")}))
            kernel.schedule(5.0, lambda e=event: driver.on_event(e))
        kernel.run_until_quiescent()
        commits = [r["detail"]["commit_at"] for r in driver.trace.records
                   if r["kind"] == "realloc_queued"]
        assert commits == [pytest.approx(7.0), pytest.approx(9.0)]

    def test_minmin_buffers_to_interval(self):
        world = make_world([("h000", [make_vm("h000v00", "h000", cpu=1000.0)])],
                           [make_request("u00000", workloads=(10000.0,),
                                         arrival=3.0)])
        kernel = Kernel()
        driver = CentralScheduler("min_min", world, kernel,
                                  minmin_interval=10.0, trace=TraceLog())
        driver.start()
        kernel.run_until_quiescent()
        res = world.vms["h000v00"].reservations[0]
        assert res.start == pytest.approx(10.0)   # next interval boundary
        assert world.batches["u00000"].request.status is RequestStatus.COMPLETED
