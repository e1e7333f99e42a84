import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudsched import model
from cloudsched.ara import VmSnapshot, make_proposal
from cloudsched.kernel import Kernel
from cloudsched.model import (BatchState, OverlapError, RequestStatus,
                              checkpoint, reserve)

from conftest import (assert_no_overlap, make_request, make_vm, make_world,
                      requirements)


def reqs_for(vm_or_req, workloads=(10000.0,), deadline=math.inf, **kw):
    return requirements(make_request(workloads=workloads,
                                     deadline=deadline, **kw))


class TestAvailableTime:
    def test_idle_vm(self):
        vm = make_vm()
        assert model.available_time(vm, 10.0) == 10.0

    def test_reservation_ending_later(self):
        vm = make_vm(cpu=1000.0)
        reserve(vm, reqs_for(vm, workloads=(30000.0,)), 0.0)
        assert model.available_time(vm, 10.0) == 30.0

    def test_past_reservation_ignored(self):
        vm = make_vm(cpu=1000.0)
        reserve(vm, reqs_for(vm, workloads=(30000.0,)), 0.0)
        assert model.available_time(vm, 40.0) == 40.0


class TestExpectedCompletion:
    """A quote's completion is its start (the VM's available time) plus the
    summed workload at the VM's cpu; `quote` meets the deadline exactly at
    that completion."""

    def quote(self, vm, workload, tau=0.0):
        return make_proposal(vm, reqs_for(vm, workloads=(workload,)), tau)

    def test_direct_formula(self):
        vm = make_vm(cpu=1000.0)
        assert self.quote(vm, 20000.0).completion == pytest.approx(20.0)
        assert model.quote(vm, reqs_for(vm, (20000.0,), deadline=20.0), 0.0) == 20.0
        assert model.quote(vm, reqs_for(vm, (20000.0,), deadline=19.9), 0.0) is None

    def test_queued_vm(self):
        vm = make_vm(cpu=2500.0)
        reserve(vm, requirements(
            make_request(workloads=(125000.0,))), 0.0)   # busy until 50
        quote = self.quote(vm, 10000.0)
        assert quote.start == pytest.approx(50.0)
        assert quote.completion == pytest.approx(54.0)
        assert model.quote(vm, reqs_for(vm, (10000.0,), deadline=54.0),
                           quote.start) == quote.completion
        assert model.quote(vm, reqs_for(vm, (10000.0,), deadline=53.9),
                           quote.start) is None

    def test_extreme_task_on_weakest_vm(self):
        # largest workload at the slowest cpu of the configured ranges
        vm = make_vm(cpu=500.0)
        assert self.quote(vm, 40000.0).completion == pytest.approx(80.0)

    @given(st.floats(min_value=500.0, max_value=2500.0),
           st.floats(min_value=500.0, max_value=2500.0),
           st.floats(min_value=1.0, max_value=4e5))
    def test_monotone_in_cpu(self, cpu_a, cpu_b, workload):
        lo, hi = sorted((cpu_a, cpu_b))
        fast = make_vm(cpu=hi)
        slow = make_vm(cpu=lo)
        assert self.quote(fast, workload).completion <= \
            self.quote(slow, workload).completion

    @given(st.floats(min_value=1.0, max_value=4e5),
           st.floats(min_value=0.0, max_value=4e5))
    def test_monotone_in_workload(self, base, extra):
        vm = make_vm()
        assert self.quote(vm, base).completion <= \
            self.quote(vm, base + extra).completion


class TestFeasible:
    def test_boundary_values_pass(self):
        vm = make_vm(cpu=2500.0, ram=1740.0, storage=10.0, bandwidth=2000.0)
        reqs = requirements(make_request(
            workloads=(25000.0, 25000.0), ram=1200.0, storage=8.0,
            bandwidth=500.0, deadline=5000.0))
        assert model.quote(vm, reqs, 0.0) == 20.0

    def test_deadline_violation(self):
        vm = make_vm(cpu=2500.0)
        reqs = requirements(make_request(workloads=(50000.0,), deadline=10.0))
        assert model.quote(vm, reqs, 0.0) is None

    def test_capacity_violation(self):
        vm = make_vm(ram=1250.0)
        reqs = requirements(make_request(workloads=(1000.0,), ram=1251.0))
        assert model.quote(vm, reqs, 0.0) is None


# Capacities and maxima come from one small set, so a capacity often equals
# the maximum it is tested against; a batch with no tasks left has maxima 0.
LEVELS = (100.0, 800.0, 1740.0)
capacities = st.sampled_from(LEVELS)
cpus = st.sampled_from((500.0, 1000.0, 2500.0))
holders = st.one_of(
    st.builds(make_vm, cpu=cpus, ram=capacities, storage=capacities,
              bandwidth=capacities),
    st.builds(VmSnapshot, st.just("h000v00"), st.just("h000"), cpus,
              capacities, capacities, capacities, st.sampled_from((0.0, 9.0))))


@st.composite
def views(draw):
    """A batch's requirements view with an unbounded deadline."""
    workloads = tuple(draw(st.lists(st.sampled_from((500.0, 2000.0, 10000.0)),
                                    max_size=3)))
    maxima = [draw(st.sampled_from(LEVELS + (2000.0,))) if workloads else 0.0
              for _ in range(3)]
    return model.Requirements("u00000", model.add_up(workloads), *maxima,
                              math.inf, workloads, tuple(range(len(workloads))))


def covers(cap, reqs):
    return (cap.ram >= reqs.max_ram and cap.storage >= reqs.max_storage
            and cap.bandwidth >= reqs.max_bandwidth)


@given(st.lists(holders, max_size=6), views())
def test_fitting_keeps_what_capacity_feasible_accepts_in_order(caps, reqs):
    kept = [id(c) for c in model.fitting(caps, reqs)]
    assert kept == [id(c) for c in caps if model.capacity_feasible(c, reqs)]
    assert kept == [id(c) for c in caps if covers(c, reqs)]


@given(holders, views(), st.sampled_from((0.0, 0.1, 3.0, 1e6)),
       st.sampled_from(("unbounded", "at", "after", "before")))
def test_quote_is_the_completion_when_it_fits_by_the_deadline(cap, reqs, start,
                                                              deadline):
    """The deadline is unbounded, or the completion itself, or one ulp after
    or before it: only the last is too late."""
    completion = start + reqs.total_workload / cap.cpu
    reqs = dataclasses.replace(reqs, deadline={
        "unbounded": math.inf, "at": completion,
        "after": math.nextafter(completion, math.inf),
        "before": math.nextafter(completion, -math.inf)}[deadline])
    got = model.quote(cap, reqs, start)
    if covers(cap, reqs) and deadline != "before":
        assert got == completion
    else:
        assert got is None


class TestReserve:
    def test_cumulative_finishes(self):
        vm = make_vm(cpu=1000.0)
        reqs = reqs_for(vm, workloads=(10000.0, 20000.0, 10000.0))
        res = reserve(vm, reqs, 0.0)
        assert res.per_task_finish == pytest.approx([10.0, 30.0, 40.0])
        assert res.end == pytest.approx(40.0)
        assert model.available_time(vm, 0.0) == pytest.approx(40.0)

    def test_append_after_existing(self):
        vm = make_vm(cpu=500.0)
        reserve(vm, reqs_for(vm, workloads=(50000.0,)), 0.0)   # ends at 100
        res = reserve(vm, reqs_for(vm, workloads=(10000.0,)), 100.0)
        assert res.end == pytest.approx(120.0)

    def test_overlap_rejected(self):
        vm = make_vm(cpu=1000.0)
        reserve(vm, reqs_for(vm, workloads=(100000.0,)), 0.0)  # [0, 100]
        with pytest.raises(OverlapError):
            reserve(vm, reqs_for(vm, workloads=(10000.0,)), 50.0)

    @given(st.lists(st.floats(min_value=100.0, max_value=50000.0),
                    min_size=1, max_size=8))
    def test_tail_booking_never_overlaps(self, workloads):
        vm = make_vm(cpu=1000.0)
        for i, wl in enumerate(workloads):
            reqs = requirements(make_request(f"u{i:05d}", workloads=(wl,)))
            reserve(vm, reqs, model.available_time(vm, 0.0))
        assert_no_overlap(vm)

    def test_booking_before_tail_end_rejected(self):
        vm = make_vm(cpu=1000.0)
        reserve(vm, reqs_for(vm, workloads=(10000.0,)), 0.0)    # [0, 10]
        tail = reserve(vm, reqs_for(vm, workloads=(10000.0,)), 20.0)  # [20, 30]
        # [12, 15] would fit the gap [10, 20], but bookings append at the tail
        for start in (12.0, 0.0, 25.0, 30.0 - 1e-6):
            with pytest.raises(OverlapError):
                reserve(vm, reqs_for(vm, workloads=(3000.0,)), start)
        assert vm.reservations[-1] is tail and len(vm.reservations) == 2
        # within EPS of the tail's end is still a tail append
        reserve(vm, reqs_for(vm, workloads=(1000.0,)), 30.0 - model.EPS / 2)

    def test_booking_checks_released_tail_end(self):
        vm = make_vm(cpu=1000.0)
        res = reserve(vm, reqs_for(vm, workloads=(100000.0,)), 0.0)   # [0, 100]
        res.released_at = 40.0
        with pytest.raises(OverlapError):
            reserve(vm, reqs_for(vm, workloads=(1000.0,)), 39.0)
        assert reserve(vm, reqs_for(vm, workloads=(1000.0,)), 40.0).start == 40.0

    @given(st.lists(st.tuples(st.floats(min_value=100.0, max_value=50000.0),
                              st.sampled_from([0.0, 0.0, 5.0, 12.5])),
                    min_size=1, max_size=12),
           st.sampled_from([0.0, 30.0]))
    def test_tail_bookings_keep_starts_sorted(self, bookings, tau):
        vm = make_vm(cpu=1000.0)
        for i, (wl, gap) in enumerate(bookings):
            reqs = requirements(make_request(f"u{i:05d}", workloads=(wl,)))
            res = reserve(vm, reqs, model.available_time(vm, tau) + gap)
            assert vm.reservations[-1] is res
        starts = [r.start for r in vm.reservations]
        ends = [r.effective_end for r in vm.reservations]
        assert starts == sorted(starts) and ends == sorted(ends)
        assert all(a.effective_end <= b.start
                   for a, b in zip(vm.reservations, vm.reservations[1:]))


class TestCheckpoint:
    def test_progress_reproduces_written_timeline(self):
        vm = make_vm(cpu=1000.0)
        req = make_request(workloads=(10000.0, 20000.0, 10000.0))
        batch = BatchState(req)
        batch.reservation = reserve(vm, requirements(req), 0.0)
        done = checkpoint(batch, vm, 15.0)
        assert done == [0]
        assert batch.finishes[0] == pytest.approx(10.0)
        assert batch.remaining[1] == pytest.approx(15000.0)
        done = checkpoint(batch, vm, 40.0)
        assert done == [1, 2]
        assert batch.finishes == pytest.approx([10.0, 30.0, 40.0])
        assert req.status is RequestStatus.COMPLETED

    def test_success_judged_against_current_deadline(self):
        vm = make_vm(cpu=1000.0)
        req = make_request(workloads=(10000.0, 10000.0), deadline=15.0)
        batch = BatchState(req)
        batch.reservation = reserve(vm, requirements(req), 0.0)
        checkpoint(batch, vm, 20.0)
        assert batch.successes == [True, False]

    def test_no_progress_before_start(self):
        vm = make_vm(cpu=1000.0)
        req = make_request(workloads=(10000.0,))
        batch = BatchState(req)
        batch.reservation = reserve(vm, requirements(req), 50.0)
        checkpoint(batch, vm, 30.0)
        assert batch.remaining == [10000.0]

    def test_remaining_scales_with_inflation(self):
        # executed work is kept; only the un-executed remainder inflates
        vm = make_vm(cpu=1000.0)
        req = make_request(workloads=(10000.0,))
        batch = BatchState(req)
        batch.reservation = reserve(vm, requirements(req), 0.0)
        checkpoint(batch, vm, 5.0)
        assert batch.remaining == [5000.0]
        model.inflate(batch, dict.fromkeys(
            ("workload", "ram", "storage", "bandwidth"), 1.5))
        assert req.tasks[0].workload == 15000.0
        assert batch.remaining_requirements().workloads == (7500.0,)


class TestReleaseRemainder:
    def test_truncates_active_reservation(self):
        vm = make_vm(cpu=1000.0)
        req = make_request(workloads=(10000.0, 10000.0))
        batch = BatchState(req)
        batch.reservation = reserve(vm, requirements(req), 0.0)
        model.release_remainder(batch, vm, 12.0)
        assert batch.reservation is None
        assert vm.reservations[0].effective_end == pytest.approx(12.0)
        assert model.available_time(vm, 12.0) == pytest.approx(12.0)
        assert batch.finishes[0] == pytest.approx(10.0)

    def test_unstarted_reservation_dropped(self):
        vm = make_vm(cpu=1000.0)
        req = make_request(workloads=(10000.0,))
        batch = BatchState(req)
        batch.reservation = reserve(vm, requirements(req), 50.0)
        model.release_remainder(batch, vm, 10.0)
        assert vm.reservations == []



class TestFreshRequirements:
    """`SimWorld.fresh_requirements`: the batch checkpointed to now, then its
    remaining-work view, or None when no work is left to place."""

    def bound(self):
        """A world with one VM of cpu 1000 and one batch of two tasks
        (10000 and 20000 MI) bound on it from 0."""
        vm = make_vm(cpu=1000.0)
        world = make_world([("h000", [vm])],
                           [make_request(workloads=(10000.0, 20000.0))])
        batch = world.batches["u00000"]
        model.bind(batch, reserve(vm, batch.remaining_requirements(), 0.0),
                   Kernel(), lambda b: None)
        return world, batch

    def test_none_for_a_terminal_batch(self):
        world, batch = self.bound()
        model.fail(batch, world.vms, Kernel(), 5.0)
        assert batch.incomplete_indices() == [0, 1]
        assert world.fresh_requirements(batch, 6.0) is None

    def test_none_when_its_own_checkpoint_completes_the_batch(self):
        world, batch = self.bound()
        assert world.fresh_requirements(batch, 30.0) is None
        assert batch.request.status is RequestStatus.COMPLETED
        assert batch.finishes == pytest.approx([10.0, 30.0])

    def test_otherwise_the_cached_view_at_now(self):
        world, batch = self.bound()
        reqs = world.fresh_requirements(batch, 15.0)
        assert reqs is batch.view is batch.remaining_requirements()
        assert reqs.task_indices == (1,)
        assert reqs.workloads == pytest.approx((15000.0,))
        assert batch.request.status is RequestStatus.PENDING
        # an unbound batch has nothing to checkpoint: its whole view
        unbound = BatchState(make_request(workloads=(10000.0, 20000.0)))
        assert world.fresh_requirements(unbound, 15.0) is \
            unbound.remaining_requirements()
        assert unbound.view.task_indices == (0, 1)


class TestNextFinish:
    """`model.next_finish`: the first instant at which a checkpoint can
    finish a task of the bound batch, or inf when none can."""

    def bound(self, start=0.0):
        """As in TestFreshRequirements: two tasks (10000 and 20000 MI) bound
        on one VM of cpu 1000 from `start`, so they finish at start + 10 and
        start + 30."""
        vm = make_vm(cpu=1000.0)
        world = make_world([("h000", [vm])],
                           [make_request(workloads=(10000.0, 20000.0))])
        batch = world.batches["u00000"]
        model.bind(batch, reserve(vm, batch.remaining_requirements(), start),
                   Kernel(), lambda b: None)
        return vm, batch

    def test_the_running_task_less_the_forgiven_leftover(self):
        vm, batch = self.bound()
        forgiven = model.REL * 10000.0 / 1000.0
        assert model.next_finish(batch, vm) == pytest.approx(10.0 - forgiven,
                                                             abs=1e-12)
        model.checkpoint(batch, vm, 12.0)
        assert model.next_finish(batch, vm) == pytest.approx(
            30.0 - model.REL * 20000.0 / 1000.0, abs=1e-12)
        # a checkpoint at that instant finishes the task, one before it not
        vm, batch = self.bound()
        first = model.next_finish(batch, vm)
        assert model.checkpoint(batch, vm, first - 1e-6) == []
        assert model.checkpoint(batch, vm, first) == [0]

    def test_a_queued_slot_counts_from_its_start(self):
        vm, batch = self.bound(start=50.0)
        model.checkpoint(batch, vm, 5.0)
        assert model.next_finish(batch, vm) == pytest.approx(60.0, abs=1e-6)

    def test_the_slot_end_when_it_comes_first(self):
        vm, batch = self.bound()
        model.inflate(batch, {"workload": 2.0, "ram": 1.0, "storage": 1.0,
                              "bandwidth": 1.0})
        model.checkpoint(batch, vm, 12.0)
        # task 0 lacks 8000 MI at 12 and the slot ends at 30: it finishes
        # at 20, task 1 then lacks 30000 MI more than the slot pours
        assert model.next_finish(batch, vm) == pytest.approx(20.0, abs=1e-6)
        model.checkpoint(batch, vm, 21.0)
        assert model.next_finish(batch, vm) == 30.0

    def test_inf_when_no_finish_is_left(self):
        vm, batch = self.bound()
        model.inflate(batch, {"workload": 2.0, "ram": 1.0, "storage": 1.0,
                              "bandwidth": 1.0})
        model.checkpoint(batch, vm, 30.0)
        assert batch.incomplete_indices() == [1]
        assert model.next_finish(batch, vm) == math.inf
        model.fail(batch, {vm.vm_id: vm}, Kernel(), 31.0)
        assert model.next_finish(batch, vm) == math.inf
        assert model.next_finish(BatchState(make_request()), vm) == math.inf


class TestBatchLifecycle:
    """bind / rearm / end_slot / fail: the completion-entry bookkeeping the
    host agents and the central scheduler share."""

    def bound(self):
        kernel = Kernel()
        vm = make_vm(cpu=1000.0)
        batch = BatchState(make_request(workloads=(10000.0, 20000.0)))
        ended = []
        model.bind(batch, reserve(vm, batch.remaining_requirements(), 0.0),
                   kernel, ended.append)
        return kernel, vm, batch, ended

    def test_bind_cancels_the_old_entry(self):
        kernel, vm, batch, ended = self.bound()
        first = batch.completion_entry
        faster = make_vm("h000v01", cpu=2000.0)
        res = reserve(faster, batch.remaining_requirements(), 0.0)
        model.bind(batch, res, kernel, ended.append)
        assert batch.reservation is res
        assert batch.request.status is RequestStatus.PENDING
        assert not kernel.cancel(first)   # no longer pending
        assert len(kernel) == 1
        kernel.run_until_quiescent()
        assert ended == [batch]
        assert kernel.now == res.end == pytest.approx(15.0)

    def test_end_slot_checkpoints_at_the_reservation_end(self):
        kernel, vm, batch, ended = self.bound()
        res = batch.reservation
        assert model.end_slot(batch, {vm.vm_id: vm}) is res
        assert batch.completion_entry is None
        assert batch.request.status is RequestStatus.COMPLETED
        assert batch.finishes == pytest.approx([10.0, 30.0])

    def test_end_slot_moot_for_terminal_or_unbound_batch(self):
        kernel, vm, batch, ended = self.bound()
        entry = batch.completion_entry
        batch.request.status = RequestStatus.FAILED
        assert model.end_slot(batch, {vm.vm_id: vm}) is None
        assert batch.completion_entry == entry
        assert batch.remaining == [10000.0, 20000.0]
        unbound = BatchState(make_request("u00001"))
        assert model.end_slot(unbound, {}) is None
        assert unbound.remaining == [10000.0]

    def test_fail_truncates_cancels_and_returns_the_vm(self):
        kernel, vm, batch, ended = self.bound()
        entry = batch.completion_entry
        assert model.fail(batch, {vm.vm_id: vm}, kernel, 12.0) is vm
        assert vm.reservations[0].effective_end == pytest.approx(12.0)
        assert model.available_time(vm, 0.0) == pytest.approx(12.0)
        assert batch.reservation is None
        assert batch.completion_entry is None
        assert not kernel.cancel(entry)
        assert batch.request.status is RequestStatus.FAILED
        assert batch.finishes[0] == pytest.approx(10.0)
        kernel.run_until_quiescent()
        assert ended == []

    def test_unbind_truncates_and_cancels_without_failing(self):
        kernel, vm, batch, ended = self.bound()
        entry = batch.completion_entry
        assert model.unbind(batch, {vm.vm_id: vm}, kernel, 12.0) is vm
        assert vm.reservations[0].effective_end == pytest.approx(12.0)
        assert batch.reservation is None
        assert batch.completion_entry is None
        assert not kernel.cancel(entry)
        assert batch.request.status is RequestStatus.PENDING
        unbound = BatchState(make_request("u00001"))
        assert model.unbind(unbound, {}, kernel, 0.0) is None
        assert unbound.request.status is RequestStatus.PENDING

    def test_fail_unbound_batch(self):
        batch = BatchState(make_request())
        assert model.fail(batch, {}, Kernel(), 0.0) is None
        assert batch.request.status is RequestStatus.FAILED


class TestTimeline:
    def test_cumulative_finishes(self):
        assert model.timeline(5.0, (1000.0, 3000.0), 1000.0) == [6.0, 9.0]
        assert model.timeline(5.0, (), 1000.0) == []

