"""Property test guarding the O(1) ledger-tail read of model.available_time.

available_time reads only the ledger's last entry (or the one before it when
the last is excluded); that equals the definition - the latest effective end
over every entry but the excluded one - only while each VM's ledger is sorted
by start and disjoint, so that the effective ends are sorted too. Random small
worlds with uncertain events run under all five schedulers; every call made
during the run is checked against the full scan kept here, and so is every
ledger when the run ends.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from cloudsched import ara, model
from cloudsched.harness import run_simulation
from cloudsched.scenario import SCHEDULERS, ScenarioConfig

from conftest import assert_no_overlap


def full_scan(vm, tau, exclude=None):
    at = tau
    for res in vm.reservations:
        if res is not exclude and res.effective_end > at:
            at = res.effective_end
    return at


def check_ledger(vm, taus):
    assert_no_overlap(vm)
    starts = [r.start for r in vm.reservations]
    ends = [r.effective_end for r in vm.reservations]
    assert starts == sorted(starts), vm.vm_id
    assert ends == sorted(ends), vm.vm_id
    for tau in taus:
        for exclude in [None] + vm.reservations:
            assert model.available_time(vm, tau, exclude) == \
                full_scan(vm, tau, exclude)


worlds = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000),
    "users": st.integers(1, 30),
    "hosts": st.integers(1, 3),
    "vms_per_host": st.sampled_from([(1, 1), (1, 3), (2, 4)]),
    "tasks_per_user": st.sampled_from([(1, 2), (5, 10)]),
    "arrival_window": st.sampled_from([(0.0, 0.0), (0.0, 30.0), (0.0, 120.0)]),
    "deadline": st.sampled_from([None, (60.0, 300.0), (200.0, 1200.0)]),
    "event_probability": st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    "theta": st.integers(1, 4),
})


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@settings(max_examples=20, deadline=None)
@given(world=worlds)
def test_tail_read_equals_full_scan(scheduler, world):
    config = ScenarioConfig(scheduler=scheduler, **world)
    tail_read = model.available_time
    calls = []

    def checked(vm, tau, exclude=None):
        got = tail_read(vm, tau, exclude)
        assert got == full_scan(vm, tau, exclude), (vm.vm_id, tau)
        calls.append(1)
        return got

    model.available_time = ara.available_time = checked
    try:
        result = run_simulation(config)
    finally:
        model.available_time = ara.available_time = tail_read
    # every booking quotes availability first (a world whose batches no VM
    # can hold books nothing)
    booked = any(vm.reservations for vm in result.world.vms.values())
    assert calls or not booked
    for vm in result.world.vms.values():
        check_ledger(vm, (0.0, result.final_time / 2, result.final_time))
