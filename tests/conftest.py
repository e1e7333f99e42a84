import pytest

from cloudsched.model import (EPS, BatchState, Datacenter, Host, OverlapError,
                              SimWorld, TaskSpec, UserRequest, VmDescriptor)
from cloudsched.tracelog import TraceLog


def make_vm(vm_id="h000v00", host_id="h000", cpu=1000.0, ram=1740.0,
            storage=10.0, bandwidth=2000.0):
    return VmDescriptor(vm_id, host_id, cpu, ram, storage, bandwidth)


def make_request(user_id="u00000", workloads=(10000.0,), deadline=float("inf"),
                 ram=800.0, storage=1.0, bandwidth=100.0, arrival=0.0):
    tasks = [TaskSpec(f"{user_id}t{i}", wl, ram, storage, bandwidth)
             for i, wl in enumerate(workloads)]
    return UserRequest(user_id, tasks, deadline, arrival=arrival)


def requirements(req):
    """The whole batch's requirements view: an unstarted batch's remainder."""
    return BatchState(req).remaining_requirements()


def make_world(vm_specs, requests):
    """vm_specs: list of (host_id, [vm kwargs dicts]) or a flat list of VMs."""
    hosts = []
    for host_id, vms in vm_specs:
        hosts.append(Host(host_id, vms))
    return SimWorld.build(Datacenter(hosts), list(requests))


def assert_no_overlap(vm):
    """Pairwise-disjoint executed/active intervals on the VM."""
    spans = sorted((r.start, r.effective_end) for r in vm.reservations)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        if s2 < e1 - EPS:
            raise OverlapError(f"vm {vm.vm_id}: [{s1},{e1}] overlaps [{s2},{e2}]")


def placed(pairs):
    """An assigner's (user_id, Reservation | None) pairs as (user_id, vm_id |
    None), checking that each reservation was booked for its own user."""
    assert all(res is None or res.user_id == user_id for user_id, res in pairs)
    return [(user_id, None if res is None else res.vm_id) for user_id, res in pairs]


def ledger_rows(result):
    """Every ledger entry of a run as (user_id, vm_id, start, effective end),
    sorted."""
    return sorted((res.user_id, res.vm_id, res.start, res.effective_end)
                  for vm in result.world.vms.values() for res in vm.reservations)


@pytest.fixture
def emit_only_when_enabled(monkeypatch):
    """Makes `TraceLog.emit`, `message` and `lease` fail on a disabled log:
    with tracing off, every emit site must skip the call, and building its
    arguments with it."""
    for name in ("emit", "message", "lease"):
        monkeypatch.setattr(TraceLog, name, _strict(name, getattr(TraceLog, name)))


def _strict(name, method):
    def strict(self, *args, **detail):
        if not self.enabled:
            raise AssertionError(f"{name}{args} with tracing off")
        method(self, *args, **detail)
    return strict
