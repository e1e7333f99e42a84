import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudsched import model
from cloudsched.kernel import RngStream
from cloudsched.metrics import compute_metrics, utilization_variance
from cloudsched.scenario import ConfigError, ScenarioConfig, generate_scenario

from conftest import make_request, make_vm, make_world, requirements


def ledger_makespan(world):
    """Independent cross-check: the latest per-task finish over every committed
    reservation, scanned straight from the VM ledgers."""
    latest = 0.0
    for vm in world.vms.values():
        for res in vm.reservations:
            for finish in res.per_task_finish:
                if finish <= res.effective_end + 1e-9 and finish > latest:
                    latest = finish
    return latest


class TestVariance:
    def test_symmetric_zero(self):
        assert utilization_variance([0.5, 0.5]) == 0.0

    def test_opposite_corners(self):
        assert utilization_variance([0.0, 1.0]) == pytest.approx(0.25)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                    max_size=40))
    def test_non_negative(self, us):
        assert utilization_variance(us) >= 0.0

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=1, max_value=40))
    def test_zero_iff_all_equal(self, u, n):
        assert utilization_variance([u] * n) == pytest.approx(0.0, abs=1e-12)


class TestComputeMetrics:
    def test_success_rate_counts_tasks(self):
        vm = make_vm(cpu=1000.0)
        req = make_request(workloads=(10000.0,) * 4, deadline=35.0)
        world = make_world([("h000", [vm])], [req])
        batch = world.batches["u00000"]
        batch.reservation = model.reserve(vm, requirements(req), 0.0)
        model.checkpoint(batch, vm, 40.0)
        m = compute_metrics(world)
        assert m.success_rate == pytest.approx(0.75)   # 3 of 4 in time
        assert m.makespan == pytest.approx(40.0)

    def test_never_scheduled_tasks_are_failures(self):
        vm = make_vm(cpu=1000.0)
        scheduled = make_request("u00000", workloads=(10000.0,))
        stranded = make_request("u00001", workloads=(10000.0, 10000.0))
        world = make_world([("h000", [vm])], [scheduled, stranded])
        batch = world.batches["u00000"]
        batch.reservation = model.reserve(vm, requirements(scheduled), 0.0)
        model.checkpoint(batch, vm, 10.0)
        m = compute_metrics(world)
        assert m.total_tasks == 3
        assert m.successful_tasks == 1
        assert m.success_rate == pytest.approx(1 / 3)

    def test_zero_scheduled_reports_zeros(self):
        world = make_world([("h000", [make_vm()])],
                           [make_request(workloads=(1000.0,))])
        m = compute_metrics(world)
        assert (m.makespan, m.success_rate, m.utilization_variance) == (0, 0, 0)

    def test_utilization_is_busy_fraction(self):
        busy = make_vm("a", cpu=1000.0)
        idle = make_vm("b", cpu=1000.0)
        req = make_request(workloads=(10000.0,))
        world = make_world([("h000", [busy, idle])], [req])
        batch = world.batches["u00000"]
        batch.reservation = model.reserve(busy, requirements(req), 0.0)
        model.checkpoint(batch, busy, 10.0)
        m = compute_metrics(world)
        assert m.per_vm_utilization == pytest.approx([1.0, 0.0])
        assert m.utilization_variance == pytest.approx(0.25)

    def test_ledger_cross_check(self):
        vm = make_vm(cpu=1000.0)
        req = make_request(workloads=(10000.0, 20000.0))
        world = make_world([("h000", [vm])], [req])
        batch = world.batches["u00000"]
        batch.reservation = model.reserve(vm, requirements(req), 0.0)
        model.checkpoint(batch, vm, 30.0)
        assert ledger_makespan(world) == pytest.approx(compute_metrics(world).makespan)


class TestScenarioGeneration:
    def test_same_seed_same_world(self):
        config = ScenarioConfig(seed=5, users=20, hosts=3)
        a = generate_scenario(config, RngStream(5, "scenario"))
        b = generate_scenario(config, RngStream(5, "scenario"))
        assert [vm.cpu for vm in a.vms.values()] == \
            [vm.cpu for vm in b.vms.values()]
        assert [u.deadline for u in a.users] == [u.deadline for u in b.users]
        assert [t.workload for u in a.users for t in u.tasks] == \
            [t.workload for u in b.users for t in u.tasks]

    def test_counts_within_configured_ranges(self):
        config = ScenarioConfig(seed=2, users=50, hosts=10)
        world = generate_scenario(config, RngStream(2, "scenario"))
        total_tasks = sum(len(u.tasks) for u in world.users)
        assert 50 * 5 <= total_tasks <= 50 * 10
        assert 10 * 10 <= len(world.vms) <= 10 * 20
        for vm in world.vms.values():
            assert 500.0 <= vm.cpu <= 2500.0
            assert 1250.0 <= vm.ram <= 1740.0
        for user in world.users:
            assert user.deadline == math.inf
            for task in user.tasks:
                assert 10000.0 <= task.workload <= 40000.0

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(vm_cpu=(2500.0, 500.0))

    @pytest.mark.parametrize("field, value", [
        ("arrival_window", (-10.0, 0.0)),
        ("vms_per_host", (0, 0)),
        ("vms_per_host", (-1, 3)),
        ("tasks_per_user", (0, 4)),
        ("vm_cpu", (0.0, 2500.0)),
        ("vm_storage", (-1.0, 10.0)),
        ("task_workload", (0.0, 40000.0)),
        ("task_ram", (-5.0, 1200.0)),
    ])
    def test_unrunnable_range_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ScenarioConfig(**{field: value})

    def test_boundary_ranges_accepted(self):
        ScenarioConfig(arrival_window=(0.0, 0.0), vms_per_host=(0, 1),
                       tasks_per_user=(1, 1), task_ram=(0.0, 0.0))

    def test_collect_timeout_must_exceed_round_trip(self):
        # a reply lands exactly 2 * latency after its request, and a listener
        # timeout at the same instant fires first
        with pytest.raises(ConfigError):
            ScenarioConfig(collect_timeout=0.02, latency=0.01)
        ScenarioConfig(collect_timeout=0.021, latency=0.01)

    @pytest.mark.parametrize("seed", [2, 3, 6])
    def test_drawn_datacenter_without_vms_rejected(self, seed):
        config = ScenarioConfig(seed=seed, hosts=1, vms_per_host=(0, 1), users=20)
        with pytest.raises(ConfigError):
            generate_scenario(config, RngStream(seed, "scenario"))

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"users": 5, "warp_drive": True})

    def test_deadline_unbounded_round_trip(self):
        config = ScenarioConfig(deadline=None)
        again = ScenarioConfig.from_dict(config.to_dict())
        assert again.deadline is None
        config2 = ScenarioConfig(deadline=(2000.0, 5000.0))
        again2 = ScenarioConfig.from_dict(config2.to_dict())
        assert again2.deadline == (2000.0, 5000.0)

    def test_config_hash_ignores_seed_only(self):
        base = ScenarioConfig(seed=1, users=50)
        assert base.config_hash() == ScenarioConfig(seed=2, users=50).config_hash()
        assert base.config_hash() != ScenarioConfig(seed=1, users=51).config_hash()
