"""generate_scenario draws each uniform value as lo + (hi - lo) * rng.random()
with `rng.random` bound once. The reference below is the plain form, one
`rng.uniform` call per field in the same order; both must build the same world
field for field."""

import math
from pathlib import Path

import pytest

from cloudsched.kernel import RngStreams
from cloudsched.model import (Datacenter, Host, SimWorld, TaskSpec,
                              UserRequest, VmDescriptor)
from cloudsched.scenario import ScenarioConfig, generate_scenario

ROOT = Path(__file__).resolve().parent.parent


def reference_scenario(config, rng):
    hosts = []
    for i in range(config.hosts):
        host_id = f"h{i:03d}"
        vms = []
        for k in range(rng.randint(*config.vms_per_host)):
            vms.append(VmDescriptor(
                vm_id=f"{host_id}v{k:02d}", host_id=host_id,
                cpu=rng.uniform(*config.vm_cpu),
                ram=rng.uniform(*config.vm_ram),
                storage=rng.uniform(*config.vm_storage),
                bandwidth=rng.uniform(*config.vm_bandwidth)))
        hosts.append(Host(host_id, vms))
    users = []
    for n in range(config.users):
        user_id = f"u{n:05d}"
        tasks = []
        for p in range(rng.randint(*config.tasks_per_user)):
            tasks.append(TaskSpec(
                task_id=f"{user_id}t{p}",
                workload=rng.uniform(*config.task_workload),
                ram=rng.uniform(*config.task_ram),
                storage=rng.uniform(*config.task_storage),
                bandwidth=rng.uniform(*config.task_bandwidth)))
        deadline = (math.inf if config.deadline is None
                    else rng.uniform(*config.deadline))
        arrival = rng.uniform(*config.arrival_window)
        users.append(UserRequest(user_id, tasks, deadline, arrival=arrival))
    return SimWorld.build(Datacenter(hosts), users)


@pytest.mark.parametrize("name", ["desk.json", "uncertain.json"])
@pytest.mark.parametrize("seed", [1, 7, 23])
def test_world_matches_uniform_reference(name, seed):
    config = ScenarioConfig.from_json(str(ROOT / "configs" / name)) \
        .replaced(seed=seed, users=120)
    got = generate_scenario(config, RngStreams(seed).scenario)
    want = reference_scenario(config, RngStreams(seed).scenario)
    assert [h.host_id for h in got.datacenter.hosts] == \
        [h.host_id for h in want.datacenter.hosts]
    got_vms, want_vms = list(got.vms.values()), list(want.vms.values())
    assert len(got_vms) == len(want_vms) > 0
    for a, b in zip(got_vms, want_vms):
        assert (a.vm_id, a.host_id, a.cpu, a.ram, a.storage, a.bandwidth) == \
            (b.vm_id, b.host_id, b.cpu, b.ram, b.storage, b.bandwidth)
    assert len(got.users) == len(want.users) == config.users
    for a, b in zip(got.users, want.users):
        assert (a.user_id, a.deadline, a.arrival) == (b.user_id, b.deadline, b.arrival)
        assert [(t.task_id, t.workload, t.ram, t.storage, t.bandwidth)
                for t in a.tasks] == \
            [(t.task_id, t.workload, t.ram, t.storage, t.bandwidth) for t in b.tasks]
    assert got.datacenter == want.datacenter and got.users == want.users
