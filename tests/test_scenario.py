"""generate_scenario draws each uniform value as lo + (hi - lo) * rng.random()
with `rng.random` bound once. The reference below is the plain form, one
`rng.uniform` call per field in the same order; both must build the same world
field for field.

`ScenarioConfig.validate` rejects a NaN or infinite number in every float
field and range, a non-integer in every integer field and range, and a value
whose shape does not fit its field's annotation."""

import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from cloudsched.kernel import RngStreams
from cloudsched.model import (Datacenter, Host, SimWorld, TaskSpec,
                              UserRequest, VmDescriptor)
from cloudsched.scenario import (BOUNDS, ConfigError, ScenarioConfig,
                                generate_scenario)

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


NON_FINITE = [math.nan, math.inf, -math.inf]


def numeric_fields(*types):
    """The config fields annotated with one of `types`."""
    return tuple(f.name for f in fields(ScenarioConfig) if f.type in types)


INT_FIELDS = numeric_fields(int)
INT_RANGES = numeric_fields(tuple[int, int])
FLOAT_FIELDS = numeric_fields(float)
FLOAT_RANGES = numeric_fields(tuple[float, float], tuple[float, float] | None)


def test_every_numeric_field_is_covered():
    assert len(INT_FIELDS + INT_RANGES + FLOAT_FIELDS + FLOAT_RANGES) == 24
    assert "deadline" in FLOAT_RANGES and "seed" in INT_FIELDS


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_float_field_rejected(name, bad):
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig.from_dict({name: bad})


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("at", [0, 1])
@pytest.mark.parametrize("name", FLOAT_RANGES)
def test_non_finite_range_bound_rejected(name, at, bad):
    bounds = list(getattr(ScenarioConfig(), name) or (850.0, 2100.0))
    bounds[at] = bad
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig.from_dict({name: bounds})


@pytest.mark.parametrize("bad", [2.5, 1.0, True, "3", math.nan])
@pytest.mark.parametrize("name", INT_FIELDS)
def test_non_integer_field_rejected(name, bad):
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig.from_dict({name: bad})
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig().replaced(**{name: bad})


@pytest.mark.parametrize("bounds", [[1.0, 2], [1, 2.5], [True, 2], [1, math.inf]])
@pytest.mark.parametrize("name", INT_RANGES)
def test_non_integer_range_bound_rejected(name, bounds):
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig.from_dict({name: bounds})


RANGE = "must be a [min, max] range"
SINGLE = "must be a single value, not a list"


@pytest.mark.parametrize("name", INT_RANGES + FLOAT_RANGES)
@pytest.mark.parametrize("bad", [5, True, "soon", [], [1, 2, 3]])
def test_range_field_must_be_two_numbers(name, bad):
    with pytest.raises(ConfigError, match=re.escape(f"{name} {RANGE}")):
        ScenarioConfig.from_dict({name: bad})


@pytest.mark.parametrize("name", INT_FIELDS + FLOAT_FIELDS + ("scheduler",))
@pytest.mark.parametrize("bad", [[10, 20], [], ["ara"]])
def test_scalar_field_is_not_a_list(name, bad):
    with pytest.raises(ConfigError, match=f"^{name} {SINGLE}$"):
        ScenarioConfig.from_dict({name: bad})
    with pytest.raises(ConfigError, match=f"^{name} {SINGLE}$"):
        ScenarioConfig().replaced(**{name: tuple(bad)})


@pytest.mark.parametrize("name, bad, message", [
    ("deadline", 5, f"deadline {RANGE} or null"),
    ("deadline", ["10", "20"], "deadline must hold finite numbers only"),
    ("vm_cpu", 5, f"vm_cpu {RANGE}"),
    ("events", 5, "events must be a list or null"),
    ("events", {"event_id": 0}, "events must be a list or null"),
    ("realloc_cost_enabled", "no", "realloc_cost_enabled must be true or false"),
    ("realloc_cost_enabled", 0, "realloc_cost_enabled must be true or false"),
])
def test_wrong_shape_names_its_field(name, bad, message):
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict({name: bad})
    assert str(err.value) == message


def test_valid_configs_keep_their_hash():
    """An integral deadline is read as floats, as before the shape checks,
    so the config files and golden rows keep their `config_hash`."""
    hashes = {name: ScenarioConfig.from_json(str(ROOT / "configs" / name))
              .config_hash() for name in ("desk.json", "uncertain.json")}
    assert hashes == {"desk.json": "156cde5dab46",
                      "uncertain.json": "5a0bfc2f96a4"}
    assert ScenarioConfig.from_dict({"deadline": [2000, 5000]}) == \
        ScenarioConfig(deadline=(2000.0, 5000.0))


def test_integral_numbers_and_unbounded_deadline_still_accepted():
    config = ScenarioConfig.from_dict({
        "vm_cpu": [500, 2500], "latency": 0, "event_probability": 1,
        "time_limit": 100, "deadline": "unbounded"})
    assert config.deadline is None and config.vm_cpu == (500, 2500)


@pytest.mark.parametrize("name, bound, strict", BOUNDS)
def test_lower_bounds(name, bound, strict):
    """Each bounded field (a range through its min) is rejected below its
    bound, and at it when the bound is strict."""
    def config_with(low):
        value = getattr(ScenarioConfig(), name)
        if name == "deadline":                      # unbounded by default
            return {name: [low, 2100.0]}
        if isinstance(value, tuple):
            return {name: [low, max(low, value[1])]}
        return {name: low}
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig.from_dict(config_with(bound - 1))
    if strict:
        with pytest.raises(ConfigError, match=name):
            ScenarioConfig.from_dict(config_with(bound))
    else:
        assert ScenarioConfig.from_dict(config_with(bound))


def inflate(workload_factor):
    """A pinned task_inflate of the first user with this workload factor."""
    return {"event_id": 0, "fire_at": 1.0, "target_kind": "user",
            "target_id": "u00000",
            "mutation": {"kind": "task_inflate",
                         "factors": {"workload": workload_factor, "ram": 1.2,
                                     "storage": 1.2, "bandwidth": 1.2}}}


def test_shrinking_inflation_rejected_tiny_workloads_accepted():
    """A pinned task_inflate may only grow work, so a workload factor below 1
    is rejected. A task workload has no floor but zero: tiny tasks run to
    quiescence (see test_cli's test_tiny_task_workloads_run_to_quiescence)."""
    with pytest.raises(ConfigError, match="events.0.: task_inflate workload"):
        ScenarioConfig.from_dict({"events": [inflate(1e-12)]})
    assert ScenarioConfig.from_dict({"task_workload": [1e-300, 1e-299],
                                     "events": [inflate(1.0)]})
