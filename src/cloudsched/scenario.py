"""Scenario configuration and generation.

Default ranges follow the experiment settings this simulator reproduces:
hosts carry 10-20 VMs (cpu 500-2500 MIPS, ram 1250-1740 MB, storage 4-10 GB,
bandwidth 1000-2000 MB/s); users submit 5-10 tasks (workload 10000-40000 MI,
ram 800-1200 MB, storage 1-8 GB, bandwidth 100-500 MB/s). Deadlines are either
a uniform range or unbounded. Generation draws in a fixed order from the
scenario RNG stream, so a seed pins the world bit-exactly.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass, fields
from types import UnionType
from typing import get_args, get_origin

from .model import (Datacenter, Host, SimWorld, TaskSpec, UserRequest,
                    VmDescriptor)
from .rescheduling import UncertainEvent, finite

UNBOUNDED = "unbounded"
SCHEDULERS = ("ara", "mct", "met", "min_min", "round_robin")


class ConfigError(Exception):
    """Invalid scenario configuration (bad range, unknown field, bad value)."""


# (field, lower bound, strict): a range is bounded through its min, and an
# unbounded deadline (None) is not checked
BOUNDS = (
    ("vm_cpu", 0, True), ("vm_ram", 0, True), ("vm_storage", 0, True),
    ("vm_bandwidth", 0, True), ("task_workload", 0, True),
    ("task_ram", 0, False), ("task_storage", 0, False),
    ("task_bandwidth", 0, False), ("arrival_window", 0, False),
    ("vms_per_host", 0, False), ("tasks_per_user", 1, False),
    ("deadline", 0, True), ("hosts", 1, False), ("users", 1, False),
    ("theta", 1, False), ("event_probability", 0, False),
    ("latency", 0, False), ("realloc_cost_per_pair", 0, False),
    ("retry_period", 0, True), ("collect_timeout", 0, True),
    ("lease_timeout", 0, True), ("minmin_interval", 0, True),
    ("time_limit", 0, True))


def _is_number(value, integer: bool) -> bool:
    """A number that converts to a finite float, and an int when `integer`."""
    return finite(value) and (not integer or isinstance(value, int))


@dataclass
class ScenarioConfig:
    seed: int = 1
    hosts: int = 10
    vms_per_host: tuple[int, int] = (10, 20)
    users: int = 10000
    tasks_per_user: tuple[int, int] = (5, 10)
    vm_cpu: tuple[float, float] = (500.0, 2500.0)
    vm_ram: tuple[float, float] = (1250.0, 1740.0)
    vm_storage: tuple[float, float] = (4.0, 10.0)
    vm_bandwidth: tuple[float, float] = (1000.0, 2000.0)
    task_workload: tuple[float, float] = (10000.0, 40000.0)
    task_ram: tuple[float, float] = (800.0, 1200.0)
    task_storage: tuple[float, float] = (1.0, 8.0)
    task_bandwidth: tuple[float, float] = (100.0, 500.0)
    deadline: tuple[float, float] | None = None     # None = unbounded
    theta: int = 5
    arrival_window: tuple[float, float] = (0.0, 100.0)
    scheduler: str = "ara"
    event_probability: float = 0.0
    latency: float = 0.01
    retry_period: float = 5.0
    collect_timeout: float = 1.0
    lease_timeout: float = 10.0
    minmin_interval: float = 10.0
    realloc_cost_per_pair: float = 0.0005
    realloc_cost_enabled: bool = True
    time_limit: float = 1e9
    events: tuple | None = None   # pinned event list for bit-exact replay

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        # each value's shape and type, read from its field's annotation,
        # before its comparisons: NaN fails every comparison, so it would
        # pass them all
        for f in fields(self):
            name, value, want = f.name, getattr(self, f.name), f.type
            optional = isinstance(want, UnionType)      # `X | None`
            if optional:
                if value is None:       # an unbounded deadline, no pinned events
                    continue
                want = get_args(want)[0]
            kind, parts = get_origin(want) or want, get_args(want)
            listed = isinstance(value, (tuple, list))
            if kind is tuple and (not listed or parts and len(value) != len(parts)):
                shape = "a [min, max] range" if parts else "a list"
                raise ConfigError(f"{name} must be {shape}"
                                  + (" or null" if optional else ""))
            if kind is not tuple and listed:
                raise ConfigError(f"{name} must be a single value, not a list")
            if kind is bool and not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false")
            number = parts[0] if parts else kind
            if number in (int, float):
                if not all(_is_number(x, number is int)
                           for x in (value if parts else (value,))):
                    what = "integers" if number is int else "finite numbers"
                    raise ConfigError(f"{name} must hold {what} only")
                if parts and value[0] > value[1]:
                    raise ConfigError(f"{name}: min {value[0]} > max {value[1]}")
        for name, bound, strict in BOUNDS:
            value = getattr(self, name)
            if value is None:
                continue
            ranged = isinstance(value, (tuple, list))
            low = value[0] if ranged else value
            if low < bound or (strict and low == bound):
                rule = ("must be positive" if strict else
                        "cannot be negative" if bound == 0 else
                        f"must be at least {bound}")
                raise ConfigError(f"{name}{': min' if ranged else ''} {rule}")
        if self.vms_per_host[1] < 1:
            raise ConfigError("vms_per_host: max must be at least 1")
        if self.event_probability > 1.0:
            raise ConfigError("event_probability must lie in [0, 1]")
        if self.scheduler not in SCHEDULERS:
            raise ConfigError(f"scheduler must be one of {SCHEDULERS}")
        if self.collect_timeout <= 2 * self.latency:
            # a reply arrives two hops after its request; a listener expiring
            # no later than that (a tie fires the timeout first) never resolves
            raise ConfigError("collect_timeout must exceed 2 * latency")
        for n, entry in enumerate(self.events or ()):
            try:
                UncertainEvent.from_json(entry)
            except ValueError as exc:
                raise ConfigError(f"events[{n}]: {exc}") from exc

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["deadline"] = UNBOUNDED if self.deadline is None else list(self.deadline)
        for key, value in out.items():
            if isinstance(value, tuple):
                out[key] = list(value)
        if out["events"] is None:
            out.pop("events")
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kwargs = {key: tuple(value) if isinstance(value, list) else value
                  for key, value in raw.items()}
        deadline = kwargs.get("deadline")
        if deadline == UNBOUNDED:
            kwargs["deadline"] = None
        elif isinstance(deadline, tuple) and all(_is_number(x, False)
                                                 for x in deadline):
            kwargs["deadline"] = tuple(map(float, deadline))
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, path: str) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        return cls.from_dict(raw)

    def config_hash(self) -> str:
        """Stable digest of everything except the seed, so repetition rows of
        one sweep share a hash."""
        payload = self.to_dict()
        payload.pop("seed")
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def replaced(self, **changes) -> "ScenarioConfig":
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload.update(changes)
        return ScenarioConfig(**payload)


# The config fields `generate_scenario` draws the world from; the seed only
# seeds its stream (and names a failed draw).
WORLD_FIELDS = ("hosts", "vms_per_host", "users", "tasks_per_user", "vm_cpu",
                "vm_ram", "vm_storage", "vm_bandwidth", "task_workload",
                "task_ram", "task_storage", "task_bandwidth", "deadline",
                "arrival_window")


def world_key(config: ScenarioConfig) -> tuple:
    """Two configs with equal keys draw equal worlds from one seed."""
    return tuple(getattr(config, name) for name in WORLD_FIELDS)


def generate_scenario(config: ScenarioConfig, rng: random.Random) -> SimWorld:
    """Draw the datacenter and the user stream; deterministic per (seed, config).
    A uniform draw is CPython's `Random.uniform` formula, lo + (hi - lo) * r()."""
    r = rng.random

    def draw(bounds: tuple[float, float]) -> float:
        return bounds[0] + (bounds[1] - bounds[0]) * r()

    hosts = []
    for i in range(config.hosts):
        host_id = f"h{i:03d}"
        vms = [VmDescriptor(f"{host_id}v{k:02d}", host_id, draw(config.vm_cpu),
                            draw(config.vm_ram), draw(config.vm_storage),
                            draw(config.vm_bandwidth))
               for k in range(rng.randint(*config.vms_per_host))]
        hosts.append(Host(host_id, vms))
    if not any(host.vms for host in hosts):
        raise ConfigError(f"seed {config.seed}: the drawn datacenter holds no VM")
    (wl_lo, wl_hi), (ram_lo, ram_hi), (st_lo, st_hi), (bw_lo, bw_hi) = (
        config.task_workload, config.task_ram, config.task_storage, config.task_bandwidth)
    users = []
    for n in range(config.users):
        user_id = f"u{n:05d}"
        task_count = rng.randint(*config.tasks_per_user)
        tasks = []
        for p in range(task_count):
            tasks.append(TaskSpec(f"{user_id}t{p}",
                                  wl_lo + (wl_hi - wl_lo) * r(),
                                  ram_lo + (ram_hi - ram_lo) * r(),
                                  st_lo + (st_hi - st_lo) * r(),
                                  bw_lo + (bw_hi - bw_lo) * r()))
        deadline = math.inf if config.deadline is None else draw(config.deadline)
        arrival = draw(config.arrival_window)
        users.append(UserRequest(user_id, tasks, deadline, arrival=arrival))
    return SimWorld.build(Datacenter(hosts), users)
