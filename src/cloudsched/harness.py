"""Run orchestration: build a world from a config, execute it under the chosen
scheduler, inject uncertain events, and emit metrics rows.

Runs with a nonzero event probability first execute a no-event twin of the same
seed to estimate the horizon; event fire times are then drawn uniformly over
(0, horizon) so events land during execution for every scheduler. `sweep` and
`compare` probe each (config, seed) once and share the horizon across
probabilities. They also generate each seed's world and draw its events once,
as a template that no run writes, and run every cell and probe on a copy.
"""

import csv
import io
import sys
from dataclasses import dataclass
from functools import partial
from typing import TextIO

from . import rescheduling
from .agents import HostAgent, SuperviseAgent, UserAgent
from .baselines import CentralScheduler
from .bdi import AgentRuntime
from .kernel import Kernel, RngStreams
from .metrics import RunMetrics, compute_metrics
from .model import SimWorld
from .rescheduling import UncertainEvent
from .scenario import ConfigError, ScenarioConfig, generate_scenario, world_key
from .tracelog import TraceLog

CSV_COLUMNS = ("config_hash", "scheduler", "axis", "axis_value", "seed",
               "makespan", "utilization_variance", "success_rate",
               "total_tasks", "successful_tasks", "vm_count")


@dataclass
class RunResult:
    config: ScenarioConfig
    metrics: RunMetrics
    world: SimWorld
    trace: TraceLog
    events: list[UncertainEvent]
    final_time: float
    runtime: AgentRuntime | None = None
    truncated: bool = False     # cut at config.time_limit with entries pending


class _Template:
    """A generated world that no run writes, and its event draws, made when
    a run first needs them. Each run takes a copy of the world, except a
    `run_simulation` run on its own template's last use."""

    def __init__(self, config: ScenarioConfig):
        self.world = generate_scenario(config, RngStreams(config.seed).scenario)
        self._draws: list[rescheduling.EventDraw] | None = None

    def events(self, config: ScenarioConfig,
               horizon: float | None) -> list[UncertainEvent]:
        """The events of `config`, whose seed is the template's: its pinned
        ones, or those drawn for its probability over the horizon."""
        if config.events is not None:
            events = [UncertainEvent.from_json(e) for e in config.events]
            for event in events:
                targets = (self.world.batches if event.target_kind == "user"
                           else self.world.vms)
                if event.target_id not in targets:
                    raise ConfigError(f"event {event.event_id} targets unknown "
                                      f"{event.target_kind} {event.target_id!r}")
            return events
        if config.event_probability <= 0.0:
            return []
        if self._draws is None:
            self._draws = rescheduling.draw_events(
                self.world.users, list(self.world.vms.values()),
                RngStreams(config.seed).events)
        if horizon <= 0.0:
            horizon = max(1.0, config.arrival_window[1])
        return rescheduling.select_events(self._draws, config.event_probability,
                                          horizon)


def _execute(config: ScenarioConfig, world: SimWorld,
             events: list[UncertainEvent], trace: TraceLog) -> RunResult:
    kernel = Kernel()
    runtime = None
    if config.scheduler == "ara":
        runtime = AgentRuntime(kernel, latency=config.latency,
                               collect_timeout=config.collect_timeout, trace=trace)
        supervise = SuperviseAgent(runtime, theta=config.theta,
                                   lease_timeout=config.lease_timeout)
        runtime.register(supervise)
        host_agents = {}
        for host in world.datacenter.hosts:
            agent = HostAgent(runtime, host, world, supervise.id)
            runtime.register(agent)
            host_agents[host.host_id] = agent
        user_agents = {}
        for req in world.users:
            agent = UserAgent(runtime, world.batches[req.user_id], world,
                              supervise.id, retry_period=config.retry_period)
            runtime.register(agent)
            user_agents[req.user_id] = agent
        for agent in host_agents.values():
            agent.start()
        for req in world.users:
            agent = user_agents[req.user_id]
            kernel.schedule(req.arrival, agent.start, kind="arrival")

        def on_event(event: UncertainEvent) -> None:
            if event.target_kind == "user":
                user_agents[event.target_id].on_user_event(event)
            else:
                host_agents[world.vms[event.target_id].host_id].on_vm_event(event)
    else:
        realloc_cost = (config.realloc_cost_per_pair
                        if config.realloc_cost_enabled else 0.0)
        driver = CentralScheduler(config.scheduler, world, kernel,
                                  realloc_cost=realloc_cost,
                                  minmin_interval=config.minmin_interval,
                                  trace=trace)
        driver.start()
        on_event = driver.on_event
    for event in events:
        kernel.schedule(event.fire_at, partial(on_event, event),
                        kind="uncertain-event")
    final_time = kernel.run_until_quiescent(config.time_limit)
    metrics = compute_metrics(world)
    return RunResult(config, metrics, world, trace, events, final_time,
                     runtime=runtime, truncated=len(kernel) > 0)


def _run(config: ScenarioConfig, template: _Template, horizon: float | None,
         trace: TraceLog, last_use: bool = False) -> RunResult:
    """The one run step: the config on a copy of the template's world (on
    the world itself at its last use), with the template's events for it."""
    world = template.world if last_use else template.world.copy()
    return _execute(config, world, template.events(config, horizon), trace)


def _probe_horizon(config: ScenarioConfig, template: _Template) -> float:
    """Makespan of the no-event twin: the horizon event times are drawn over."""
    probe = _run(config.replaced(event_probability=0.0), template, None,
                 TraceLog(enabled=False))
    return probe.metrics.makespan


def _shared_horizon(config: ScenarioConfig, template: _Template,
                    probed: dict[tuple[str, int], float]) -> float | None:
    """The probe horizon of a run that draws events, probed once per (config
    without its probability, seed) and kept in `probed`; else None."""
    if config.event_probability <= 0.0 or config.events is not None:
        return None
    key = (config.replaced(event_probability=0.0).config_hash(), config.seed)
    if key not in probed:
        probed[key] = _probe_horizon(config, template)
    return probed[key]


def run_simulation(config: ScenarioConfig, collect_trace: bool = False,
                   horizon: float | None = None,
                   trace_sink: TextIO | None = None) -> RunResult:
    """One full run. The config's `events` list, when set, is replayed as is.
    Otherwise, with event_probability > 0, a no-event twin of the same seed
    supplies the horizon for event times; callers sweeping several
    probabilities can pass that horizon in once.

    With `trace_sink` (an open text file) the trace streams into it, and every
    record is in the file when the run returns or raises."""
    template = _Template(config)
    if horizon is None:
        horizon = _shared_horizon(config, template, {})
    trace = TraceLog(enabled=collect_trace or trace_sink is not None,
                     sink=trace_sink)
    try:
        return _run(config, template, horizon, trace, last_use=True)
    finally:
        if trace_sink is not None:
            trace.write()


def warn_if_cut(result: RunResult, label: str = "") -> None:
    """One stderr warning for a run cut at time_limit; `label` names the run
    within a grid."""
    if result.truncated:
        print(f"warning: run{label} cut at time_limit "
              f"{result.config.time_limit:g} before quiescence; the row counts "
              f"only work finished by then", file=sys.stderr)


def result_row(result: RunResult, axis: str = "", axis_value="") -> dict:
    m = result.metrics
    return {
        "config_hash": result.config.config_hash(),
        "scheduler": result.config.scheduler,
        "axis": axis,
        "axis_value": axis_value,
        "seed": result.config.seed,
        "makespan": repr(m.makespan),
        "utilization_variance": repr(m.utilization_variance),
        "success_rate": repr(m.success_rate),
        "total_tasks": m.total_tasks,
        "successful_tasks": m.successful_tasks,
        "vm_count": m.vm_count,
    }


AXES = ("theta", "hosts", "probability")


def _grid_row(cfg: ScenarioConfig, templates: dict[int, _Template],
              probed: dict[tuple[str, int], float], axis: str, value) -> dict:
    """Run one grid cell on its seed's template, made on first use and kept
    in `templates`, sharing its probe horizon; return its row."""
    template = templates.get(cfg.seed)
    if template is None:
        template = templates[cfg.seed] = _Template(cfg)
    result = _run(cfg, template, _shared_horizon(cfg, template, probed),
                  TraceLog(enabled=False))
    warn_if_cut(result, f" (scheduler {cfg.scheduler}, seed {cfg.seed}, "
                        f"{axis} {value})")
    return result_row(result, axis=axis, axis_value=value)


def sweep(config: ScenarioConfig, axis: str, values: list,
          reps: int = 1) -> list[dict]:
    """One run per (axis value, repetition seed); rows in (value, seed) order.
    Runs share one template per seed until the axis changes the world."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}")
    if not values:
        raise ValueError("sweep requires at least one axis value")
    if axis != "probability":
        for value in values:
            if not float(value).is_integer():
                raise ConfigError(f"{axis}: {value} is not an integer")
    rows = []
    probed: dict[tuple[str, int], float] = {}
    templates: dict[int, _Template] = {}
    shape = None
    for value in values:
        for rep in range(reps):
            seed = config.seed + rep
            if axis == "theta":
                cfg = config.replaced(theta=int(value), seed=seed)
            elif axis == "hosts":
                cfg = config.replaced(hosts=int(value), seed=seed)
            else:
                cfg = config.replaced(event_probability=float(value), seed=seed)
            if world_key(cfg) != shape:
                shape, templates = world_key(cfg), {}
            rows.append(_grid_row(cfg, templates, probed, axis, value))
    rows.sort(key=lambda r: (float(r["axis_value"]), r["seed"]))
    return rows


def compare(config: ScenarioConfig, schedulers: list[str],
            probabilities: list[float], reps: int = 1) -> list[dict]:
    """Grid of scheduler x event probability x repetition seed; the no-event
    probe runs once per (scheduler, seed), not once per probability. Seeds
    go outermost, so one template is held at a time."""
    rows = []
    probed: dict[tuple[str, int], float] = {}
    for rep in range(reps):
        templates: dict[int, _Template] = {}
        for scheduler in schedulers:
            for p in probabilities:
                cfg = config.replaced(scheduler=scheduler,
                                      event_probability=float(p),
                                      seed=config.seed + rep)
                rows.append(_grid_row(cfg, templates, probed, "probability", p))
    rows.sort(key=lambda r: (r["scheduler"], float(r["axis_value"]), r["seed"]))
    return rows


def write_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def csv_bytes(rows: list[dict]) -> bytes:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode()
