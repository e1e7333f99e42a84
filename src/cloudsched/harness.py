"""Run orchestration: build a world from a config, execute it under the chosen
scheduler, inject uncertain events, and emit metrics rows.

Runs with a nonzero event probability first execute a no-event twin of the same
seed to estimate the horizon; event fire times are then drawn uniformly over
(0, horizon) so events land during execution for every scheduler. `sweep` and
`compare` probe each (config, seed) once and share the horizon across
probabilities. They also generate each seed's world and draw its events once,
as a template that no run writes, and run every cell and probe on a copy.
Their cells run in groups that share a probe, spread over forked processes.
"""

import csv
import io
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import NoReturn, TextIO

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
    """A generated world that no run writes, and its event draws and probe
    horizons, made when a run first needs them. Each run takes a copy of the
    world, except a `run_simulation` run on its own template's last use."""

    def __init__(self, config: ScenarioConfig):
        self.world = generate_scenario(config, RngStreams(config.seed).scenario)
        self._draws: list[rescheduling.EventDraw] | None = None
        self._horizons: dict[str, float] = {}   # no-event twin's config_hash

    def events(self, config: ScenarioConfig,
               horizon: float | None = None) -> list[UncertainEvent]:
        """The events of `config`, whose seed is the template's: its pinned
        ones, or those drawn for its probability over the horizon. Without
        a horizon, it is the makespan of the no-event twin, probed once per
        twin and kept."""
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
        if horizon is None:
            twin = config.replaced(event_probability=0.0)
            if (key := twin.config_hash()) not in self._horizons:
                self._horizons[key] = self.run(
                    twin, TraceLog(enabled=False)).metrics.makespan
            horizon = self._horizons[key]
        if self._draws is None:
            self._draws = rescheduling.draw_events(
                self.world.users, list(self.world.vms.values()),
                RngStreams(config.seed).events)
        if horizon <= 0.0:
            horizon = max(1.0, config.arrival_window[1])
        return rescheduling.select_events(self._draws, config.event_probability,
                                          horizon)

    def run(self, config: ScenarioConfig, trace: TraceLog,
            horizon: float | None = None, last_use: bool = False) -> RunResult:
        """The one run step: the config on a copy of the world (on the world
        itself at its last use), with its events."""
        events = self.events(config, horizon)
        return _execute(config, self.world if last_use else self.world.copy(),
                        events, trace)


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
    trace = TraceLog(enabled=collect_trace or trace_sink is not None,
                     sink=trace_sink)
    try:
        return template.run(config, trace, horizon, last_use=True)
    finally:
        if trace_sink is not None:
            trace.write()


def cut_warning(result: RunResult, label: str = "") -> str:
    """The stderr warning of a run cut at time_limit, else ""; `label` names
    the run within a grid."""
    if not result.truncated:
        return ""
    return (f"warning: run{label} cut at time_limit "
            f"{result.config.time_limit:g} before quiescence; the row counts "
            f"only work finished by then")


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


class _GridWorker:
    """One process's share of a grid: the template of the world and seed it
    ran last."""

    def __init__(self):
        self.key: tuple | None = None
        self.template: _Template | None = None

    def row(self, cfg: ScenarioConfig, axis: str, value) -> tuple[dict, str]:
        """Run one grid cell; its row and its cut warning ("" if none). An
        error raised gets a note naming the cell."""
        label = f"scheduler {cfg.scheduler}, seed {cfg.seed}, {axis} {value}"
        try:
            key = (world_key(cfg), cfg.seed)
            if key != self.key:
                self.key = self.template = None     # drop the old world first
                self.template, self.key = _Template(cfg), key
            result = self.template.run(cfg, TraceLog(enabled=False))
        except Exception as exc:
            exc.add_note(f"in grid cell ({label})")
            raise
        return (result_row(result, axis=axis, axis_value=value),
                cut_warning(result, f" ({label})"))


def usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_groups(groups: list[list[tuple]], claim) -> dict[int, list | Exception]:
    """Run the groups that this process claims, by index, until none is left
    or one raises; a group that raises stops the claims of every process."""
    worker = _GridWorker()
    done: dict[int, list | Exception] = {}
    while (i := claim()) < len(groups):
        try:
            done[i] = [worker.row(*cell) for cell in groups[i]]
        except Exception as exc:
            done[i] = exc
            claim(stop=True)
            break
    return done


def _fork_map(groups: list[list[tuple]], claim,
              children: int) -> dict[int, list | Exception]:
    """Run the groups on this process and `children` forked ones; what each
    ran, merged. Every child is reaped before this returns or raises, and
    killed first if this process fails outside a cell."""
    import pickle
    import signal
    pids: list[int] = []        # the children not yet reaped
    reads: list[int] = []       # the read end of each child's result pipe
    try:
        for _ in range(children):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(groups, claim, w)
            finally:
                os.close(w)
            pids.append(pid)
        done = _run_groups(groups, claim)
        for pid, r in list(zip(pids, reads)):
            with open(r, "rb", closefd=False) as fh:
                payload = fh.read()
            if not payload:
                pids.remove(pid)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                how = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"grid worker process {pid} ended by {how} "
                                   f"without sending its rows")
            done.update(pickle.loads(payload))
        return done
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for r in reads:
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)


def _child(groups: list[list[tuple]], claim, out: int) -> NoReturn:
    """A forked grid worker: run the groups it claims, write what it ran as
    one pickle to `out`, and end with os._exit, so that it never returns
    into its caller nor flushes the stdio buffers it inherited."""
    status = 1
    try:
        import pickle
        done = _run_groups(groups, claim)
        for i, result in done.items():
            if isinstance(result, Exception):
                done[i] = _portable(result)
        payload = pickle.dumps(done)
        with open(out, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


def _portable(exc: Exception) -> Exception:
    """`exc` with its traceback added as a note, since a pickle keeps the
    notes but not the traceback; if `exc` does not come back whole from a
    pickle, a RuntimeError with its repr and notes instead."""
    import pickle
    import traceback
    exc.add_note("traceback in the grid worker process (most recent call "
                 "last):\n" + "".join(traceback.format_tb(exc.__traceback__))
                 .rstrip())
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        stand_in = RuntimeError(f"a grid cell raised {exc!r}, which cannot be "
                                f"sent between processes")
        for note in exc.__notes__:
            stand_in.add_note(note)
        return stand_in


def _grid(groups: list[list[tuple]], key) -> list[dict]:
    """The rows of every cell, sorted by `key`; their cut warnings go to
    stderr in that order. Each group of (config, axis, value) cells runs
    whole in one process. One process per usable core, at most one per
    group, this one included, each claim the next unclaimed group: its
    index is a token in a pipe that one process holds at a time. One
    process runs them all when one core is usable (`taskset -c 0` makes it
    so), when there is one group, or when fork is missing or unsafe (the
    process runs other threads). The first group in order that raised
    raises here."""
    import threading
    n = len(groups)
    workers = min(usable_cores(), n)
    token = os.pipe()

    def claim(stop: bool = False) -> int:
        i = int.from_bytes(os.read(token[0], 4), "little")
        os.write(token[1], (n if stop else min(i + 1, n)).to_bytes(4, "little"))
        return i

    try:
        os.write(token[1], (0).to_bytes(4, "little"))
        if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
            done = _fork_map(groups, claim, workers - 1)
        else:
            done = _run_groups(groups, claim)
    finally:
        os.close(token[0])
        os.close(token[1])
    for i in sorted(done):
        if isinstance(done[i], Exception):
            raise done[i]
    cells = sorted((cell for i in range(n) for cell in done[i]),
                   key=lambda cell: key(cell[0]))
    for _, warning in cells:
        if warning:
            print(warning, file=sys.stderr)
    return [row for row, _ in cells]


def check_grid(config: ScenarioConfig, axis: str, values: list, reps: int,
               schedulers: list[str] | None = None) -> None:
    """Raise ValueError or ConfigError, before any run, for a sweep grid or
    (with `schedulers`) a compare grid that cannot run."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}")
    if schedulers is None and not values:
        raise ValueError("sweep requires at least one axis value")
    if schedulers is not None and not (schedulers and values):
        raise ConfigError("compare requires a scheduler and a probability")
    if reps < 1:
        raise ConfigError(f"reps must be at least 1, got {reps}")
    for value in values:
        _cell(config, axis, value)
    for scheduler in schedulers or ():
        config.replaced(scheduler=scheduler)


def _cell(config: ScenarioConfig, axis: str, value, **changes) -> ScenarioConfig:
    """The config of a grid cell: `axis` set to `value`, and `changes`."""
    if axis == "probability":
        return config.replaced(event_probability=float(value), **changes)
    if not float(value).is_integer():
        raise ConfigError(f"{axis}: {value} is not an integer")
    return config.replaced(**{axis: int(value)}, **changes)


def sweep(config: ScenarioConfig, axis: str, values: list,
          reps: int = 1) -> list[dict]:
    """One run per (axis value, repetition seed); rows in (value, seed) order.
    A group is one cell, or one seed on the probability axis, where its
    cells share a probe; `_grid` spreads the groups over the usable cores."""
    check_grid(config, axis, values, reps)
    groups = []
    for rep in range(reps):
        cells = [(_cell(config, axis, value, seed=config.seed + rep), axis, value)
                 for value in values]
        groups += [cells] if axis == "probability" else [[c] for c in cells]
    return _grid(groups, lambda r: (float(r["axis_value"]), r["seed"]))


def compare(config: ScenarioConfig, schedulers: list[str],
            probabilities: list[float], reps: int = 1) -> list[dict]:
    """Grid of scheduler x event probability x repetition seed; the no-event
    probe runs once per (scheduler, seed), not once per probability. A
    group is one (seed, scheduler); `_grid` spreads the groups over the
    usable cores."""
    check_grid(config, "probability", probabilities, reps, schedulers)
    groups = [[(_cell(config, "probability", p, scheduler=scheduler,
                      seed=config.seed + rep), "probability", p)
               for p in probabilities]
              for rep in range(reps) for scheduler in schedulers]
    return _grid(groups, lambda r: (r["scheduler"], float(r["axis_value"]),
                                    r["seed"]))


def write_csv(rows: list[dict], fh: TextIO) -> None:
    """The rows under a header, into a text file opened with newline=""."""
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)


def csv_bytes(rows: list[dict]) -> bytes:
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue().encode()
