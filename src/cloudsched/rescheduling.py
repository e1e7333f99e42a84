"""Uncertain events and contract validity.

Three mutation kinds, each hitting at most one target once per run:
  - TaskInflate: every requirement field of a batch's unfinished tasks grows
    by a per-field factor in [1.10, 1.50]; executed fractions are kept, so
    only the un-executed remainder inflates.
  - DeadlineCut: the batch deadline drops by 100..1000 s, floored at the clock.
  - VmDegrade: every capacity field of a VM shrinks by a per-field factor in
    [0.50, 0.90]; the timelines of all reservations on that VM are rebuilt at
    the new cpu (in-progress work continues from the event instant, queued
    work shifts later), which is what makes downstream contracts checkable.

A workload inflation leaves the written reservation interval too small for the
work, and a deadline cut may strand the written end past the deadline; either
way validate_contract turns false and the owning agent's rescheduling desire
fires. Capacity degradation repairs the timeline first, so a degraded-but-slack
contract stays valid and triggers nothing.
"""

import math
import random
from dataclasses import dataclass
from typing import Callable

from . import model
from .kernel import Kernel
from .model import (BatchState, Reservation, SimWorld, TaskSpec, UserRequest,
                    VmDescriptor)
from .tracelog import TraceLog

TASK_INFLATE_RANGE = (1.10, 1.50)
VM_DEGRADE_RANGE = (0.50, 0.90)
DEADLINE_CUT_RANGE = (100.0, 1000.0)

TASK_FIELDS = ("workload", "ram", "storage", "bandwidth")
VM_FIELDS = ("cpu", "ram", "storage", "bandwidth")


@dataclass(frozen=True)
class TaskInflate:
    factors: dict[str, float]


@dataclass(frozen=True)
class DeadlineCut:
    delta: float


@dataclass(frozen=True)
class VmDegrade:
    factors: dict[str, float]


@dataclass(frozen=True)
class UncertainEvent:
    event_id: int
    fire_at: float
    target_kind: str                    # "user" | "vm"
    target_id: str
    mutation: TaskInflate | DeadlineCut | VmDegrade

    def to_json(self) -> dict:
        body: dict = {"event_id": self.event_id, "fire_at": self.fire_at,
                      "target_kind": self.target_kind, "target_id": self.target_id}
        if isinstance(self.mutation, TaskInflate):
            body["mutation"] = {"kind": "task_inflate", "factors": self.mutation.factors}
        elif isinstance(self.mutation, DeadlineCut):
            body["mutation"] = {"kind": "deadline_cut", "delta": self.mutation.delta}
        else:
            body["mutation"] = {"kind": "vm_degrade", "factors": self.mutation.factors}
        return body

    @staticmethod
    def from_json(body) -> "UncertainEvent":
        """An event from its `to_json` form. ValueError names the first flaw:
        a wrong shape or kind, a mutation that does not fit its target kind,
        a missing or non-positive factor, a task_inflate workload factor
        below 1 (one that shrinks tasks to nothing completes them unrun), a
        negative or non-finite time."""
        if not isinstance(body, dict) or not isinstance(body.get("mutation"), dict):
            raise ValueError("an event must be an object with a mutation object")
        m = body["mutation"]
        kind = m.get("kind")
        if kind not in MUTATION_KINDS:
            raise ValueError(f"unknown mutation kind {kind!r}")
        target_kind, names = MUTATION_KINDS[kind]
        if body.get("target_kind") != target_kind:
            raise ValueError(f"a {kind} event must target a {target_kind}")
        event_id, fire_at = body.get("event_id"), body.get("fire_at")
        if not (_finite(event_id) and float(event_id).is_integer()):
            raise ValueError("event_id must be an integer")
        if not isinstance(body.get("target_id"), str):
            raise ValueError("target_id must be a string")
        if not _finite(fire_at) or fire_at < 0:
            raise ValueError("fire_at must be a finite number >= 0")
        if names is None:
            if not _finite(m.get("delta")):
                raise ValueError("delta must be a finite number")
            mutation: TaskInflate | DeadlineCut | VmDegrade = DeadlineCut(float(m["delta"]))
        else:
            factors = m.get("factors")
            if not isinstance(factors, dict) or not all(
                    _finite(factors.get(f)) and factors[f] > 0 for f in names):
                raise ValueError(f"{kind} factors must give {', '.join(names)} "
                                 f"as finite positive numbers")
            if kind == "task_inflate" and factors["workload"] < 1:
                raise ValueError("task_inflate workload factor must be at least 1")
            mutation = (TaskInflate if kind == "task_inflate" else VmDegrade)(dict(factors))
        return UncertainEvent(int(event_id), float(fire_at), target_kind,
                              body["target_id"], mutation)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# mutation kind -> (the target kind it applies to, its factor fields or None)
MUTATION_KINDS = {"task_inflate": ("user", TASK_FIELDS),
                  "deadline_cut": ("user", None),
                  "vm_degrade": ("vm", VM_FIELDS)}


# One target's draws: (selection draw, fire-time draw in [0, 1), target kind,
# target id, mutation).
EventDraw = tuple[float, float, str, str, TaskInflate | DeadlineCut | VmDegrade]


def draw_events(users: list[UserRequest], vms: list[VmDescriptor],
                rng: random.Random) -> list[EventDraw]:
    """The random draws behind `generate_events`, which need no probability
    and no horizon: one per batch, then one per VM, consuming the stream in
    the order `generate_events` always has."""
    r = rng.random
    draws: list[EventDraw] = []
    for req in users:
        pick, at = r(), r()
        inflate = r() < 0.5
        factors = {f: rng.uniform(*TASK_INFLATE_RANGE) for f in TASK_FIELDS}
        delta = rng.uniform(*DEADLINE_CUT_RANGE)
        draws.append((pick, at, "user", req.user_id,
                      TaskInflate(factors) if inflate else DeadlineCut(delta)))
    for vm in vms:
        pick, at = r(), r()
        factors = {f: rng.uniform(*VM_DEGRADE_RANGE) for f in VM_FIELDS}
        draws.append((pick, at, "vm", vm.vm_id, VmDegrade(factors)))
    return draws


def select_events(draws: list[EventDraw], probability: float,
                  horizon: float) -> list[UncertainEvent]:
    """The events of one (probability, horizon): a target is selected when
    its selection draw is below the probability, and fires at
    `Random.uniform(0, horizon)`'s value for its fire-time draw."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    events: list[UncertainEvent] = []
    for pick, at, kind, target_id, mutation in draws:
        if pick < probability:
            events.append(UncertainEvent(len(events), 0.0 + (horizon - 0.0) * at,
                                         kind, target_id, mutation))
    events.sort(key=lambda e: (e.fire_at, e.event_id))
    return events


def generate_events(users: list[UserRequest], vms: list[VmDescriptor],
                    probability: float, rng: random.Random,
                    horizon: float) -> list[UncertainEvent]:
    """Draw at most one event per batch and per VM, each independently selected
    with the given probability; fire times are uniform over (0, horizon).

    Every target consumes the same draws whether or not it is selected, so on
    a fixed seed the event set at a higher probability is a superset of the
    set at a lower one (raising p never reshuffles the surviving events).
    """
    return select_events(draw_events(users, vms, rng), probability, horizon)


def validate_contract(batch: BatchState, vm: VmDescriptor, now: float) -> bool:
    """True iff the written contract still delivers: the VM's capacities cover the
    remaining tasks, the written end meets the current deadline, and the remaining
    workload physically fits the remaining reserved interval at current cpu."""
    res = batch.reservation
    if res is None:
        return False
    reqs = batch.remaining_requirements()
    if not reqs.task_indices:
        return True
    if not model.capacity_feasible(vm, reqs):
        return False
    if res.end > batch.request.deadline:
        return False
    window = res.end - max(now, res.start)
    return reqs.total_workload <= vm.cpu * window + 1e-6 * max(1.0, reqs.total_workload)


def apply_user_event(batch: BatchState, vm: VmDescriptor | None,
                     event: UncertainEvent, now: float) -> bool:
    """Mutate a batch's ground truth. Progress is checkpointed first so that tasks
    finished before the event keep their outcome under the pre-event deadline.
    Returns False when the target batch is already terminal (vacuous event)."""
    if batch.terminal:
        return False
    if vm is not None:
        model.checkpoint(batch, vm, now)
        if batch.terminal:
            return False
    mutation = event.mutation
    batch.view = None
    if isinstance(mutation, TaskInflate):
        # a new spec, as the worlds copied from one template share the old one
        tasks, factors = batch.request.tasks, mutation.factors
        for i in batch.incomplete_indices():
            task = tasks[i]
            tasks[i] = TaskSpec(task.task_id, task.workload * factors["workload"],
                                task.ram * factors["ram"],
                                task.storage * factors["storage"],
                                task.bandwidth * factors["bandwidth"])
    elif isinstance(mutation, DeadlineCut):
        batch.request.deadline = max(now, batch.request.deadline - mutation.delta)
    else:
        raise ValueError(f"event {event.event_id} targets a user but mutates a VM")
    return True


def apply_vm_degrade(vm: VmDescriptor, event: UncertainEvent,
                     batches_by_user: dict[str, BatchState],
                     now: float) -> list[BatchState]:
    """Scale the VM's capacities down and rebuild every touched reservation
    timeline at the new cpu. Returns the affected batches (reservation active at
    or after the event) in ledger order, which is start order; `apply_event`
    re-arms them in that order and re-validates them sorted by user id."""
    mutation = event.mutation
    assert isinstance(mutation, VmDegrade)
    live: list[tuple[Reservation, BatchState]] = []
    for res in vm.reservations:
        if res.released_at is not None or res.effective_end <= now:
            continue
        batch = batches_by_user.get(res.user_id)
        if batch is None or batch.reservation is not res:
            continue
        model.checkpoint(batch, vm, now)
        if not batch.terminal:
            live.append((res, batch))

    for f in VM_FIELDS:
        setattr(vm, f, getattr(vm, f) * mutation.factors[f])

    cursor = now
    for res, batch in live:
        cursor = model.retime(res, batch.remaining_requirements(), vm.cpu, now,
                              cursor)
    return [batch for _, batch in live]


def apply_event(event: UncertainEvent, world: SimWorld, kernel: Kernel,
                on_end: Callable[[BatchState], None] | None, trace: TraceLog,
                who: object) -> list[BatchState]:
    """Apply one uncertain event to the world at the kernel's clock, write its
    `event` record as agent `str(who)`, and return the batches whose contracts
    it broke, sorted by user id.

    A user event can break only its own batch, and only when it applied and
    the batch is bound. A VM degrade re-arms the completion entry of every
    affected batch, in ledger order, with `on_end` (unused for user events)."""
    now = kernel.now
    if event.target_kind == "user":
        batch = world.batches[event.target_id]
        res = batch.reservation
        vm = None if res is None else world.vms[res.vm_id]
        applied = apply_user_event(batch, vm, event, now)
        broken = [batch] if applied and vm is not None \
            and not validate_contract(batch, vm, now) else []
        detail = {"vacuous": not applied}
    else:
        vm = world.vms[event.target_id]
        affected = apply_vm_degrade(vm, event, world.batches, now)
        for batch in affected:
            model.rearm(batch, kernel, on_end)
        broken = sorted((b for b in affected if not validate_contract(b, vm, now)),
                        key=lambda b: b.request.user_id)
        detail = {"affected": len(affected)}
    if trace.enabled:
        trace.emit(now, str(who), "event", event=event.event_id,
                   target=event.target_id,
                   mutation=type(event.mutation).__name__, **detail)
    return broken


@dataclass
class RescheduleCycle:
    """One user's pursuit of a replacement contract after an uncertain event:
    intentions run i1 (same VM) then i2 (same host) then i3 (global) within a
    pass, and passes repeat until resolved or the deadline passes."""

    user_id: str
    triggering_event: int
    attempts: int = 0
    passes: int = 0
