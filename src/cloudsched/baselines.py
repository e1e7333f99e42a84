"""Centralized comparison schedulers over the same world model: minimum
completion time, minimum execution time, shortest-batch-first greedy, and
round-robin, plus a reactive reallocation shim for runs with uncertain events.

The central scheduler is deliberately favored against the agent pipeline: it
sees each batch at its arrival instant with zero messaging latency. Its one
weakness is modeled explicitly: reallocation decisions cost wall time
(per_pair_cost seconds per affected-batch x candidate-VM evaluation) and run
serially, so a stream of events backs the scheduler up and commits land late.
"""

import heapq
from dataclasses import dataclass

from . import model, rescheduling
from .kernel import Kernel
from .model import BatchState, RequestStatus, SimWorld, VmDescriptor
from .rescheduling import UncertainEvent, validate_contract
from .tracelog import NULL_TRACE, TraceLog

MCT = "mct"
MET = "met"
MIN_MIN = "min_min"
ROUND_ROBIN = "round_robin"
CENTRAL_KINDS = (MCT, MET, MIN_MIN, ROUND_ROBIN)


@dataclass
class ResponseCostModel:
    """Seconds of scheduler compute per (affected batch x candidate VM) pair."""
    per_pair_cost: float = 0.0005
    enabled: bool = True

    def delay(self, affected: int, vms: int) -> float:
        if not self.enabled:
            return 0.0
        return self.per_pair_cost * affected * vms


class RingCursor:
    def __init__(self, size: int):
        self.size = size
        self.position = 0

    def advance_past(self, index: int) -> None:
        self.position = (index + 1) % self.size


def _earliest(vms: list[VmDescriptor], reqs: model.Requirements,
              avail: dict[str, float]) -> tuple[float, str, int] | None:
    """(completion, vm_id, index into vms) minimal over `vms`, ties broken by
    vm id; `avail` maps each VM id to the time it can start new work."""
    if not vms:
        return None
    workload = reqs.total_workload
    return min((avail[vm.vm_id] + workload / vm.cpu, vm.vm_id, i)
               for i, vm in enumerate(vms))


def _assign_in_order(pending: list[BatchState], vms: list[VmDescriptor],
                     tau: float, queue_aware: bool) -> list[tuple[str, str | None]]:
    """Each batch, in order, goes to the capacity-feasible VM with the earliest
    completion, counting the VM's queue or not; ties by vm id."""
    assignments: list[tuple[str, str | None]] = []
    for batch in pending:
        reqs = batch.remaining_requirements()
        fits = [vm for vm in vms if model.capacity_feasible(vm, reqs)]
        avail = {vm.vm_id: model.available_time(vm, tau) if queue_aware else 0.0
                 for vm in fits}
        best = _earliest(fits, reqs, avail)
        if best is None:
            assignments.append((batch.request.user_id, None))
            continue
        vm = fits[best[2]]
        model.reserve(vm, reqs, model.available_time(vm, tau))
        assignments.append((batch.request.user_id, vm.vm_id))
    return assignments


def assign_mct(pending: list[BatchState], vms: list[VmDescriptor],
               tau: float) -> list[tuple[str, str | None]]:
    """Each batch, in order, goes to the capacity-feasible VM with the earliest
    expected completion (queue-aware)."""
    return _assign_in_order(pending, vms, tau, queue_aware=True)


def assign_met(pending: list[BatchState], vms: list[VmDescriptor],
               tau: float) -> list[tuple[str, str | None]]:
    """Each batch goes to the capacity-feasible VM with the shortest raw
    execution time, ignoring the queue (ties by vm id) - so powerful VMs
    accumulate everything."""
    return _assign_in_order(pending, vms, tau, queue_aware=False)


def assign_min_min(pending: list[BatchState], vms: list[VmDescriptor],
                   tau: float) -> list[tuple[str, str | None]]:
    """Repeatedly commit the batch whose minimum completion over feasible VMs
    is smallest (shortest batch first), updating availability each round.

    Batches no VM can hold are emitted first, in pending order. Capacities do
    not change inside a flush, so each batch's feasible VMs are listed once,
    and a commit to VM v raises only v's availability: only the batches whose
    best VM was v need re-quoting, every other best (and its vm-id tie-break)
    stands. The current bests sit in a heap keyed (completion, user, vm).
    """
    assignments: list[tuple[str, str | None]] = []
    reqs_of: dict[str, model.Requirements] = {}
    options: dict[str, list[VmDescriptor]] = {}
    for batch in pending:
        user_id = batch.request.user_id
        reqs = reqs_of[user_id] = batch.remaining_requirements()
        fits = [vm for vm in vms if model.capacity_feasible(vm, reqs)]
        if fits:
            options[user_id] = fits
        else:
            assignments.append((user_id, None))
    avail = {vm.vm_id: model.available_time(vm, tau) for vm in vms}
    best: dict[str, tuple[float, str, str, int]] = {}
    waiting: dict[str, list[str]] = {}   # vm_id -> users whose best it is
    heap: list[tuple[float, str, str, int]] = []

    def quote(user_id: str) -> None:
        completion, vm_id, i = _earliest(options[user_id], reqs_of[user_id],
                                         avail)
        best[user_id] = entry = (completion, user_id, vm_id, i)
        waiting.setdefault(vm_id, []).append(user_id)
        heapq.heappush(heap, entry)

    for user_id in options:
        quote(user_id)
    while heap:
        entry = heapq.heappop(heap)
        _, user_id, vm_id, i = entry
        if best.get(user_id) is not entry:
            continue   # placed already, or re-quoted since this was pushed
        del best[user_id]
        reservation = model.reserve(options[user_id][i], reqs_of[user_id],
                                    avail[vm_id])
        avail[vm_id] = reservation.end
        assignments.append((user_id, vm_id))
        for other in waiting.pop(vm_id):
            if other in best:
                quote(other)
    return assignments


def assign_round_robin(pending: list[BatchState], vms: list[VmDescriptor],
                       tau: float, cursor: RingCursor) -> list[tuple[str, str | None]]:
    """Batches in arrival order take the next capacity-feasible VM in circular
    order; the cursor persists across calls and infeasible VMs are skipped."""
    assignments: list[tuple[str, str | None]] = []
    for batch in pending:
        reqs = batch.remaining_requirements()
        chosen = None
        for step in range(cursor.size):
            idx = (cursor.position + step) % cursor.size
            if model.capacity_feasible(vms[idx], reqs):
                chosen = idx
                break
        if chosen is None:
            assignments.append((batch.request.user_id, None))
            continue
        vm = vms[chosen]
        model.reserve(vm, reqs, model.available_time(vm, tau))
        assignments.append((batch.request.user_id, vm.vm_id))
        cursor.advance_past(chosen)
    return assignments


class CentralScheduler:
    """Event-driven driver for the four baseline policies: arrivals commit
    immediately (min-min buffers to its next interval boundary), completion
    entries advance execution, and uncertain events funnel through the
    serialized reactive reallocator."""

    def __init__(self, kind: str, world: SimWorld, kernel: Kernel,
                 cost: ResponseCostModel | None = None,
                 minmin_interval: float = 10.0,
                 trace: TraceLog | None = None):
        if kind not in CENTRAL_KINDS:
            raise ValueError(f"unknown central scheduler kind {kind!r}")
        self.kind = kind
        self.world = world
        self.kernel = kernel
        self.cost = cost if cost is not None else ResponseCostModel(enabled=False)
        self.minmin_interval = minmin_interval
        self.trace = trace if trace is not None else NULL_TRACE
        self.vms = list(world.vms.values())
        self.cursor = RingCursor(len(self.vms))
        self._buffer: list[BatchState] = []
        self._flush_entry: int | None = None
        self._pending: set[str] = set()
        self.busy_until = 0.0

    def start(self) -> None:
        for req in self.world.users:
            batch = self.world.batches[req.user_id]
            self.kernel.schedule(req.arrival, lambda b=batch: self.on_arrival(b),
                                 kind="arrival")

    # -- arrivals ---------------------------------------------------------------

    def on_arrival(self, batch: BatchState) -> None:
        if batch.terminal:
            return
        if self.kind == MIN_MIN:
            self._buffer.append(batch)
            if self._flush_entry is None:
                boundary = (self.kernel.now // self.minmin_interval + 1) * self.minmin_interval
                self._flush_entry = self.kernel.schedule(
                    boundary, self._flush_minmin, kind="minmin-flush")
        else:
            self._place([batch])

    def _flush_minmin(self) -> None:
        self._flush_entry = None
        pending = [b for b in self._buffer if not b.terminal and b.reservation is None]
        self._buffer = []
        self._place(pending)

    def _place(self, pending: list[BatchState]) -> None:
        if not pending:
            return
        tau = self.kernel.now
        if self.kind == MCT:
            pairs = assign_mct(pending, self.vms, tau)
        elif self.kind == MET:
            pairs = assign_met(pending, self.vms, tau)
        elif self.kind == MIN_MIN:
            pairs = assign_min_min(pending, self.vms, tau)
        else:
            pairs = assign_round_robin(pending, self.vms, tau, self.cursor)
        self._absorb(pairs)

    def _absorb(self, pairs: list[tuple[str, str | None]]) -> None:
        """Bind the reservations the assign functions committed to batch state,
        schedule completion entries, and fail unplaceable batches. Bookings
        append to the ledger tail, so a batch's reservation is the newest
        entry for its user on the VM it was placed on."""
        for user_id, vm_id in pairs:
            batch = self.world.batches[user_id]
            if vm_id is None:
                self._fail(batch)
                continue
            reservation = next(res for res in
                               reversed(self.world.vms[vm_id].reservations)
                               if res.user_id == user_id)
            batch.reservation = reservation
            batch.request.status = RequestStatus.SCHEDULED
            if batch.completion_entry is not None:
                self.kernel.cancel(batch.completion_entry)
            batch.completion_entry = self.kernel.schedule(
                reservation.end, lambda b=batch: self._on_slot_end(b),
                kind="completion")
            self.trace.emit(self.kernel.now, self.kind, "contract",
                            user=user_id, vm=vm_id, start=reservation.start,
                            end=reservation.end, deadline=batch.request.deadline)

    def _fail(self, batch: BatchState) -> None:
        if batch.terminal:
            return
        if batch.reservation is not None:
            vm = self.world.vms[batch.reservation.vm_id]
            model.release_remainder(batch, vm, self.kernel.now)
        if batch.completion_entry is not None:
            self.kernel.cancel(batch.completion_entry)
            batch.completion_entry = None
        batch.request.status = RequestStatus.FAILED
        self.trace.emit(self.kernel.now, self.kind, "failed",
                        user=batch.request.user_id,
                        unfinished=len(batch.incomplete_indices()))

    def _on_slot_end(self, batch: BatchState) -> None:
        res = batch.reservation
        if res is None or batch.terminal:
            return
        vm = self.world.vms[res.vm_id]
        model.checkpoint(batch, vm, res.end)
        batch.completion_entry = None
        if batch.request.status is not RequestStatus.COMPLETED:
            # slot expired with inflated work left and no pending realloc:
            # treat as a fresh reallocation request at zero extra cost
            if not self._realloc_pending(batch):
                self.reactive_realloc([batch], self.kernel.now)

    # -- uncertain events --------------------------------------------------------

    def on_event(self, event: UncertainEvent) -> None:
        now = self.kernel.now
        if event.target_kind == "user":
            batch = self.world.batches[event.target_id]
            vm = None
            if batch.reservation is not None:
                vm = self.world.vms[batch.reservation.vm_id]
            applied = rescheduling.apply_user_event(batch, vm, event, now)
            self.trace.emit(now, self.kind, "event", event=event.event_id,
                            target=event.target_id,
                            mutation=type(event.mutation).__name__,
                            vacuous=not applied)
            if not applied:
                return
            if batch.reservation is not None and vm is not None \
                    and not validate_contract(batch, vm, now):
                self.reactive_realloc([batch], now)
        else:
            vm = self.world.vms[event.target_id]
            affected = rescheduling.apply_vm_degrade(vm, event,
                                                     self.world.batches, now)
            self.trace.emit(now, self.kind, "event", event=event.event_id,
                            target=event.target_id, mutation="VmDegrade",
                            affected=len(affected))
            for batch in affected:
                if batch.completion_entry is not None:
                    self.kernel.cancel(batch.completion_entry)
                if batch.reservation is not None:
                    batch.completion_entry = self.kernel.schedule(
                        batch.reservation.end,
                        lambda b=batch: self._on_slot_end(b), kind="completion")
            invalid = [b for b in affected if not validate_contract(b, vm, now)]
            if invalid:
                self.reactive_realloc(sorted(invalid,
                                             key=lambda b: b.request.user_id), now)

    def _realloc_pending(self, batch: BatchState) -> bool:
        return batch.request.user_id in self._pending

    def reactive_realloc(self, affected: list[BatchState], tau: float) -> None:
        """Re-run this policy over the affected batches' remaining work. The
        decision costs per_pair_cost x affected x VMs seconds of scheduler time
        and decisions are serialized, so commits land at the end of the queue."""
        batches = [b for b in affected if not b.terminal
                   and b.request.user_id not in self._pending]
        if not batches:
            return
        for b in batches:
            self._pending.add(b.request.user_id)
        begin = max(tau, self.busy_until)
        commit_at = begin + self.cost.delay(len(batches), len(self.vms))
        self.busy_until = commit_at
        self.trace.emit(tau, self.kind, "realloc_queued",
                        users=[b.request.user_id for b in batches],
                        commit_at=commit_at)
        self.kernel.schedule(commit_at,
                             lambda: self._realloc_commit(batches),
                             kind="realloc-commit")

    def _realloc_commit(self, batches: list[BatchState]) -> None:
        now = self.kernel.now
        pending = []
        for batch in batches:
            self._pending.discard(batch.request.user_id)
            if batch.terminal:
                continue
            if batch.reservation is not None:
                vm = self.world.vms[batch.reservation.vm_id]
                model.checkpoint(batch, vm, now)
                if batch.terminal:
                    continue
                model.release_remainder(batch, vm, now)
            if batch.completion_entry is not None:
                self.kernel.cancel(batch.completion_entry)
                batch.completion_entry = None
            if now >= batch.request.deadline:
                self._fail(batch)
                continue
            pending.append(batch)
        self._place(pending)
