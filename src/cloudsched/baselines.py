"""Centralized comparison schedulers over the same world model: minimum
completion time, minimum execution time, shortest-batch-first greedy, and
round-robin, plus a reactive reallocation shim for runs with uncertain events.

The central scheduler is deliberately favored against the agent pipeline: it
sees each batch at its arrival instant with zero messaging latency. Its one
weakness is modeled explicitly: reallocation decisions cost wall time
(realloc_cost seconds per affected-batch x candidate-VM evaluation) and run
serially, so a stream of events backs the scheduler up and commits land late.
"""

import heapq

from . import model, rescheduling
from .kernel import Kernel
from .model import BatchState, RequestStatus, SimWorld, VmDescriptor
from .rescheduling import UncertainEvent
from .tracelog import NULL_TRACE, TraceLog

MCT = "mct"
MET = "met"
MIN_MIN = "min_min"
ROUND_ROBIN = "round_robin"
CENTRAL_KINDS = (MCT, MET, MIN_MIN, ROUND_ROBIN)


Placement = tuple[str, model.Reservation | None]


def _assign_in_order(pending: list[BatchState], vms: list[VmDescriptor],
                     tau: float, queue_aware: bool) -> list[Placement]:
    """Each batch, in order, goes to the capacity-feasible VM with the earliest
    completion, counting the VM's queue or not; ties by vm id. Only VMs that
    fit are quoted."""
    assignments: list[Placement] = []
    for batch in pending:
        reqs = batch.remaining_requirements()
        workload = reqs.total_workload
        best = None
        for vm in model.fitting(vms, reqs):
            completion = ((model.available_time(vm, tau) if queue_aware else 0.0)
                          + workload / vm.cpu)
            if best is None or completion < best_completion or (
                    completion == best_completion and vm.vm_id < best.vm_id):
                best, best_completion = vm, completion
        reservation = None if best is None else model.reserve(
            best, reqs, model.available_time(best, tau))
        assignments.append((batch.request.user_id, reservation))
    return assignments


def assign_mct(pending: list[BatchState], vms: list[VmDescriptor],
               tau: float) -> list[Placement]:
    """Each batch, in order, goes to the capacity-feasible VM with the earliest
    expected completion (queue-aware)."""
    return _assign_in_order(pending, vms, tau, queue_aware=True)


def assign_met(pending: list[BatchState], vms: list[VmDescriptor],
               tau: float) -> list[Placement]:
    """Each batch goes to the capacity-feasible VM with the shortest raw
    execution time, ignoring the queue (ties by vm id) - so powerful VMs
    accumulate everything."""
    return _assign_in_order(pending, vms, tau, queue_aware=False)


def assign_min_min(pending: list[BatchState], vms: list[VmDescriptor],
                   tau: float) -> list[Placement]:
    """Repeatedly commit the batch whose minimum completion over feasible VMs
    is smallest (shortest batch first), updating availability each round.

    Batches no VM can hold are emitted first, in pending order. The flush heap
    holds one (completion, user, vm id, vm) entry per unplaced batch. Inside a
    flush availabilities only rise, so stored completions are lower bounds: a
    popped entry still equal to avail + W / cpu is the true minimum and is
    committed; a stale one refreshes its batch's own heap of (completion, vm
    id, vm) over its feasible VMs (built when the batch first goes stale) until
    the top is current, and goes back in.
    """
    assignments: list[Placement] = []
    avail = {vm.vm_id: model.available_time(vm, tau) for vm in vms}
    def quotes(reqs: model.Requirements) -> list[tuple[float, str, VmDescriptor]]:
        workload = reqs.total_workload
        return [(avail[vm.vm_id] + workload / vm.cpu, vm.vm_id, vm)
                for vm in model.fitting(vms, reqs)]
    options: dict[str, list] = {}   # user -> [reqs, its heap once stale]
    heap: list[tuple[float, str, str, VmDescriptor]] = []
    for batch in pending:
        reqs = batch.remaining_requirements()
        own = quotes(reqs)
        if own:
            options[reqs.user_id] = [reqs, None]
            completion, vm_id, vm = min(own)
            heap.append((completion, reqs.user_id, vm_id, vm))
        else:
            assignments.append((reqs.user_id, None))
    heapq.heapify(heap)
    while heap:
        completion, user_id, vm_id, vm = heapq.heappop(heap)
        reqs, own = state = options[user_id]
        workload = reqs.total_workload
        if completion == avail[vm_id] + workload / vm.cpu:
            del options[user_id]
            reservation = model.reserve(vm, reqs, avail[vm_id])
            avail[vm_id] = reservation.end
            assignments.append((user_id, reservation))
            continue
        if own is None:
            own = state[1] = quotes(reqs)
            heapq.heapify(own)
        completion, vm_id, vm = own[0]
        while completion != (current := avail[vm_id] + workload / vm.cpu):
            heapq.heapreplace(own, (current, vm_id, vm))
            completion, vm_id, vm = own[0]
        heapq.heappush(heap, (completion, user_id, vm_id, vm))
    return assignments


def assign_round_robin(pending: list[BatchState], vms: list[VmDescriptor],
                       tau: float, start: int = 0) -> list[Placement]:
    """Batches in arrival order take the next capacity-feasible VM in circular
    order, skipping infeasible VMs: the first batch's scan begins at
    vms[start], each later one's just past the VM the batch before it took."""
    assignments: list[Placement] = []
    size = len(vms)
    for batch in pending:
        reqs = batch.remaining_requirements()
        reservation = None
        for step in range(size):
            idx = (start + step) % size
            vm = vms[idx]
            if model.capacity_feasible(vm, reqs):
                reservation = model.reserve(vm, reqs, model.available_time(vm, tau))
                start = (idx + 1) % size
                break
        assignments.append((batch.request.user_id, reservation))
    return assignments


class CentralScheduler:
    """Event-driven driver for the four baseline policies: arrivals commit
    immediately (min-min buffers to its next interval boundary), completion
    entries advance execution, and uncertain events funnel through the
    serialized reactive reallocator."""

    def __init__(self, kind: str, world: SimWorld, kernel: Kernel,
                 realloc_cost: float = 0.0,
                 minmin_interval: float = 10.0,
                 trace: TraceLog | None = None):
        if kind not in CENTRAL_KINDS:
            raise ValueError(f"unknown central scheduler kind {kind!r}")
        self.kind = kind
        self.world = world
        self.kernel = kernel
        self.realloc_cost = realloc_cost
        self.minmin_interval = minmin_interval
        self.trace = trace if trace is not None else NULL_TRACE
        self.vms = list(world.vms.values())
        self.ring = 0       # where round_robin's next scan begins
        self._ring_index = {vm.vm_id: i for i, vm in enumerate(self.vms)}
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
            pairs = assign_round_robin(pending, self.vms, tau, self.ring)
            taken = [res.vm_id for _, res in pairs if res is not None]
            if taken:
                self.ring = (self._ring_index[taken[-1]] + 1) % len(self.vms)
        self._absorb(pairs)

    def _absorb(self, pairs: list[Placement]) -> None:
        """Bind the reservations the assign functions booked to batch state,
        schedule completion entries, and fail unplaceable batches."""
        for user_id, reservation in pairs:
            batch = self.world.batches[user_id]
            if reservation is None:
                self._fail(batch)
                continue
            model.bind(batch, reservation, self.kernel, self._on_slot_end)
            if self.trace.enabled:
                self.trace.emit(self.kernel.now, self.kind, "contract",
                                user=user_id, vm=reservation.vm_id,
                                start=reservation.start, end=reservation.end,
                                deadline=batch.request.deadline)

    def _fail(self, batch: BatchState) -> None:
        if batch.terminal:
            return
        model.fail(batch, self.world.vms, self.kernel, self.kernel.now)
        if self.trace.enabled:
            self.trace.emit(self.kernel.now, self.kind, "failed",
                            user=batch.request.user_id,
                            unfinished=len(batch.incomplete_indices()))

    def _on_slot_end(self, batch: BatchState) -> None:
        if model.end_slot(batch, self.world.vms) is None:
            return
        if batch.request.status is not RequestStatus.COMPLETED and \
                batch.request.user_id not in self._pending:
            # slot expired with inflated work left and no pending realloc:
            # treat as a fresh reallocation request
            self.reactive_realloc([batch], self.kernel.now)

    # -- uncertain events --------------------------------------------------------

    def on_event(self, event: UncertainEvent) -> None:
        broken = rescheduling.apply_event(event, self.world, self.kernel,
                                          self._on_slot_end, self.trace, self.kind)
        if broken:
            self.reactive_realloc(broken, self.kernel.now)

    def reactive_realloc(self, affected: list[BatchState], tau: float) -> None:
        """Re-run this policy over the affected batches' remaining work. The
        decision costs realloc_cost x affected x VMs seconds of scheduler time
        and decisions are serialized, so commits land at the end of the queue."""
        batches = [b for b in affected if not b.terminal
                   and b.request.user_id not in self._pending]
        if not batches:
            return
        for b in batches:
            self._pending.add(b.request.user_id)
        begin = max(tau, self.busy_until)
        commit_at = begin + self.realloc_cost * len(batches) * len(self.vms)
        self.busy_until = commit_at
        if self.trace.enabled:
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
            if self.world.fresh_requirements(batch, now) is None:
                continue
            model.unbind(batch, self.world.vms, self.kernel, now)
            if now >= batch.request.deadline:
                self._fail(batch)
                continue
            pending.append(batch)
        self._place(pending)
