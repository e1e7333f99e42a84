"""Domain model of the IaaS environment: datacenter, hosts, VMs, user batches,
reservations, the feasibility and timeline arithmetic used by every
scheduler, and the batch lifecycle (bind, re-arm, slot end, unbind, fail)
shared by the host agents and the central scheduler. No other module writes a
reservation, a VM's ledger, a request's status or a batch's progress.

Placement is whole-batch: a user's task set goes to exactly one VM and runs
sequentially in submission order. Capacity fields (ram/storage/bandwidth) are
rating constraints compared against per-task maxima; only CPU time-shares.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable

from .kernel import Kernel

EPS = 1e-9
REL = 1e-9       # a leftover at most this share of its work counts as none


class RequestStatus(str, Enum):
    PENDING = "PENDING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"


@dataclass
class TaskSpec:
    """One task's requirements. No run writes a TaskSpec: the worlds copied
    from one template share them, so a TaskInflate puts a new spec in the
    request's task list instead."""

    task_id: str
    workload: float        # MI
    ram: float             # MB
    storage: float         # GB
    bandwidth: float       # MB/s

    def __post_init__(self):
        if self.workload <= 0:
            raise ValueError(f"task {self.task_id}: workload must be positive")
        if self.ram < 0 or self.storage < 0 or self.bandwidth < 0:
            raise ValueError(f"task {self.task_id}: negative resource requirement")


@dataclass
class UserRequest:
    user_id: str
    tasks: list[TaskSpec]
    deadline: float        # seconds; may be inf ("unbounded")
    arrival: float = 0.0
    status: RequestStatus = RequestStatus.PENDING

    def __post_init__(self):
        if not self.tasks:
            raise ValueError(f"user {self.user_id}: empty task batch")
        if self.deadline <= 0:
            raise ValueError(f"user {self.user_id}: deadline must be positive")


@dataclass
class Reservation:
    """Contract binding one user's batch (or its remainder) to one VM over an interval.

    per_task_finish holds cumulative finish times for the covered tasks, computed
    with the VM's cpu at contract time; the last element equals `end` up to float
    rounding (`reserve` divides the total workload, a degrade repair takes
    the last finish). A released reservation keeps its executed prefix in the
    ledger for utilization accounting.
    """

    user_id: str
    vm_id: str
    start: float
    end: float
    task_indices: list[int]
    per_task_finish: list[float]
    deadline_at_formation: float
    released_at: float | None = None

    @property
    def effective_end(self) -> float:
        return self.end if self.released_at is None else self.released_at


@dataclass
class VmDescriptor:
    vm_id: str
    host_id: str
    cpu: float             # MIPS
    ram: float             # MB
    storage: float         # GB
    bandwidth: float       # MB/s
    reservations: list[Reservation] = field(default_factory=list)

    def __post_init__(self):
        if min(self.cpu, self.ram, self.storage, self.bandwidth) <= 0:
            raise ValueError(f"vm {self.vm_id}: capacities must be strictly positive")


@dataclass
class Host:
    host_id: str
    vms: list[VmDescriptor]


@dataclass
class Datacenter:
    hosts: list[Host]

    def __post_init__(self):
        seen = set()
        for host in self.hosts:
            if host.host_id in seen:
                raise ValueError(f"duplicate host id {host.host_id}")
            seen.add(host.host_id)


@dataclass(frozen=True)
class Requirements:
    """Aggregate view of a batch (or its remainder) as the schedulers consume it."""

    user_id: str
    total_workload: float
    max_ram: float
    max_storage: float
    max_bandwidth: float
    deadline: float
    workloads: tuple[float, ...]
    task_indices: tuple[int, ...]


def available_time(vm: VmDescriptor, tau: float,
                   exclude: Reservation | None = None) -> float:
    """Next time the VM can start new work: max(tau, end of last reservation).

    `exclude` ignores one reservation, used when re-quoting a batch on its own
    VM as if its unconsumed remainder were already released.

    The ledger is sorted by start and its intervals are disjoint, so their
    effective ends are sorted too and the latest one is the tail's (or, when
    the tail is excluded, the entry before it).
    """
    ledger = vm.reservations
    i = len(ledger) - 1
    if i >= 0 and ledger[i] is exclude:
        i -= 1
    if i < 0:
        return tau
    end = ledger[i].effective_end
    return end if end > tau else tau


def capacity_feasible(cap, reqs: Requirements) -> bool:
    """The capacities of `cap` (a VM or a registry snapshot of one) cover the
    batch's per-task maxima."""
    return (cap.ram >= reqs.max_ram
            and cap.storage >= reqs.max_storage
            and cap.bandwidth >= reqs.max_bandwidth)


def fitting(caps, reqs: Requirements) -> list:
    """The holders in `caps` that `capacity_feasible` accepts, in order; the
    test is written out, as a call per holder slows the baselines by ~12 %."""
    ram, storage, bandwidth = reqs.max_ram, reqs.max_storage, reqs.max_bandwidth
    return [cap for cap in caps if cap.ram >= ram and cap.storage >= storage
            and cap.bandwidth >= bandwidth]


def quote(cap, reqs: Requirements, start: float) -> float | None:
    """The batch's completion started at `start` on `cap` (a VM or snapshot),
    or None when `cap` falls short of its maxima or misses its deadline."""
    if not capacity_feasible(cap, reqs):
        return None
    completion = start + reqs.total_workload / cap.cpu
    return completion if completion <= reqs.deadline else None


def add_up(values) -> float:
    """The floats added left to right from 0.0, as the builtin `sum` adds
    them up to Python 3.11; from 3.12 on `sum` compensates, which moves the
    last digits of a result. `remaining_requirements` adds its workloads the
    same way, in the loop that collects them."""
    total = 0.0
    for value in values:
        total += value
    return total


def timeline(start: float, workloads, cpu: float) -> list[float]:
    """Cumulative finish time of each workload, run back to back from `start`."""
    finishes = []
    acc = start
    for wl in workloads:
        acc += wl / cpu
        finishes.append(acc)
    return finishes


class OverlapError(Exception):
    """A reservation would double-book a VM (invariant defense, not a recoverable state)."""


def reserve(vm: VmDescriptor, reqs: Requirements, start: float) -> Reservation:
    """Append a contract for the given workloads starting at `start`.

    per_task_finish[p] = start + cumulative workload through p divided by cpu.
    Tail append only: `start` before the tail's start or effective end (less
    EPS) raises, gaps included. The ledger is sorted and disjoint, so this
    O(1) test rules out every overlap for bookings made at `available_time`.
    """
    tail = vm.reservations[-1] if vm.reservations else None
    if tail is not None and (start < tail.start or start < tail.effective_end - EPS):
        raise OverlapError(f"vm {vm.vm_id}: booking at {start} precedes the tail "
                           f"[{tail.start}, {tail.effective_end}]")
    reservation = Reservation(
        user_id=reqs.user_id,
        vm_id=vm.vm_id,
        start=start,
        end=start + reqs.total_workload / vm.cpu,
        task_indices=list(reqs.task_indices),
        per_task_finish=timeline(start, reqs.workloads, vm.cpu),
        deadline_at_formation=reqs.deadline,
    )
    vm.reservations.append(reservation)
    return reservation


def retime(res: Reservation, reqs: Requirements, cpu: float, now: float,
           cursor: float) -> float:
    """Rebuild a live reservation's timeline for the remaining work `reqs` at
    `cpu`. An in-progress one keeps its executed prefix [start, now] and runs
    the remainder from now; a queued one starts at max(start, cursor), the end
    of the reservation re-timed before it. Returns the new end."""
    if res.start < now:
        resume = now
    else:
        res.start = resume = max(res.start, cursor)
    res.per_task_finish = timeline(resume, reqs.workloads, cpu)
    res.end = res.per_task_finish[-1] if res.per_task_finish else resume
    res.task_indices = list(reqs.task_indices)
    return res.end


@dataclass
class BatchState:
    """Runtime execution state of one user batch.

    Progress is the MI each task still lacks (its workload at first, exactly
    0.0 once done), so a workload inflation scales only the not-yet-executed
    remainder. Between checkpoints the VM's cpu is constant, so pouring
    cpu * dt MI into the remaining tasks reproduces the contract timeline.

    `view` caches remaining_requirements(); `checkpoint` (when it pours work)
    and `rescheduling.apply_user_event` (before it mutates) reset it to None,
    as they are the only writers of the remaining work, task list and deadline.
    """

    request: UserRequest
    remaining: list[float] = field(init=False)
    finishes: list[float | None] = field(init=False)
    successes: list[bool] = field(init=False)
    reservation: Reservation | None = None
    last_checkpoint: float = 0.0
    completion_entry: int | None = None
    view: Requirements | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        self.remaining = [task.workload for task in self.request.tasks]
        self.finishes = [None] * len(self.remaining)
        self.successes = [False] * len(self.remaining)

    @property
    def terminal(self) -> bool:
        return self.request.status in (RequestStatus.COMPLETED, RequestStatus.FAILED)

    def incomplete_indices(self) -> list[int]:
        """Indices of the tasks that `checkpoint` has not finished."""
        return [i for i, rest in enumerate(self.remaining) if rest != 0.0]

    def remaining_requirements(self) -> Requirements:
        """Aggregate view of the work still to execute, at current ground truth."""
        if self.view is not None:
            return self.view
        tasks = self.request.tasks
        idx, workloads = [], []
        total = ram = storage = bandwidth = 0.0
        for i, rest in enumerate(self.remaining):
            if rest != 0.0:
                task = tasks[i]
                idx.append(i)
                workloads.append(rest)
                total += rest
                if task.ram > ram:
                    ram = task.ram
                if task.storage > storage:
                    storage = task.storage
                if task.bandwidth > bandwidth:
                    bandwidth = task.bandwidth
        self.view = Requirements(self.request.user_id, total, ram,
                                 storage, bandwidth, self.request.deadline,
                                 tuple(workloads), tuple(idx))
        return self.view


def negligible(rest: float, workload: float, cpu: float, t: float) -> bool:
    """The completion rule: `rest` MI left of `workload` MI, on a VM of `cpu`
    MIPS at clock `t`, counts as no work when it is at most REL of the work
    or the clock cannot represent its run time. Both halves are scale-free."""
    return rest <= REL * workload or t + rest / cpu == t


def checkpoint(batch: BatchState, vm: VmDescriptor, tau: float) -> list[int]:
    """Advance execution progress up to time tau; returns indices of newly finished tasks.

    Work accrues at vm.cpu within the reservation's written interval, poured
    in one pass into the unfinished tasks; a task whose leftover is
    `negligible` at the interval's end `hi` finishes (remaining 0.0, written
    only here) by `hi`; a positive leftover finishes at `hi`, its lack
    forgiven. The batch is COMPLETED once all have. Every window pours, so a
    zero-length slot completes at its end; one that changes nothing leaves
    the view alone. Task success is judged against the deadline in force
    now, so callers must checkpoint BEFORE mutating ground truth.
    """
    res = batch.reservation
    newly_done: list[int] = []
    if res is None or batch.terminal:
        batch.last_checkpoint = max(batch.last_checkpoint, tau)
        return newly_done
    lo = max(batch.last_checkpoint, res.start)
    hi = min(tau, res.effective_end)
    batch.last_checkpoint = max(batch.last_checkpoint, tau)
    if hi < lo:
        return newly_done
    request = batch.request
    cpu, deadline, cursor = vm.cpu, request.deadline, lo
    budget = cpu * (hi - lo)
    tasks, remaining = request.tasks, batch.remaining
    finishes, successes = batch.finishes, batch.successes
    for i, rest in enumerate(remaining):
        if rest == 0.0:
            continue
        if not negligible(rest - budget, tasks[i].workload, cpu, hi):
            remaining[i] = rest - budget
            break
        cursor = min(cursor + rest / cpu, hi) if rest <= budget else hi
        budget = max(budget - rest, 0.0)
        remaining[i] = 0.0
        finishes[i] = cursor
        successes[i] = cursor <= deadline
        newly_done.append(i)
    else:
        request.status = RequestStatus.COMPLETED
    if hi > lo or newly_done:
        batch.view = None
    return newly_done


def next_finish(batch: BatchState, vm: VmDescriptor) -> float:
    """The first instant at which a checkpoint of the batch bound on `vm`
    can finish one of its tasks: its running task's finish less the leftover
    `negligible` forgives, or its slot's end if that comes first; inf when
    the batch is unbound or terminal, or its slot has nothing left to pour.
    A degrade only delays it, as it lowers the cpu and stretches the slot."""
    res = batch.reservation
    if res is None or batch.terminal or batch.last_checkpoint >= res.effective_end:
        return float("inf")
    lo = max(batch.last_checkpoint, res.start)
    for i, rest in enumerate(batch.remaining):
        if rest != 0.0:
            rest -= REL * batch.request.tasks[i].workload
            return min(lo + rest / vm.cpu, res.effective_end)
    return float("inf")


def inflate(batch: BatchState, factors: dict[str, float]) -> None:
    """A TaskInflate: each unfinished task gets a new spec (copied worlds
    share the old) grown by `factors`, and its remaining MI by the workload's."""
    tasks, remaining = batch.request.tasks, batch.remaining
    for i in batch.incomplete_indices():
        task = tasks[i]
        tasks[i] = TaskSpec(task.task_id, task.workload * factors["workload"],
                            task.ram * factors["ram"],
                            task.storage * factors["storage"],
                            task.bandwidth * factors["bandwidth"])
        remaining[i] *= factors["workload"]


def release_remainder(batch: BatchState, vm: VmDescriptor, tau: float) -> None:
    """Checkpoint at tau and truncate the active reservation's unconsumed tail.
    A reservation released before it started leaves no executed time and is
    dropped from the ledger entirely."""
    res = batch.reservation
    if res is None:
        return
    checkpoint(batch, vm, tau)
    res.released_at = max(res.start, min(res.end, tau))
    if res.released_at <= res.start + EPS:
        vm.reservations.remove(res)
    batch.reservation = None


def bind(batch: BatchState, reservation: Reservation, kernel: Kernel,
         on_end: Callable[[BatchState], None]) -> None:
    """Make `reservation` the batch's contract and re-arm its completion
    entry; the request stays PENDING until it completes or fails."""
    batch.reservation = reservation
    rearm(batch, kernel, on_end)


def rearm(batch: BatchState, kernel: Kernel,
          on_end: Callable[[BatchState], None]) -> None:
    """Cancel the batch's completion entry and schedule `on_end(batch)` at
    its reservation's end."""
    if batch.completion_entry is not None:
        kernel.cancel(batch.completion_entry)
    batch.completion_entry = kernel.schedule(
        batch.reservation.end, partial(on_end, batch), kind="completion")


def end_slot(batch: BatchState,
             vms: dict[str, VmDescriptor]) -> Reservation | None:
    """Completion entry fired: checkpoint the batch at its reservation's end
    and clear the entry. Returns the reservation, or None (doing nothing)
    when the batch is terminal or unbound and the entry is moot."""
    res = batch.reservation
    if res is None or batch.terminal:
        return None
    checkpoint(batch, vms[res.vm_id], res.end)
    batch.completion_entry = None
    return res


def unbind(batch: BatchState, vms: dict[str, VmDescriptor], kernel: Kernel,
           tau: float) -> VmDescriptor | None:
    """Release the batch's remainder at tau and cancel its completion entry.
    Returns the VM it held, or None when it was unbound."""
    vm = None
    if batch.reservation is not None:
        vm = vms[batch.reservation.vm_id]
        release_remainder(batch, vm, tau)
    if batch.completion_entry is not None:
        kernel.cancel(batch.completion_entry)
        batch.completion_entry = None
    return vm


def fail(batch: BatchState, vms: dict[str, VmDescriptor], kernel: Kernel,
         tau: float) -> VmDescriptor | None:
    """`unbind` the batch and mark it FAILED. Returns the VM it held, or None
    when it was unbound."""
    vm = unbind(batch, vms, kernel, tau)
    batch.request.status = RequestStatus.FAILED
    return vm


@dataclass
class SimWorld:
    """Ground truth shared by the run: the datacenter plus per-batch runtime state.

    Agents mutate only what they own (hosts: their VMs' ledgers and execution
    progress; users: request status and lifecycle), but contract replacement is
    committed atomically inside one kernel step so a batch never holds two
    active reservations.
    """

    datacenter: Datacenter
    users: list[UserRequest]
    batches: dict[str, BatchState]
    vms: dict[str, VmDescriptor]

    @staticmethod
    def build(datacenter: Datacenter, users: list[UserRequest]) -> "SimWorld":
        vms = {vm.vm_id: vm for host in datacenter.hosts for vm in host.vms}
        if len(vms) != sum(len(h.vms) for h in datacenter.hosts):
            raise ValueError("duplicate vm ids across hosts")
        return SimWorld(
            datacenter=datacenter,
            users=users,
            batches={u.user_id: BatchState(u) for u in users},
            vms=vms,
        )

    def copy(self) -> "SimWorld":
        """A fresh world on the draws of this one, which no run has touched:
        new VMs with empty ledgers, new requests and batch states, and the
        same `TaskSpec`s, which no run writes."""
        hosts = [Host(host.host_id,
                      [VmDescriptor(vm.vm_id, vm.host_id, vm.cpu, vm.ram,
                                    vm.storage, vm.bandwidth) for vm in host.vms])
                 for host in self.datacenter.hosts]
        users = [UserRequest(req.user_id, list(req.tasks), req.deadline,
                             req.arrival) for req in self.users]
        return SimWorld.build(Datacenter(hosts), users)

    def fresh_requirements(self, batch: BatchState, now: float) -> Requirements | None:
        """Checkpoint progress up to now, then take the remaining-work view;
        None when the batch is terminal or has nothing left."""
        if batch.terminal:
            return None
        if batch.reservation is not None:
            checkpoint(batch, self.vms[batch.reservation.vm_id], now)
        reqs = batch.remaining_requirements()
        return reqs if reqs.task_indices else None
