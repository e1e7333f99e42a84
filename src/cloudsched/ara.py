"""Supervise-side machinery for the asynchronous recommendation protocol:
the VM registry with READY/BUSY leasing, priority-ordered recommendation,
and the user-side best-proposal selection rule.

The registry holds snapshots synchronized by host agents, which lag ground
truth by in-flight messages; hosts re-check against ground truth before
committing, so a stale snapshot costs at worst one declined round.
"""

from bisect import bisect_left, insort
from dataclasses import dataclass

from .model import Requirements, VmDescriptor, available_time, quote
from .tracelog import NULL_TRACE, TraceLog


@dataclass(frozen=True)
class VmSnapshot:
    vm_id: str
    host_agent: str
    cpu: float
    ram: float
    storage: float
    bandwidth: float
    available_time: float

    @staticmethod
    def of(vm: VmDescriptor, host_agent: str, tau: float) -> "VmSnapshot":
        return VmSnapshot(vm.vm_id, host_agent, vm.cpu, vm.ram, vm.storage,
                          vm.bandwidth, available_time(vm, tau))


@dataclass
class Recommendation:
    vm_refs: list[VmSnapshot]
    theta: int = 0


@dataclass(frozen=True)
class HostProposal:
    user_id: str
    vm_id: str
    start: float
    completion: float


class VmRegistry:
    """Belief store of the supervise agent: the latest snapshot of each VM and
    the set of VMs leased BUSY (every other VM is READY), priority-indexed by
    available time ascending (earlier = higher priority).

    The index is a list of (available_time, vm_id, bit) kept sorted by
    bisection on every sync, `bit` being 1 << the VM's first-sync rank;
    `_leased` maps each conversation to the VMs it holds BUSY. `_fits` holds,
    for ram, storage and bandwidth, the synced values ascending and the OR of
    the bits from each position on. No capacity ever rises, so an index built
    from older snapshots names a superset of the VMs that fit; it is rebuilt
    after a first sync or a sync that raises a capacity. `_cpu_max` is the
    largest cpu ever synced, so no VM later in the index finishes before
    max(tau, available_time) + W / _cpu_max."""

    def __init__(self, trace: TraceLog | None = None):
        self.snapshots: dict[str, VmSnapshot] = {}
        self.busy: set[str] = set()
        self.trace = trace if trace is not None else NULL_TRACE
        self._rank: dict[str, int] = {}
        self._order: list[tuple[float, str, int]] = []
        self._leased: dict[str, list[str]] = {}
        self._fits: list[tuple[list[float], list[int]]] | None = None
        self._cpu_max = 0.0

    def sync(self, snapshot: VmSnapshot) -> None:
        """Replace (or create, on first sync) a VM's snapshot; a lease is
        orthogonal to snapshot data and is preserved."""
        vm_id = snapshot.vm_id
        old = self.snapshots.get(vm_id)
        self.snapshots[vm_id] = snapshot
        if snapshot.cpu > self._cpu_max:
            self._cpu_max = snapshot.cpu
        if old is None:
            self._rank[vm_id] = len(self._rank)
            self._fits = None
        else:
            if snapshot.ram > old.ram or snapshot.storage > old.storage \
                    or snapshot.bandwidth > old.bandwidth:
                self._fits = None
            if old.available_time == snapshot.available_time:
                return
            del self._order[bisect_left(self._order, (old.available_time, vm_id))]
        insort(self._order, (snapshot.available_time, vm_id, 1 << self._rank[vm_id]))

    def _candidates(self, reqs: Requirements) -> int:
        """The bits of the VMs whose indexed capacities cover the request."""
        if self._fits is None:
            self._fits = []
            for name in ("ram", "storage", "bandwidth"):
                pairs = sorted((getattr(snap, name), 1 << self._rank[vm_id])
                               for vm_id, snap in self.snapshots.items())
                masks = [0] * (len(pairs) + 1)
                for i in range(len(pairs) - 1, -1, -1):
                    masks[i] = masks[i + 1] | pairs[i][1]
                self._fits.append(([value for value, _ in pairs], masks))
        (ram, ram_fit), (storage, storage_fit), (bw, bw_fit) = self._fits
        return (ram_fit[bisect_left(ram, reqs.max_ram)]
                & storage_fit[bisect_left(storage, reqs.max_storage)]
                & bw_fit[bisect_left(bw, reqs.max_bandwidth)])

    def recommend(self, reqs: Requirements, theta: int, tau: float,
                  conversation_id: str) -> Recommendation:
        """Scan from highest priority, collecting READY VMs whose snapshot meets
        the requirements; each collected VM is leased BUSY to this conversation.
        Stops at theta collected, when no later VM can meet the deadline, or
        when the index is exhausted; an empty result is a normal outcome (the
        user retries)."""
        if theta < 1:
            raise ValueError("theta must be >= 1")
        collected: list[VmSnapshot] = []
        fit = self._candidates(reqs)
        if fit:
            fastest = reqs.total_workload / self._cpu_max
            for available, vm_id, bit in self._order:
                if not bit & fit:
                    continue
                start = max(tau, available)
                if start + fastest > reqs.deadline:
                    break
                if vm_id in self.busy:
                    continue
                snap = self.snapshots[vm_id]
                if quote(snap, reqs, start) is None:
                    continue
                self.busy.add(vm_id)
                self._leased.setdefault(conversation_id, []).append(vm_id)
                if self.trace.enabled:
                    self.trace.lease(tau, vm_id, "BUSY", conversation_id,
                                     reqs.user_id)
                collected.append(snap)
                if len(collected) >= theta:
                    break
        return Recommendation(collected, theta)

    def finalize(self, conversation_id: str, tau: float) -> int:
        """Release every lease held under this conversation back to READY, in
        first-sync order. Idempotent: a second finalize for the same
        conversation is a no-op. Returns the number of leases released."""
        leased = self._leased.pop(conversation_id, [])
        for vm_id in sorted(leased, key=self._rank.__getitem__):
            self.busy.discard(vm_id)
            if self.trace.enabled:
                self.trace.lease(tau, vm_id, "READY", conversation_id)
        return len(leased)


def select_best(proposals: list[HostProposal]) -> HostProposal:
    """Earliest expected completion wins; ties broken by lower vm_id."""
    if not proposals:
        raise ValueError("select_best requires a non-empty proposal list")
    return min(proposals, key=lambda p: (p.completion, p.vm_id))


def make_proposal(vm: VmDescriptor | None, reqs: Requirements, tau: float,
                  exclude=None) -> HostProposal | None:
    """Host-side `quote` against ground truth, not the registry's snapshot;
    None declines (unknown VM, or `quote` is None). `exclude` lets a re-quote
    on the batch's own VM ignore its current reservation."""
    if vm is None:
        return None
    start = available_time(vm, tau, exclude=exclude)
    completion = quote(vm, reqs, start)
    return None if completion is None else \
        HostProposal(reqs.user_id, vm.vm_id, start, completion)
