"""From-definition brute-force schedulers, written against plain tuples and
kept independent of the production code paths they check.

A VM is (vm_id, cpu, ram, storage, bandwidth, available_time); a batch is
(user_id, total_workload, max_ram, max_storage, max_bandwidth). All four
policies return [(user_id, vm_id | None), ...] in commit order.

The batch-progress references are the per-task-call forms of
`model.checkpoint` and `BatchState.remaining_requirements`, which the
one-pass versions must match bit for bit.

The messaging references at the end are the kernel and runtime with one
kernel entry per message and per reply timer, each timer cancelled when its
reply arrives; delivery batches and timer lanes must keep their firing
order, clock and pending count exactly.
"""

import heapq

from cloudsched.bdi import FAILURE, AgentMessage
from cloudsched.kernel import SchedulingInPastError
from cloudsched.model import EPS, MI_EPS, RequestStatus, Requirements
from cloudsched.tracelog import NULL_TRACE


def _fits(vm, batch):
    return vm[2] >= batch[2] and vm[3] >= batch[3] and vm[4] >= batch[4]


def oracle_mct(batches, vms):
    avail = {vm[0]: vm[5] for vm in vms}
    out = []
    for batch in batches:
        options = [(avail[vm[0]] + batch[1] / vm[1], vm[0])
                   for vm in vms if _fits(vm, batch)]
        if not options:
            out.append((batch[0], None))
            continue
        completion, vm_id = min(options)
        avail[vm_id] = completion
        out.append((batch[0], vm_id))
    return out


def oracle_met(batches, vms):
    avail = {vm[0]: vm[5] for vm in vms}
    cpu = {vm[0]: vm[1] for vm in vms}
    out = []
    for batch in batches:
        options = [(batch[1] / vm[1], vm[0]) for vm in vms if _fits(vm, batch)]
        if not options:
            out.append((batch[0], None))
            continue
        _, vm_id = min(options)
        avail[vm_id] = avail[vm_id] + batch[1] / cpu[vm_id]
        out.append((batch[0], vm_id))
    return out


def oracle_min_min(batches, vms):
    avail = {vm[0]: vm[5] for vm in vms}
    out = []
    left = list(batches)
    while left:
        infeasible = [b for b in left
                      if not any(_fits(vm, b) for vm in vms)]
        for b in infeasible:
            out.append((b[0], None))
            left.remove(b)
        if not left:
            break
        choices = []
        for b in left:
            completion, vm_id = min((avail[vm[0]] + b[1] / vm[1], vm[0])
                                    for vm in vms if _fits(vm, b))
            choices.append((completion, b[0], vm_id, b))
        completion, user_id, vm_id, batch = min(choices, key=lambda c: c[:3])
        avail[vm_id] = completion
        out.append((user_id, vm_id))
        left.remove(batch)
    return out


def oracle_round_robin(batches, vms, start=0):
    avail = {vm[0]: vm[5] for vm in vms}
    cursor = start
    out = []
    for batch in batches:
        chosen = None
        for step in range(len(vms)):
            idx = (cursor + step) % len(vms)
            if _fits(vms[idx], batch):
                chosen = idx
                break
        if chosen is None:
            out.append((batch[0], None))
            continue
        vm = vms[chosen]
        avail[vm[0]] += batch[1] / vm[1]
        out.append((batch[0], vm[0]))
        cursor = (chosen + 1) % len(vms)
    return out


def _remaining_workload(batch, i):
    return batch.request.tasks[i].workload * (1.0 - batch.fractions[i])


def reference_incomplete_indices(batch):
    return [i for i in range(len(batch.fractions))
            if _remaining_workload(batch, i) > MI_EPS]


def reference_remaining_requirements(batch):
    """The remaining-work view, computed afresh with `max` calls."""
    idx, workloads = [], []
    ram = storage = bandwidth = 0.0
    for i, task in enumerate(batch.request.tasks):
        remaining = task.workload * (1.0 - batch.fractions[i])
        if remaining > MI_EPS:
            idx.append(i)
            workloads.append(remaining)
            ram = max(ram, task.ram)
            storage = max(storage, task.storage)
            bandwidth = max(bandwidth, task.bandwidth)
    return Requirements(batch.request.user_id, sum(workloads), ram, storage,
                        bandwidth, batch.request.deadline, tuple(workloads),
                        tuple(idx))


def reference_checkpoint(batch, vm, tau):
    """`model.checkpoint` as it read the batch through per-task calls: the
    incomplete indices up front, each task's remaining work again in the
    pour, and every task once more to decide COMPLETED. A partial pour that
    leaves a task at most MI_EPS finishes it at the end of the interval."""
    res = batch.reservation
    newly_done = []
    if res is None or batch.terminal:
        batch.last_checkpoint = max(batch.last_checkpoint, tau)
        return newly_done
    lo = max(batch.last_checkpoint, res.start)
    hi = min(tau, res.effective_end)
    batch.last_checkpoint = max(batch.last_checkpoint, tau)
    if hi <= lo + EPS:
        return newly_done
    if batch.request.status is RequestStatus.SCHEDULED:
        batch.request.status = RequestStatus.EXECUTING
    batch.view = None
    budget = vm.cpu * (hi - lo)
    cursor = lo
    for i in reference_incomplete_indices(batch):
        need = _remaining_workload(batch, i)
        if need <= budget + MI_EPS:
            budget -= need
            cursor += need / vm.cpu
            batch.fractions[i] = 1.0
            batch.finishes[i] = cursor
            batch.successes[i] = cursor <= batch.request.deadline
            newly_done.append(i)
        else:
            batch.fractions[i] += budget / batch.request.tasks[i].workload
            budget = 0.0
            if _remaining_workload(batch, i) <= MI_EPS:
                # a partial pour that leaves at most MI_EPS finishes the task
                batch.fractions[i] = 1.0
                batch.finishes[i] = hi
                batch.successes[i] = hi <= batch.request.deadline
                newly_done.append(i)
            break
    if not reference_incomplete_indices(batch):
        batch.request.status = RequestStatus.COMPLETED
    return newly_done


class ReferenceKernel:
    """The kernel with one heap entry per scheduled action."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._pending = set()

    def __len__(self):
        return len(self._pending)

    def schedule(self, fire_at, action, kind="timer"):
        if not fire_at >= self.now:
            raise SchedulingInPastError(
                f"schedule at t={fire_at} before now={self.now}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (fire_at, seq, action))
        self._pending.add(seq)
        return seq

    def cancel(self, entry_id):
        if entry_id in self._pending:
            self._pending.remove(entry_id)
            return True
        return False

    def run_until_quiescent(self, limit=float("inf")):
        heap, pending = self._heap, self._pending
        while heap:
            fire_at, seq, action = heap[0]
            if seq not in pending:
                heapq.heappop(heap)
                continue
            if fire_at > limit:
                self.now = limit
                return limit
            heapq.heappop(heap)
            pending.remove(seq)
            self.now = fire_at
            action()
        return self.now


class ReferenceRuntime:
    """The agent runtime with a kernel entry per message and a scheduled,
    cancelled timer per reply callback."""

    def __init__(self, kernel, latency=0.01, collect_timeout=1.0, trace=None):
        self.kernel = kernel
        self.latency = latency
        self.collect_timeout = collect_timeout
        self.trace = trace if trace is not None else NULL_TRACE
        self.agents = {}
        self._listeners = {}
        self._timer_ids = {}
        self.drop_filter = None
        self.listeners_registered = 0
        self.listeners_resolved = 0
        self.listeners_timed_out = 0

    def register(self, agent):
        if agent.id in self.agents:
            raise ValueError(f"duplicate agent id {agent.id}")
        self.agents[agent.id] = agent

    def add_listener(self, owner, conversation, on_reply):
        key = (owner, conversation)
        if key in self._listeners:
            raise ValueError(f"{owner} already awaits conversation "
                             f"{conversation!r}")
        self._listeners[key] = on_reply
        self.listeners_registered += 1
        self._timer_ids[key] = self.kernel.schedule(
            self.kernel.now + self.collect_timeout, lambda: self._expire(key),
            kind="listener-timeout")

    def _expire(self, key):
        on_reply = self._listeners.pop(key)
        del self._timer_ids[key]
        self.listeners_timed_out += 1
        if self.trace.enabled:
            self.trace.emit(self.kernel.now, key[0].label, "listener_timeout",
                            conversation=key[1])
        on_reply(None)

    def send_async(self, msg, on_reply=None):
        if on_reply is not None:
            self.add_listener(msg.sender, msg.conversation_id, on_reply)
        dropped = self.drop_filter is not None and self.drop_filter(msg)
        if self.trace.enabled:
            self.trace.emit(self.kernel.now, msg.sender.label,
                            "drop" if dropped else "send",
                            to=msg.to.label, performative=msg.performative,
                            conversation=msg.conversation_id)
        if not dropped:
            self.kernel.schedule(self.kernel.now + self.latency,
                                 lambda: self._deliver(msg), kind="deliver")

    def _deliver(self, msg):
        recipient = self.agents.get(msg.to)
        if recipient is None:
            bounce = AgentMessage(msg.conversation_id, msg.to, msg.sender,
                                  FAILURE, body={"reason": "unknown-recipient"},
                                  reply=True)
            if self.trace.enabled:
                self.trace.emit(self.kernel.now, msg.to.label, "bounce",
                                conversation=msg.conversation_id)
            self.kernel.schedule(self.kernel.now + self.latency,
                                 lambda: self._deliver(bounce), kind="deliver")
            return
        if self.trace.enabled:
            self.trace.emit(self.kernel.now, msg.to.label, "deliver",
                            sender=msg.sender.label, performative=msg.performative,
                            conversation=msg.conversation_id)
        key = (msg.to, msg.conversation_id)
        on_reply = self._listeners.pop(key, None)
        if on_reply is not None:
            self.listeners_resolved += 1
            self.kernel.cancel(self._timer_ids.pop(key))
            on_reply(msg)
            return
        if msg.reply:
            if self.trace.enabled:
                self.trace.emit(self.kernel.now, msg.to.label, "late_reply",
                                conversation=msg.conversation_id)
            return
        recipient.handle_message(msg)
