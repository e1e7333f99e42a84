"""From-definition brute-force schedulers, written against plain tuples and
kept independent of the production code paths they check.

A VM is (vm_id, cpu, ram, storage, bandwidth, available_time); a batch is
(user_id, total_workload, max_ram, max_storage, max_bandwidth). All four
policies return [(user_id, vm_id | None), ...] in commit order.

The batch-progress references at the end are the per-task-call forms of
`model.checkpoint` and `BatchState.remaining_requirements`, which the
one-pass versions must match bit for bit.
"""

from cloudsched.model import EPS, MI_EPS, RequestStatus, Requirements


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
    pour, and every task once more to decide COMPLETED."""
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
            break
    if not reference_incomplete_indices(batch):
        batch.request.status = RequestStatus.COMPLETED
    return newly_done
