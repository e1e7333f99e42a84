"""Output checks for the benchmark, computed from the generated inputs and from
the definitions of the model, never from the simulator's own bookkeeping.

Every check returns a list of violation strings; an empty list means the
output passed. The generated world (`original`) must come from
`generate_scenario` on the run's seed, called before the run, so that task
workloads, deadlines, arrivals and VM capacities are the ones the run started
from (events mutate the run's own copy in place).
"""

import heapq
import json
import math

TIME_TOL = 1e-6      # absolute slack on simulated times (s)
REL_TOL = 1e-9       # relative slack on sums of many terms

TERMINAL = ("COMPLETED", "FAILED")


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TIME_TOL + REL_TOL * max(abs(a), abs(b))


def _status(batch) -> str:
    status = batch.request.status
    return getattr(status, "value", status)


def _end(res) -> float:
    """End of the interval the reservation occupied: its release instant if it
    was released early, else its written end."""
    return res.end if res.released_at is None else res.released_at


def _vm_specs(original) -> list:
    """(vm_id, cpu, ram, storage, bandwidth) in datacenter order."""
    return [(vm.vm_id, vm.cpu, vm.ram, vm.storage, vm.bandwidth)
            for host in original.datacenter.hosts for vm in host.vms]


def _disjoint(spans: list, label: str) -> list[str]:
    out = []
    spans = sorted(spans)
    for (s1, e1, a), (s2, e2, b) in zip(spans, spans[1:]):
        if s2 < e1 - TIME_TOL:
            out.append(f"{label}: {a} [{s1}, {e1}] overlaps {b} [{s2}, {e2}]")
    return out


def deadline_in_force(deadline: float, cut, finish: float) -> float:
    """Deadline that judged a task finishing at `finish`. A DeadlineCut event
    (fire_at, delta) lowers the deadline to max(fire_at, deadline - delta) for
    tasks finishing after it fires; earlier finishes keep the old deadline."""
    if cut is None or finish <= cut[0]:
        return deadline
    fire_at, delta = cut
    return max(fire_at, deadline - delta)


def _deadline_cuts(events) -> dict:
    cuts = {}
    for event in events:
        if type(event.mutation).__name__ == "DeadlineCut":
            cuts[event.target_id] = (event.fire_at, event.mutation.delta)
    return cuts


def check_world(original, result, time_limit: float) -> list[str]:
    """Checks every run must pass, with or without events."""
    out = []
    world, metrics = result.world, result.metrics
    if not result.final_time < time_limit:
        out.append(f"run stopped at time_limit {time_limit}")
    for user_id, batch in world.batches.items():
        if _status(batch) not in TERMINAL:
            out.append(f"{user_id}: batch ended {_status(batch)}")

    reservations = [res for vm in world.vms.values() for res in vm.reservations]
    for vm in world.vms.values():
        out += _disjoint([(r.start, _end(r), r.user_id) for r in vm.reservations],
                         f"vm {vm.vm_id}")
    by_user: dict[str, list] = {}
    for res in reservations:
        by_user.setdefault(res.user_id, []).append(res)
    for user_id, held in by_user.items():
        out += _disjoint([(r.start, _end(r), r.vm_id) for r in held],
                         f"user {user_id}")

    arrival = {u.user_id: u.arrival for u in original.users}
    for res in reservations:
        if res.start < arrival[res.user_id] - TIME_TOL:
            out.append(f"{res.user_id}: reservation on {res.vm_id} starts at "
                       f"{res.start} before arrival {arrival[res.user_id]}")

    cuts = _deadline_cuts(result.events)
    on_time = 0
    latest = 0.0
    for req in original.users:
        batch = world.batches[req.user_id]
        held = by_user.get(req.user_id, [])
        for i, finish in enumerate(batch.finishes):
            if finish is None:
                ok = False
            else:
                latest = max(latest, finish)
                ok = finish <= deadline_in_force(req.deadline,
                                                 cuts.get(req.user_id), finish)
                if not any(r.start - TIME_TOL <= finish <= _end(r) + TIME_TOL
                           for r in held):
                    out.append(f"{req.user_id} task {i}: finish {finish} lies "
                               f"outside every reservation of the user")
            if ok != batch.successes[i]:
                out.append(f"{req.user_id} task {i}: success flag "
                           f"{batch.successes[i]} but finish {finish} says {ok}")
            on_time += ok
    if on_time != metrics.successful_tasks:
        out.append(f"successful_tasks {metrics.successful_tasks} != "
                   f"{on_time} recomputed from finishes and deadlines")
    if metrics.makespan != latest:
        out.append(f"makespan {metrics.makespan} != latest task finish {latest}")

    total = sum(len(u.tasks) for u in original.users)
    if metrics.total_tasks != total:
        out.append(f"total_tasks {metrics.total_tasks} != generated {total}")
    if metrics.vm_count != len(original.vms):
        out.append(f"vm_count {metrics.vm_count} != generated {len(original.vms)}")
    return out


def check_no_event(original, result) -> list[str]:
    """Checks that hold only when no uncertain event fired: every task meets
    its (unbounded) deadline, contract timelines follow the original
    workloads and cpus, and executed work is conserved."""
    out = []
    world, metrics = result.world, result.metrics
    if result.events:
        return [f"expected no events, got {len(result.events)}"]
    total_tasks = sum(len(u.tasks) for u in original.users)
    if metrics.successful_tasks != total_tasks:
        out.append(f"{total_tasks - metrics.successful_tasks} tasks did not succeed")
    tasks = {u.user_id: u.tasks for u in original.users}
    cpu = {vm_id: c for vm_id, c, *_ in _vm_specs(original)}

    busy_work = 0.0
    for vm in world.vms.values():
        for res in vm.reservations:
            busy_work += (_end(res) - res.start) * cpu[vm.vm_id]
            acc = 0.0
            for k, idx in enumerate(res.task_indices):
                acc += tasks[res.user_id][idx].workload
                want = res.start + acc / cpu[vm.vm_id]
                if not close(res.per_task_finish[k], want):
                    out.append(f"{res.user_id} task {idx} on {vm.vm_id}: contract "
                               f"finish {res.per_task_finish[k]} != start + "
                               f"work/cpu = {want}")
                batch = world.batches[res.user_id]
                if batch.finishes[idx] is None or \
                        not close(batch.finishes[idx], want):
                    out.append(f"{res.user_id} task {idx}: finished at "
                               f"{batch.finishes[idx]}, contract says {want}")
    total_work = sum(t.workload for u in original.users for t in u.tasks)
    if abs(busy_work - total_work) > REL_TOL * total_work * 10:
        out.append(f"busy time x cpu {busy_work} != total workload {total_work}")

    vms = _vm_specs(original)
    fastest = max(c for _, c, *_ in vms)
    bound = total_work / sum(c for _, c, *_ in vms)
    for u in original.users:
        bound = max(bound, u.arrival + sum(t.workload for t in u.tasks) / fastest)
    if metrics.makespan < bound - TIME_TOL:
        out.append(f"makespan {metrics.makespan} below the lower bound {bound}")
    return out


def _fits(vm, need) -> bool:
    return vm[2] >= need[0] and vm[3] >= need[1] and vm[4] >= need[2]


def replay_central(policy: str, original, minmin_interval: float) -> dict:
    """From-definition placement of each batch, in arrival order, with no
    events: {user_id: (vm_id, start)}, or (None, None) for a batch no VM can
    hold. mct takes the earliest completion, met the shortest execution,
    round_robin the next fitting VM after the last one used, and min_min
    buffers arrivals to the next multiple of `minmin_interval` and there
    repeatedly commits the (completion, user, vm)-smallest pair (Braun et al.,
    JPDC 61(6), 2001), kept in a lazily re-evaluated heap."""
    vms = _vm_specs(original)
    last_end = {vm[0]: 0.0 for vm in vms}
    order = sorted(range(len(original.users)),
                   key=lambda i: (original.users[i].arrival, i))
    batches = []
    for i in order:
        u = original.users[i]
        need = (max(t.ram for t in u.tasks), max(t.storage for t in u.tasks),
                max(t.bandwidth for t in u.tasks))
        batches.append((u.user_id, u.arrival, sum(t.workload for t in u.tasks),
                        need))
    placed = {}

    def commit(user_id, vm, start, work):
        last_end[vm[0]] = start + work / vm[1]
        placed[user_id] = (vm[0], start)

    if policy == "min_min":
        groups: dict[float, list] = {}
        for b in batches:
            groups.setdefault((b[1] // minmin_interval + 1) * minmin_interval,
                              []).append(b)
        for tau, group in sorted(groups.items()):
            _min_min(group, tau, vms, last_end, commit, placed)
        return placed

    cursor = 0
    for user_id, tau, work, need in batches:
        fitting = [k for k, vm in enumerate(vms) if _fits(vm, need)]
        if not fitting:
            placed[user_id] = (None, None)
            continue
        if policy == "mct":
            k = min(fitting, key=lambda k: (max(tau, last_end[vms[k][0]])
                                            + work / vms[k][1], vms[k][0]))
        elif policy == "met":
            k = min(fitting, key=lambda k: (work / vms[k][1], vms[k][0]))
        elif policy == "round_robin":
            k = min(fitting, key=lambda k: (k - cursor) % len(vms))
            cursor = (k + 1) % len(vms)
        else:
            raise ValueError(f"no replay for policy {policy!r}")
        commit(user_id, vms[k], max(tau, last_end[vms[k][0]]), work)
    return placed


def _min_min(group, tau, vms, last_end, commit, placed) -> None:
    def best(work, need):
        options = [(max(tau, last_end[vm[0]]) + work / vm[1], vm[0], vm)
                   for vm in vms if _fits(vm, need)]
        return min(options) if options else None

    heap = []
    for user_id, _, work, need in group:
        pick = best(work, need)
        if pick is None:
            placed[user_id] = (None, None)
            continue
        heap.append((pick[0], user_id, pick[1], last_end[pick[1]], work, need, pick[2]))
    heapq.heapify(heap)
    while heap:
        completion, user_id, vm_id, seen_end, work, need, vm = heapq.heappop(heap)
        if last_end[vm_id] != seen_end:
            # the VM took a batch since this key was computed: the key is a
            # lower bound only, so re-evaluate and push it back
            c, v, spec = best(work, need)
            heapq.heappush(heap, (c, user_id, v, last_end[v], work, need, spec))
            continue
        commit(user_id, vm, max(tau, last_end[vm_id]), work)


def check_replay(policy: str, original, result, minmin_interval: float) -> list[str]:
    """Every user's one reservation sits on the replayed VM at the replayed start."""
    out = []
    want = replay_central(policy, original, minmin_interval)
    got: dict[str, list] = {}
    for vm in result.world.vms.values():
        for res in vm.reservations:
            got.setdefault(res.user_id, []).append((res.vm_id, res.start))
    for user_id, (vm_id, start) in want.items():
        held = got.get(user_id, [])
        if vm_id is None:
            if held:
                out.append(f"{user_id}: placed on {held} but fits no VM")
            continue
        if len(held) != 1:
            out.append(f"{user_id}: {len(held)} reservations, want 1 on {vm_id}")
        elif held[0][0] != vm_id or not close(held[0][1], start):
            out.append(f"{user_id}: {policy} placed on {held[0][0]} at "
                       f"{held[0][1]}, definition gives {vm_id} at {start}")
    return out


def check_listeners(runtime) -> list[str]:
    """Each result listener resolved or timed out, exactly once."""
    done = runtime.listeners_resolved + runtime.listeners_timed_out
    if done != runtime.listeners_registered:
        return [f"listeners: {runtime.listeners_resolved} resolved + "
                f"{runtime.listeners_timed_out} timed out != "
                f"{runtime.listeners_registered} registered"]
    return []


def check_row(row: dict, original, result) -> list[str]:
    """A result row reports this run's recomputed figures."""
    out = []
    total = sum(len(u.tasks) for u in original.users)
    if int(row["total_tasks"]) != total:
        out.append(f"row total_tasks {row['total_tasks']} != generated {total}")
    if int(row["vm_count"]) != len(original.vms):
        out.append(f"row vm_count {row['vm_count']} != {len(original.vms)}")
    latest = max((f for b in result.world.batches.values()
                  for f in b.finishes if f is not None), default=0.0)
    if float(row["makespan"]) != latest:
        out.append(f"row makespan {row['makespan']} != latest finish {latest}")
    if int(row["successful_tasks"]) != result.metrics.successful_tasks:
        out.append(f"row successful_tasks {row['successful_tasks']} != "
                   f"{result.metrics.successful_tasks}")
    return out


def check_trace(lines) -> tuple[list[str], int]:
    """Parses a JSON-lines trace line by line. BUSY leases never overlap on
    one VM, each READY releases the lease its conversation took, every round's
    `chosen` is the (completion, vm_id)-smallest proposal, and record times
    never go back. Returns (violations, records read)."""
    out = []
    holder: dict[str, str] = {}
    last_t = -math.inf
    count = 0
    for n, line in enumerate(lines, 1):
        try:
            rec = json.loads(line)
            t, kind, detail = rec["t"], rec["kind"], rec["detail"]
        except (ValueError, KeyError, TypeError) as exc:
            out.append(f"line {n}: not a trace record ({exc})")
            continue
        count += 1
        if t < last_t:
            out.append(f"line {n}: time {t} before previous {last_t}")
        last_t = max(last_t, t)
        if kind == "lease":
            vm, conv = detail["vm"], detail["conversation"]
            if detail["state"] == "BUSY":
                if vm in holder:
                    out.append(f"line {n}: {vm} leased BUSY to {conv} while "
                               f"held by {holder[vm]}")
                holder[vm] = conv
            elif holder.pop(vm, None) != conv:
                out.append(f"line {n}: {vm} released by {conv}, not its holder")
        elif kind == "round":
            proposals = detail["proposals"]
            want = min(proposals, key=lambda p: (p[1], p[0]))[0] if proposals else None
            if detail["chosen"] != want:
                out.append(f"line {n}: round chose {detail['chosen']}, "
                           f"earliest completion is {want}")
    return out, count
