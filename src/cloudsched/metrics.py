"""Objective functions: makespan, per-VM utilization variance, task success rate.

Utilization is a busy fraction: executed reservation time on a VM divided by
the run horizon (the makespan), clamped to [0, 1]. Failed batches contribute
their executed prefix; unexecuted remainders contribute nothing. Tasks never
scheduled count as failures in the success rate.
"""

from dataclasses import dataclass, field

from .model import SimWorld, add_up


@dataclass
class RunMetrics:
    makespan: float
    utilization_variance: float
    success_rate: float
    per_vm_utilization: list[float] = field(repr=False, default_factory=list)
    total_tasks: int = 0
    successful_tasks: int = 0
    vm_count: int = 0


def utilization_variance(utilizations: list[float]) -> float:
    """Population variance of the per-VM busy fractions."""
    if not utilizations:
        return 0.0
    mean = add_up(utilizations) / len(utilizations)
    return add_up((u - mean) ** 2 for u in utilizations) / len(utilizations)


def compute_metrics(world: SimWorld) -> RunMetrics:
    total_tasks = sum(len(u.tasks) for u in world.users)
    successful = 0
    makespan = 0.0
    for batch in world.batches.values():
        for finish, ok in zip(batch.finishes, batch.successes):
            if finish is not None and finish > makespan:
                makespan = finish
            if ok:
                successful += 1
    vms = list(world.vms.values())
    if makespan <= 0.0:
        # nothing ever finished: makespan undefined, reported as zero
        return RunMetrics(0.0, 0.0, 0.0, [0.0] * len(vms),
                          total_tasks, successful, len(vms))
    utilizations = []
    for vm in vms:
        busy = 0.0
        for res in vm.reservations:
            busy += max(0.0, min(res.effective_end, makespan) - min(res.start, makespan))
        utilizations.append(min(1.0, busy / makespan))
    return RunMetrics(
        makespan=makespan,
        utilization_variance=utilization_variance(utilizations),
        success_rate=successful / total_tasks if total_tasks else 0.0,
        per_vm_utilization=utilizations,
        total_tasks=total_tasks,
        successful_tasks=successful,
        vm_count=len(vms),
    )

