"""The one-pass `model.checkpoint` and `BatchState.remaining_requirements`
against their references in `oracles`, written from the completion rule. Twin batches take the
same steps (checkpoints, TaskInflates and DeadlineCuts), one through the model
and one through the reference, and must agree bit for bit after every step:
progress, outcomes, status, clock, returned indices and the remaining view.
Every step also keeps progress in range, and every checkpoint keeps its
finishes and the work it removes within the window it poured.

A work-scale relation checks the same steps with every workload and the cpu
times 2^k: the finishes stay equal and the remaining work scales by 2^k."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudsched import model
from cloudsched.model import (EPS, REL, BatchState, RequestStatus, TaskSpec,
                              UserRequest, VmDescriptor)
from cloudsched.rescheduling import (DeadlineCut, TaskInflate, UncertainEvent,
                                     apply_user_event)

import oracles

FIELDS = ("workload", "ram", "storage", "bandwidth")


def make_batch(case):
    """Bind a batch holding `case`'s tasks, each with its drawn share of its
    workload left (a task with none left finished at the start), to a
    reservation of its remaining work."""
    vm = VmDescriptor("h000v00", "h000", case["cpu"], 2000.0, 10.0, 2000.0)
    tasks = [TaskSpec(f"u00000t{p}", *spec[:4])
             for p, spec in enumerate(case["tasks"])]
    batch = BatchState(UserRequest("u00000", tasks, case["deadline"]))
    batch.remaining = [spec[0] * spec[4] for spec in case["tasks"]]
    for i, rest in enumerate(batch.remaining):
        if rest == 0.0:
            batch.finishes[i] = case["start"]
            batch.successes[i] = case["start"] <= case["deadline"]
    res = model.reserve(vm, batch.remaining_requirements(), case["start"])
    batch.view = None
    if case["release"] is not None:
        res.released_at = res.start + case["release"] * (res.end - res.start)
    batch.reservation = res
    batch.request.status = case["status"]
    return batch, vm


def state(batch):
    req = batch.request
    return (batch.remaining, batch.finishes, batch.successes, req.status,
            batch.last_checkpoint, req.deadline,
            [(t.task_id, t.workload, t.ram, t.storage, t.bandwidth)
             for t in req.tasks])


def window(batch, tau):
    """The window [lo, hi] that a checkpoint to tau pours, or None."""
    res = batch.reservation
    if res is None or batch.terminal:
        return None
    lo, hi = max(batch.last_checkpoint, res.start), min(tau, res.effective_end)
    return (lo, hi) if lo <= hi else None


def check_progress(batch):
    """Each task's remaining work lies in [0, its workload], and is exactly
    0.0 when, and only when, the task has a finish."""
    for task, rest, finish in zip(batch.request.tasks, batch.remaining,
                                  batch.finishes):
        assert 0.0 <= rest <= task.workload
        assert (rest == 0.0) == (finish is not None)


def check_pour(batch, cpu, before, pour, done):
    """A checkpoint that poured [lo, hi] finished its tasks within it and
    removed at most cpu * (hi - lo) MI, plus what it forgave: each finished
    task's leftover is negligible, at most REL of its work or below what the
    clock at hi can time, and the sums may round by an ulp per task. One
    that poured nothing changed nothing."""
    if pour is None:
        assert done == [] and batch.remaining == before
        return
    lo, hi = pour
    tasks = batch.request.tasks
    assert all(lo <= batch.finishes[i] <= hi for i in done)
    removed = math.fsum(b - a for b, a in zip(before, batch.remaining))
    budget = cpu * (hi - lo)
    forgiven = math.fsum(max(REL * tasks[i].workload, cpu * math.ulp(hi))
                         for i in done)
    rounding = len(before) * (math.ulp(budget) + math.ulp(max(before)))
    assert removed <= budget + forgiven + rounding


def user_event(kind, value):
    mutation = (TaskInflate({f: value for f in FIELDS}) if kind == "inflate"
                else DeadlineCut(value))
    return UncertainEvent(0, 0.0, "user", "u00000", mutation)


def reference_user_event(batch, vm, event, now):
    """`apply_user_event` with its checkpoint taken by the reference."""
    if batch.terminal:
        return False
    oracles.reference_checkpoint(batch, vm, now)
    return apply_user_event(batch, None, event, now)


def run_twins(case):
    batch, vm = make_batch(case)
    ref, ref_vm = make_batch(case)
    check_progress(batch)
    now = 0.0
    for kind, value in case["steps"]:
        before = list(batch.remaining)
        if kind == "checkpoint":
            now += value
            pour = window(batch, now)
            done = model.checkpoint(batch, vm, now)
            assert done == oracles.reference_checkpoint(ref, ref_vm, now)
            check_pour(batch, vm.cpu, before, pour, done)
        else:
            event = user_event(kind, value)
            assert apply_user_event(batch, vm, event, now) == \
                reference_user_event(ref, ref_vm, event, now)
        check_progress(batch)
        assert state(batch) == state(ref)
        assert batch.incomplete_indices() == \
            oracles.reference_incomplete_indices(ref)
        assert batch.remaining_requirements() == \
            oracles.reference_remaining_requirements(ref)
    return batch


def case_of(tasks, cpu=1000.0, start=0.0, deadline=math.inf, release=None,
            status=RequestStatus.PENDING, steps=()):
    return {"tasks": list(tasks), "cpu": cpu, "start": start,
            "deadline": deadline, "release": release, "status": status,
            "steps": list(steps)}


def task(workload, left=1.0):
    return (workload, 900.0, 2.0, 300.0, left)


# REL * EXACT_WORK is 2**-20 exactly, so a checkpoint at EXACT_WORK - 2**-20
# on a 1-MIPS VM leaves exactly REL of the task (cpu and clock subtract exactly)
EXACT_WORK = 953.67431640625
EXACT_REST = 2.0 ** -20
# at the clock 2**20 one ulp is 2**-32: a task of 5 * 2**-34 MI on a 1-MIPS VM
# books a 1-ulp slot and leaves a quarter ulp of run time, a leftover the clock
# cannot represent; a task of 2**-34 MI books a zero-length slot
CLOCK = 2.0 ** 20
SUB_ULP_WORK = 5 * 2.0 ** -34

task_specs = st.tuples(
    st.one_of(st.sampled_from([EXACT_WORK, SUB_ULP_WORK, 2.0 ** -34, 1e-300,
                               10000.0]),
              st.floats(1e-12, 40000.0)),
    st.floats(0.0, 1500.0), st.floats(0.0, 10.0), st.floats(0.0, 600.0),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))

steps = st.lists(st.one_of(
    st.tuples(st.just("checkpoint"),
              st.one_of(st.sampled_from([0.0, EPS / 2, EPS, 2 * EPS]),
                        st.floats(0.0, 40.0))),
    st.tuples(st.just("inflate"), st.floats(0.5, 3.0)),
    st.tuples(st.just("cut"), st.floats(0.0, 300.0))), max_size=8)

cases = st.fixed_dictionaries({
    "tasks": st.lists(task_specs, min_size=1, max_size=6),
    "cpu": st.one_of(st.sampled_from([1.0, 1000.0]), st.floats(1.0, 3000.0)),
    "start": st.one_of(st.sampled_from([0.0, CLOCK]), st.floats(0.0, 50.0)),
    "deadline": st.one_of(st.just(math.inf), st.floats(1.0, 500.0)),
    "release": st.one_of(st.none(), st.floats(0.0, 1.0)),
    "status": st.sampled_from([RequestStatus.PENDING, RequestStatus.PENDING,
                               RequestStatus.PENDING, RequestStatus.COMPLETED,
                               RequestStatus.FAILED]),
    "steps": steps,
})


@settings(max_examples=300, deadline=None)
@given(case=cases)
# a leftover of exactly REL * workload finishes the task at the window's end,
# and the work it lacked is forgiven, not charged to the next task
@example(case=case_of([task(EXACT_WORK), task(5.0)], cpu=1.0,
                      steps=[("checkpoint", EXACT_WORK - EXACT_REST),
                             ("checkpoint", 10.0)]))
# one ulp more leftover pours into the task and leaves it unfinished
@example(case=case_of([task(EXACT_WORK)], cpu=1.0,
                      steps=[("checkpoint", math.nextafter(
                          EXACT_WORK - EXACT_REST, 0.0))]))
# a leftover whose run time the clock cannot represent finishes the task
@example(case=case_of([task(SUB_ULP_WORK)], cpu=1.0, start=CLOCK,
                      steps=[("checkpoint", 2 * CLOCK)]))
# a zero-length slot completes at its end
@example(case=case_of([task(2.0 ** -34)], cpu=1.0, start=CLOCK,
                      steps=[("checkpoint", CLOCK)]))
# a task ending at cursor == deadline succeeds, the next one fails
@example(case=case_of([task(10000.0), task(10000.0)], deadline=10.0,
                      steps=[("checkpoint", 20.0)]))
# an empty window at the start changes nothing; an EPS / 2 window pours
@example(case=case_of([task(10000.0)], start=5.0,
                      steps=[("checkpoint", 5.0), ("checkpoint", 3.0),
                             ("checkpoint", EPS / 2)]))
# a TaskInflate between two checkpoints scales only the remainder
@example(case=case_of([task(10000.0), task(10000.0)],
                      steps=[("checkpoint", 5.0), ("inflate", 1.5),
                             ("checkpoint", 20.0)]))
# a terminal batch only advances its clock
@example(case=case_of([task(10000.0)], status=RequestStatus.FAILED,
                      steps=[("checkpoint", 5.0), ("inflate", 1.5)]))
@example(case=case_of([task(10000.0, 0.0)], status=RequestStatus.COMPLETED,
                      steps=[("checkpoint", 5.0), ("cut", 1.0)]))
def test_one_pass_matches_per_task_reference(case):
    run_twins(case)


def test_edge_examples_reach_their_edges():
    """The explicit examples above hit the edges they are named for."""
    assert REL * EXACT_WORK == EXACT_REST
    batch = run_twins(case_of([task(EXACT_WORK), task(5.0)], cpu=1.0,
                              steps=[("checkpoint", EXACT_WORK - EXACT_REST)]))
    assert batch.remaining == [0.0, 5.0]
    assert batch.finishes == [EXACT_WORK - EXACT_REST, None]

    batch = run_twins(case_of([task(EXACT_WORK)], cpu=1.0, steps=[(
        "checkpoint", math.nextafter(EXACT_WORK - EXACT_REST, 0.0))]))
    assert 0.0 < batch.remaining[0] / EXACT_WORK < 2 * REL
    assert batch.request.status is RequestStatus.PENDING

    batch = run_twins(case_of([task(SUB_ULP_WORK)], cpu=1.0, start=CLOCK,
                              steps=[("checkpoint", 2 * CLOCK)]))
    end = batch.reservation.end
    assert end == math.nextafter(CLOCK, math.inf)
    assert SUB_ULP_WORK - (end - CLOCK) > REL * SUB_ULP_WORK
    assert batch.finishes == [end] and batch.remaining == [0.0]
    assert batch.request.status is RequestStatus.COMPLETED

    batch = run_twins(case_of([task(2.0 ** -34)], cpu=1.0, start=CLOCK,
                              steps=[("checkpoint", CLOCK)]))
    assert batch.reservation.end == batch.reservation.start == CLOCK
    assert batch.finishes == [CLOCK]
    assert batch.request.status is RequestStatus.COMPLETED

    batch = run_twins(case_of([task(10000.0), task(10000.0)], deadline=10.0,
                              steps=[("checkpoint", 20.0)]))
    assert batch.finishes == [10.0, 20.0]
    assert batch.successes == [True, False]

    batch, vm = make_batch(case_of([task(10000.0)], start=5.0))
    view = batch.remaining_requirements()
    assert model.checkpoint(batch, vm, 5.0) == []
    assert batch.view is view
    assert batch.request.status is RequestStatus.PENDING

    batch = run_twins(case_of([task(10000.0)],
                              steps=[("checkpoint", 5.0),
                                     ("checkpoint", EPS / 2)]))
    assert batch.remaining[0] < 5000.0
    assert batch.last_checkpoint == 5.0 + EPS / 2

    batch = run_twins(case_of([task(10000.0)], status=RequestStatus.FAILED,
                              steps=[("checkpoint", 5.0)]))
    assert batch.remaining == [10000.0] and batch.last_checkpoint == 5.0


def trajectory(case):
    """What each of `case`'s steps returns and leaves: returned indices (or
    applied flag), finishes, successes, status and remaining work."""
    batch, vm = make_batch(case)
    now, out = 0.0, []
    for kind, value in case["steps"]:
        if kind == "checkpoint":
            now += value
            returned = model.checkpoint(batch, vm, now)
        else:
            returned = apply_user_event(batch, vm, user_event(kind, value), now)
        out.append((returned, list(batch.finishes), list(batch.successes),
                    batch.request.status, list(batch.remaining)))
    return out


def clear_of_subnormals(case):
    """`case` with its workloads and shares left kept far enough from the
    subnormals that at every scale a power of two moves only the exponent."""
    return dict(case, tasks=[
        (workload if workload > 1e-200 else 10000.0, ram, storage, bandwidth,
         left if left > 1e-3 else 0.0)
        for workload, ram, storage, bandwidth, left in case["tasks"]])


scale_cases = cases.map(clear_of_subnormals)


@settings(max_examples=60, deadline=None)
@given(case=scale_cases)
@example(case=case_of([task(EXACT_WORK), task(5.0)], cpu=1.0,
                      steps=[("checkpoint", EXACT_WORK - EXACT_REST),
                             ("checkpoint", 10.0)]))
@example(case=case_of([task(10000.0), task(10000.0)],
                      steps=[("checkpoint", 5.0), ("inflate", 1.5),
                             ("checkpoint", 20.0)]))
def test_work_scale_leaves_finishes_and_scales_remaining(case):
    """Workloads and cpu times 2^k for every k in [-24, 40]: each step
    returns and finishes the same, and leaves exactly 2^k times the work."""
    base = trajectory(case)
    for k in range(-24, 41):
        f = 2.0 ** k
        scaled = trajectory(dict(case, cpu=case["cpu"] * f, tasks=[
            (spec[0] * f, *spec[1:]) for spec in case["tasks"]]))
        for (returned, finishes, successes, status, remaining), step in \
                zip(base, scaled):
            assert step[:4] == (returned, finishes, successes, status)
            assert step[4] == [rest * f for rest in remaining]
