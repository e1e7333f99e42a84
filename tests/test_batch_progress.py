"""The one-pass `model.checkpoint` and `BatchState.remaining_requirements`
against their per-task-call references in `oracles`. Twin batches take the
same steps (checkpoints, TaskInflates and DeadlineCuts), one through the model
and one through the reference, and must agree bit for bit after every step:
progress, outcomes, status, clock, returned indices and the remaining view."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudsched import model
from cloudsched.model import (EPS, MI_EPS, BatchState, RequestStatus,
                              TaskSpec, UserRequest, VmDescriptor)
from cloudsched.rescheduling import (DeadlineCut, TaskInflate, UncertainEvent,
                                     apply_user_event)

import oracles

FIELDS = ("workload", "ram", "storage", "bandwidth")


def make_batch(case):
    """Bind a batch holding `case`'s tasks, each already run to its drawn
    fraction, to a reservation of its remaining work."""
    vm = VmDescriptor("h000v00", "h000", case["cpu"], 2000.0, 10.0, 2000.0)
    tasks = [TaskSpec(f"u00000t{p}", *spec[:4])
             for p, spec in enumerate(case["tasks"])]
    batch = BatchState(UserRequest("u00000", tasks, case["deadline"]))
    batch.fractions = [spec[4] for spec in case["tasks"]]
    res = model.reserve(vm, batch.remaining_requirements(), case["start"])
    batch.view = None
    if case["release"] is not None:
        res.released_at = res.start + case["release"] * (res.end - res.start)
    batch.reservation = res
    batch.request.status = case["status"]
    return batch, vm


def state(batch):
    req = batch.request
    return (batch.fractions, batch.finishes, batch.successes, req.status,
            batch.last_checkpoint, req.deadline,
            [(t.task_id, t.workload, t.ram, t.storage, t.bandwidth)
             for t in req.tasks])


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
    now = 0.0
    for kind, value in case["steps"]:
        if kind == "checkpoint":
            now += value
            assert model.checkpoint(batch, vm, now) == \
                oracles.reference_checkpoint(ref, ref_vm, now)
        else:
            event = user_event(kind, value)
            assert apply_user_event(batch, vm, event, now) == \
                reference_user_event(ref, ref_vm, event, now)
        assert state(batch) == state(ref)
        assert batch.incomplete_indices() == \
            oracles.reference_incomplete_indices(ref)
        assert batch.remaining_requirements() == \
            oracles.reference_remaining_requirements(ref)
    return batch


def case_of(tasks, cpu=1000.0, start=0.0, deadline=math.inf, release=None,
            status=RequestStatus.SCHEDULED, steps=()):
    return {"tasks": list(tasks), "cpu": cpu, "start": start,
            "deadline": deadline, "release": release, "status": status,
            "steps": list(steps)}


def task(workload, fraction=0.0):
    return (workload, 900.0, 2.0, 300.0, fraction)


# need exceeds the budget by just over MI_EPS, and the part-filled task's
# remaining work then rounds to just under it
PART_POUR_TASK = (24777.577267760105, 900.0, 2.0, 300.0, 0.9111850307401649)
PART_POUR_BUDGET = 2200.6197623693024

task_specs = st.tuples(
    st.one_of(st.sampled_from([MI_EPS, 2 * MI_EPS, 2.0 + MI_EPS, 10000.0]),
              st.floats(MI_EPS / 2, 40000.0)),
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
    "start": st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
    "deadline": st.one_of(st.just(math.inf), st.floats(1.0, 500.0)),
    "release": st.one_of(st.none(), st.floats(0.0, 1.0)),
    "status": st.sampled_from([RequestStatus.SCHEDULED, RequestStatus.SCHEDULED,
                               RequestStatus.EXECUTING, RequestStatus.COMPLETED,
                               RequestStatus.FAILED]),
    "steps": steps,
})


@settings(max_examples=300, deadline=None)
@given(case=cases)
# a remaining amount of exactly MI_EPS, whole and half-run, counts as done
@example(case=case_of([task(MI_EPS), task(2 * MI_EPS, 0.5), task(10000.0)],
                      steps=[("checkpoint", 4.0), ("checkpoint", 20.0)]))
# need == budget + MI_EPS finishes the task and leaves a negative budget
@example(case=case_of([task(2.0 + MI_EPS), task(5.0)], cpu=1.0,
                      steps=[("checkpoint", 2.0), ("checkpoint", 10.0)]))
# a task ending at cursor == deadline succeeds, the next one fails
@example(case=case_of([task(10000.0), task(10000.0)], deadline=10.0,
                      steps=[("checkpoint", 20.0)]))
# a partial pour that leaves at most MI_EPS (by rounding) finishes the task
# at the end of the interval, so the batch completes with every finish set
@example(case=case_of([PART_POUR_TASK], cpu=1.0,
                      steps=[("checkpoint", PART_POUR_BUDGET)]))
# hi <= lo + EPS pours nothing: at the start, and EPS / 2 after a checkpoint
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
@example(case=case_of([task(10000.0, 1.0)], status=RequestStatus.COMPLETED,
                      steps=[("checkpoint", 5.0), ("cut", 1.0)]))
def test_one_pass_matches_per_task_reference(case):
    run_twins(case)


def test_edge_examples_reach_their_edges():
    """The explicit examples above hit the branches they are named for."""
    batch = run_twins(case_of([task(MI_EPS), task(2 * MI_EPS, 0.5),
                               task(10000.0)], steps=[("checkpoint", 20.0)]))
    assert batch.finishes == [None, None, 10.0]
    assert batch.request.status is RequestStatus.COMPLETED

    batch = run_twins(case_of([task(2.0 + MI_EPS), task(5.0)], cpu=1.0,
                              steps=[("checkpoint", 2.0)]))
    assert batch.fractions[0] == 1.0 and batch.fractions[1] < 0.0

    batch = run_twins(case_of([PART_POUR_TASK], cpu=1.0,
                              steps=[("checkpoint", PART_POUR_BUDGET)]))
    assert batch.fractions == [1.0] and batch.finishes == [PART_POUR_BUDGET]
    assert batch.successes == [True]
    assert batch.request.status is RequestStatus.COMPLETED

    batch = run_twins(case_of([task(10000.0), task(10000.0)], deadline=10.0,
                              steps=[("checkpoint", 20.0)]))
    assert batch.finishes == [10.0, 20.0]
    assert batch.successes == [True, False]

    batch = run_twins(case_of([task(10000.0)],
                              steps=[("checkpoint", 5.0),
                                     ("checkpoint", EPS / 2)]))
    assert batch.fractions == [0.5]
    assert batch.last_checkpoint == 5.0 + EPS / 2

    batch = run_twins(case_of([task(10000.0)], status=RequestStatus.FAILED,
                              steps=[("checkpoint", 5.0)]))
    assert batch.fractions == [0.0] and batch.last_checkpoint == 5.0
