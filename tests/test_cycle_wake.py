"""Differential test of the reschedule cycle's wake: a pass whose bound batch
no VM holds waits for its slot's next finish (`UserAgent._wake`) instead of
polling every retry period. Each small world with events runs `ara` twice,
once as shipped and once with `_wake` returning the plain next poll, and the
two runs must agree: every batch's status and success flags exactly, every
finish, ledger bound, makespan and utilization variance within a relative
1e-12 (a skipped pass skips its checkpoints, which moves the last digits of
the progress sums)."""

import math

import pytest

from cloudsched.agents import UserAgent
from cloudsched.harness import run_simulation
from cloudsched.scenario import ScenarioConfig

REL = 1e-12


def close(a, b) -> bool:
    return a == b or math.isclose(a, b, rel_tol=REL)


def config(seed, deadline, p):
    return ScenarioConfig(seed=seed, hosts=3, vms_per_host=(1, 3), users=40,
                          tasks_per_user=(2, 5), deadline=deadline,
                          event_probability=p)


def outcome(result):
    batches = {user: (b.request.status, b.successes, b.finishes)
               for user, b in result.world.batches.items()}
    ledgers = {vm_id: [(r.user_id, r.start, r.effective_end)
                       for r in vm.reservations]
               for vm_id, vm in result.world.vms.items()}
    return batches, ledgers, result.metrics


WORLDS = [(seed, deadline, p) for seed in (1, 2, 3, 4)
          for deadline in ((850.0, 2100.0), None) for p in (0.5, 1.0)]


@pytest.fixture(scope="module")
def runs():
    """(shipped, polled) outcomes of every world, and how many waits skipped
    at least one pass in the shipped runs."""
    wake, skipped = UserAgent._wake, []

    def counted(agent, pass_end, finish):
        at = wake(agent, pass_end, finish)
        skipped.append(at > pass_end + agent.retry_period)
        return at

    def polled(agent, pass_end, finish):
        return pass_end + agent.retry_period

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for world in WORLDS:
            mp.setattr(UserAgent, "_wake", counted)
            shipped = outcome(run_simulation(config(*world)))
            mp.setattr(UserAgent, "_wake", polled)
            out[world] = shipped, outcome(run_simulation(config(*world)))
    return out, sum(skipped)


def test_worlds_wait(runs):
    # the grid holds waits that skip passes, in both deadline kinds
    _, skipped = runs
    assert skipped > 0


@pytest.mark.parametrize("world", WORLDS, ids=str)
def test_waiting_changes_no_outcome(runs, world):
    (batches, ledgers, metrics), (want_batches, want_ledgers, want_metrics) = \
        runs[0][world]
    assert batches.keys() == want_batches.keys()
    for user, (status, successes, finishes) in batches.items():
        want_status, want_successes, want_finishes = want_batches[user]
        assert (status, successes) == (want_status, want_successes), user
        assert all(f == w or None not in (f, w) and close(f, w)
                   for f, w in zip(finishes, want_finishes)), user
    assert ledgers.keys() == want_ledgers.keys()
    for vm_id, entries in ledgers.items():
        want = want_ledgers[vm_id]
        assert [e[0] for e in entries] == [w[0] for w in want], vm_id
        assert all(close(e[1], w[1]) and close(e[2], w[2])
                   for e, w in zip(entries, want)), vm_id
    assert close(metrics.makespan, want_metrics.makespan)
    assert close(metrics.utilization_variance, want_metrics.utilization_variance)
    assert (metrics.total_tasks, metrics.successful_tasks) == \
        (want_metrics.total_tasks, want_metrics.successful_tasks)
