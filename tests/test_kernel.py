import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudsched.kernel import Kernel, RngStream, RngStreams, SchedulingInPastError


def test_schedule_and_fire_order():
    kernel = Kernel()
    fired = []
    kernel.schedule(5.0, lambda: fired.append("a"))
    assert kernel.run_until_quiescent(100.0) == 5.0
    assert fired == ["a"]


def test_equal_time_fifo_by_seq():
    kernel = Kernel()
    fired = []
    kernel.schedule(5.0, lambda: fired.append("first"))
    kernel.schedule(5.0, lambda: fired.append("second"))
    kernel.run_until_quiescent()
    assert fired == ["first", "second"]


def test_schedule_in_past_rejected():
    kernel = Kernel()
    kernel.schedule(5.0, lambda: None)
    kernel.run_until_quiescent()
    assert kernel.now == 5.0
    with pytest.raises(SchedulingInPastError):
        kernel.schedule(4.0, lambda: None)


def test_schedule_at_nan_rejected():
    kernel = Kernel()
    with pytest.raises(SchedulingInPastError):
        kernel.schedule(float("nan"), lambda: None)
    assert len(kernel) == 0


def test_empty_queue_returns_current_time():
    kernel = Kernel()
    assert kernel.run_until_quiescent(100.0) == 0.0


def test_limit_cuts_run():
    kernel = Kernel()
    fired = []
    kernel.schedule(3.0, lambda: fired.append(3))
    kernel.schedule(9.0, lambda: fired.append(9))
    assert kernel.run_until_quiescent(5.0) == 5.0
    assert fired == [3]
    # the t=9 entry is still there and fires on a later call
    assert kernel.run_until_quiescent(100.0) == 9.0
    assert fired == [3, 9]


def test_cancel_pending_entry():
    kernel = Kernel()
    fired = []
    eid = kernel.schedule(5.0, lambda: fired.append("x"))
    assert kernel.cancel(eid) is True
    kernel.run_until_quiescent()
    assert fired == []


def test_cancel_fired_and_double_cancel():
    kernel = Kernel()
    eid = kernel.schedule(1.0, lambda: None)
    other = kernel.schedule(2.0, lambda: None)
    kernel.run_until_quiescent()
    assert kernel.cancel(eid) is False
    assert kernel.cancel(other) is False
    eid2 = kernel.schedule(5.0, lambda: None)
    assert kernel.cancel(eid2) is True
    assert kernel.cancel(eid2) is False


def test_entries_scheduled_while_running():
    kernel = Kernel()
    fired = []

    def chain():
        fired.append(kernel.now)
        if kernel.now < 3.0:
            kernel.schedule(kernel.now + 1.0, chain)

    kernel.schedule(1.0, chain)
    assert kernel.run_until_quiescent() == 3.0
    assert fired == [1.0, 2.0, 3.0]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=50))
def test_fire_order_sorted_by_time_then_seq(times):
    kernel = Kernel()
    fired = []
    for i, t in enumerate(times):
        kernel.schedule(t, lambda t=t, i=i: fired.append((t, i)))
    kernel.run_until_quiescent()
    assert fired == sorted(fired)
    assert kernel.now == max(t for t, _ in fired)


def test_clock_monotone_non_decreasing():
    kernel = Kernel()
    seen = []
    for t in (4.0, 1.0, 4.0, 2.5):
        kernel.schedule(t, lambda: seen.append(kernel.now))
    kernel.run_until_quiescent()
    assert seen == sorted(seen)


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_rng_stream_reproducible(seed):
    a = RngStream(seed, "scenario")
    b = RngStream(seed, "scenario")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_rng_streams_independent():
    streams = RngStreams(7)
    first = [streams.events.random() for _ in range(3)]
    # a fresh set of streams gives the same event draws regardless of how much
    # the scenario stream was consumed
    streams2 = RngStreams(7)
    streams2.scenario.random()
    streams2.scenario.random()
    assert [streams2.events.random() for _ in range(3)] == first
    assert RngStream(7, "scenario").random() != RngStream(7, "events").random()


class NaiveKernel:
    """Reference semantics: pending entries in a dict, the next one found by a
    full scan for the smallest (fire_at, seq)."""

    def __init__(self):
        self.now = 0.0
        self.pending = {}
        self.next_seq = 0

    def __len__(self):
        return len(self.pending)

    def schedule(self, fire_at, action, kind="timer"):
        if fire_at < self.now:
            raise SchedulingInPastError(fire_at)
        seq = self.next_seq
        self.next_seq += 1
        self.pending[seq] = (fire_at, action)
        return seq

    def cancel(self, entry_id):
        return self.pending.pop(entry_id, None) is not None

    def run_until_quiescent(self, limit=float("inf")):
        while self.pending:
            seq = min(self.pending, key=lambda s: (self.pending[s][0], s))
            fire_at, action = self.pending[seq]
            if fire_at > limit:
                self.now = limit
                return limit
            del self.pending[seq]
            self.now = fire_at
            action()
        return self.now


# offsets from a few shared values so that fire times tie often
offsets = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])
leaf_ops = st.one_of(
    st.tuples(st.just("schedule"), offsets, st.just(())),
    st.tuples(st.just("cancel"), st.integers(0, 60)))
entry_ops = st.one_of(
    leaf_ops,
    st.tuples(st.just("schedule"), offsets, st.lists(leaf_ops, max_size=3)))
programs = st.lists(
    st.one_of(entry_ops,
              st.tuples(st.just("run"), st.one_of(st.none(), offsets))),
    max_size=40)


def execute(kernel, program):
    """Runs a program of schedule / cancel / run(limit) steps; a scheduled
    entry, when it fires, runs its own nested steps. Cancels pick among every
    id issued so far (pending, fired or cancelled), or an id never issued."""
    log, ids = [], []

    def step(op):
        if op[0] == "schedule":
            _, offset, children = op
            label = len(ids)

            def fire():
                log.append(("fire", label, kernel.now, len(kernel)))
                for child in children:
                    step(child)
            ids.append(kernel.schedule(kernel.now + offset, fire))
            log.append(("id", ids[-1], len(kernel)))
        elif op[0] == "cancel":
            target = ids[op[1] % len(ids)] if op[1] < 50 and ids else 10_000 + op[1]
            log.append(("cancel", target, kernel.cancel(target), len(kernel)))
        else:
            limit = float("inf") if op[1] is None else kernel.now + op[1]
            log.append(("run", kernel.run_until_quiescent(limit), kernel.now,
                        len(kernel)))

    for op in program:
        step(op)
    log.append(("end", kernel.run_until_quiescent(), len(kernel)))
    return log


@settings(max_examples=300)
@given(programs)
def test_kernel_matches_naive_reference(program):
    assert execute(Kernel(), program) == execute(NaiveKernel(), program)
