"""The kernel's delivery batches and timer lanes against the one-entry-per-
action references in `oracles`. Random programs of schedules, cancels, sends
(with and without a reply callback, dropped or not, to known and unknown
agents), timers of a test lane whose delay differs from the runtime's
`collect_timeout`, and runs with a limit go through both; every fired action,
the clock, `len(kernel)` after every step, the listener counters and the
trace records must be equal."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudsched.bdi import USER, Agent, AgentId, AgentMessage, AgentRuntime
from cloudsched.kernel import Kernel
from cloudsched.tracelog import TraceLog

import oracles

NAMES = ("a", "b", "c")


class Node(Agent):
    def __init__(self, name, side):
        super().__init__(AgentId(USER, name), side.runtime)
        self.side = side

    def handle_message(self, msg):
        self.side.log("handle", self.id.name, msg.conversation_id,
                      msg.performative)
        self.side.steps(msg.body[1])


class Side:
    """One implementation driven by a program. The test lane's timers, each
    set `delay` ahead, are set with `Kernel.timer` and cancelled by dropping
    their key; the reference schedules and cancels an entry for each."""

    def __init__(self, reference: bool, latency: float, timeout: float,
                 delay: float):
        self.reference = reference
        self.delay = delay
        self.kernel = oracles.ReferenceKernel() if reference else Kernel()
        runtime = oracles.ReferenceRuntime if reference else AgentRuntime
        self.runtime = runtime(self.kernel, latency=latency,
                               collect_timeout=timeout, trace=TraceLog())
        self.runtime.drop_filter = lambda msg: msg.body[0]
        self.nodes = {name: Node(name, self) for name in NAMES}
        for node in self.nodes.values():
            self.runtime.register(node)
        self.out, self.ids, self.labels = [], [], 0
        self.live: dict = {}
        if not reference:
            self.lane = self.kernel.lane(
                self.live, lambda key, value: self.expire(key), delay)

    def log(self, *what):
        self.out.append(what + (self.kernel.now, len(self.kernel)))

    def steps(self, ops):
        for op in ops:
            self.step(op)

    def expire(self, key):
        self.log("expire", key)

    def step(self, op):
        kernel, kind = self.kernel, op[0]
        if kind == "schedule":
            _, offset, children = op
            label = self.labels
            self.labels += 1

            def fire():
                self.log("fire", label)
                self.steps(children)
            self.ids.append(kernel.schedule(kernel.now + offset, fire))
        elif kind == "cancel":
            # an id of a scheduled entry (pending, fired or cancelled) or none
            target = self.ids[op[1] % len(self.ids)] if self.ids else -1
            self.log("cancel", kernel.cancel(target))
        elif kind == "send":
            _, src, dst, conv, wait, reply, drop, children = op
            on_reply = None
            if wait:
                def on_reply(msg):
                    if msg is None:
                        self.log("timeout", src, conv)
                    else:
                        self.log("result", src, conv, msg.performative)
                    self.steps(children)
            sender = self.nodes[src]
            msg = AgentMessage(conv, sender.id, AgentId(USER, dst),
                               "PROPOSE" if reply else "REQUEST",
                               (drop, children), reply=reply)
            try:
                sender.send(msg, on_reply)
            except ValueError:
                self.log("awaiting", src, conv)
        elif kind == "timer":
            key = op[1]
            if key in self.live:
                self.log("armed", key)
            elif self.reference:
                def expire(key=key):
                    del self.live[key]
                    self.expire(key)
                self.live[key] = kernel.schedule(kernel.now + self.delay, expire)
            else:
                # one value for every timer: a re-set key's dead item must
                # stay dead although it holds the same value
                kernel.timer(self.lane, key, None)
        elif kind == "resolve":
            entry = self.live.pop(op[1], None)
            if self.reference and entry is not None:
                kernel.cancel(entry)
            self.log("resolve", op[1], entry is not None)
        else:
            limit = float("inf") if op[1] is None else kernel.now + op[1]
            self.log("run", kernel.run_until_quiescent(limit))
        if kind in ("schedule", "timer"):
            self.log("set")


def execute(reference: bool, latency: float, timeout: float, delay: float,
            program):
    side = Side(reference, latency, timeout, delay)
    for op in program:
        side.step(op)
        side.log("step")
    side.log("end", side.kernel.run_until_quiescent())
    rt = side.runtime
    return (side.out, rt.trace.records, rt.listeners_registered,
            rt.listeners_resolved, rt.listeners_timed_out)


# shared values, so that fire times, expiries and deliveries tie often
offsets = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])    # also lane delays
latencies = st.sampled_from([0.0, 0.5, 1.0])
convs = st.sampled_from(["c0", "c1", "c2"])
keys = st.sampled_from(["k0", "k1"])


def sends(children):
    return st.tuples(st.just("send"), st.sampled_from(NAMES),
                     st.sampled_from(NAMES + ("ghost",)), convs,
                     st.booleans(), st.booleans(),
                     st.sampled_from([False, False, False, True]), children)


leaf_ops = st.one_of(
    st.tuples(st.just("schedule"), offsets, st.just(())),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    sends(st.just(())),
    st.tuples(st.just("timer"), keys),
    st.tuples(st.just("resolve"), keys))
children = st.lists(leaf_ops, max_size=3).map(tuple)
entry_ops = st.one_of(
    leaf_ops, sends(children),
    st.tuples(st.just("schedule"), offsets, children))
programs = st.lists(
    st.one_of(entry_ops, entry_ops,
              st.tuples(st.just("run"), st.one_of(st.none(), offsets))),
    max_size=30)


def send(src, dst, conv, wait=False, reply=False, drop=False, children=()):
    return ("send", src, dst, conv, wait, reply, drop, tuple(children))


# latency 0: a send from inside a delivery runs after the rest of its instant
LATENCY_ZERO = [send("a", "b", "c0", children=[send("b", "c", "c1")]),
                send("a", "c", "c2", children=[send("c", "a", "c0")])]
# an expiry equal to the delivery instant, set between two sends of it
# (latency, timeout and delay 1.0)
EXPIRY_TIE = [send("a", "b", "c0"), send("a", "c", "c1", wait=True),
              send("b", "c", "c2"), ("timer", "k0"), send("c", "a", "c0")]
# the two lanes' expiries cross: timeout 3.0, delay 0.5, so a lane timer set
# at t=1 fires before a reply timer set at t=0
OUT_OF_ORDER = [send("a", "b", "c0", wait=True, drop=True), ("timer", "k0"),
                ("schedule", 1.0, (("timer", "k1"),
                                   send("b", "c", "c1", wait=True, drop=True)))]
# a cut with a live timer and an expiring reply timer beyond the limit
# (timeout 3.0, delay 1.5)
CUT = [send("a", "b", "c0", wait=True, drop=True), ("timer", "k0"),
       ("run", 1.0), ("run", 0.0), send("b", "a", "c1"), ("run", 1.5)]


@settings(max_examples=400, deadline=None)
@given(latency=latencies, timeout=offsets, delay=offsets, program=programs)
@example(latency=0.0, timeout=1.0, delay=1.0, program=LATENCY_ZERO)
@example(latency=1.0, timeout=1.0, delay=1.0, program=EXPIRY_TIE)
@example(latency=0.5, timeout=3.0, delay=0.5, program=OUT_OF_ORDER)
@example(latency=0.5, timeout=3.0, delay=1.5, program=CUT)
def test_batches_and_lanes_match_reference(latency, timeout, delay, program):
    assert execute(False, latency, timeout, delay, program) == \
        execute(True, latency, timeout, delay, program)


@pytest.mark.parametrize("delay", [-0.5, math.nan, math.inf])
def test_lane_rejects_a_delay_that_is_negative_nan_or_infinite(delay):
    kernel = Kernel()
    with pytest.raises(ValueError):
        kernel.lane({}, lambda key, value: None, delay)
    assert len(kernel) == 0


class CountingKernel(Kernel):
    def __init__(self):
        super().__init__()
        self.kinds = []

    def schedule(self, fire_at, action, kind="timer"):
        self.kinds.append(kind)
        return super().schedule(fire_at, action, kind)


def test_examples_reach_their_edges():
    """The examples above batch, tie, cross and cut as named."""
    side = Side(False, 0.0, 1.0, 1.0)
    side.kernel = side.runtime.kernel = CountingKernel()
    side.steps(LATENCY_ZERO)
    side.kernel.run_until_quiescent()
    # two sends at t=0, then the two sends their deliveries make
    assert side.kernel.kinds == ["deliver", "deliver"]
    assert [o[:3] for o in side.out] == [
        ("handle", "b", "c0"), ("handle", "c", "c2"),
        ("handle", "c", "c1"), ("handle", "a", "c0")]

    out, *_, timed_out = execute(False, 1.0, 1.0, 1.0, EXPIRY_TIE)
    # the timer and the lane timer split the instant's sends into three entries
    assert ("timeout", "a", "c1", 1.0, 4) in out and timed_out == 1
    assert [o[0] for o in out if o[0] in ("handle", "expire", "timeout")] == \
        ["handle", "timeout", "handle", "handle", "expire", "handle"]

    out, *_ = execute(False, 0.5, 3.0, 0.5, OUT_OF_ORDER)
    assert [(o[0], o[-2]) for o in out if o[0] in ("timeout", "expire")] == [
        ("expire", 0.5), ("expire", 1.5), ("timeout", 3.0), ("timeout", 4.0)]

    out, *_ = execute(False, 0.5, 3.0, 1.5, CUT)
    assert [o for o in out if o[0] == "run"] == [
        ("run", 1.0, 1.0, 2), ("run", 1.0, 1.0, 2), ("run", 2.5, 2.5, 1)]


def test_resolved_listeners_cost_no_heap_entry():
    """Each delivery instant takes one heap entry and an answered ask takes
    none: the lane's first timer holds the only timer entry."""
    kernel = CountingKernel()
    runtime = AgentRuntime(kernel, latency=0.5)
    side_nodes = [Agent(AgentId(USER, name), runtime) for name in NAMES]
    for node in side_nodes:
        node.handle_message = lambda msg: None
        runtime.register(node)
    a, b, c = side_nodes
    for n in range(50):
        a.send(AgentMessage(f"c{n}", a.id, b.id, "REQUEST"), lambda m: None)
        b.send(AgentMessage(f"c{n}", b.id, a.id, "PROPOSE", reply=True))
    assert len(kernel) == 150 and len(kernel._heap) == 2
    assert kernel.kinds == ["deliver"]
    assert kernel.run_until_quiescent() == 0.5
    assert runtime.listeners_resolved == 50 and len(kernel) == 0
    assert not kernel._heap
