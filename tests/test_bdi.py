import pytest

from cloudsched.bdi import (FAILURE, HOST, INFORM, PROPOSE, REQUEST, USER,
                            Agent, AgentId, AgentMessage, AgentRuntime,
                            deliberate)
from cloudsched.kernel import Kernel
from cloudsched.tracelog import TraceLog


class Recorder(Agent):
    def __init__(self, runtime, kind, name):
        super().__init__(AgentId(kind, name), runtime)
        self.log = []

    def handle_message(self, msg):
        self.log.append((self.now, msg.performative, msg.body))


class Echo(Agent):
    """Replies to REQUEST after a configurable service delay."""

    def __init__(self, runtime, name, delay=0.0):
        super().__init__(AgentId(HOST, name), runtime)
        self.delay = delay

    def handle_message(self, msg):
        def reply():
            self.reply(msg, PROPOSE, "ok")
        if self.delay:
            self.runtime.kernel.schedule(self.now + self.delay, reply)
        else:
            reply()


def setup_runtime(latency=0.01, collect_timeout=1.0):
    kernel = Kernel()
    return kernel, AgentRuntime(kernel, latency=latency,
                                collect_timeout=collect_timeout,
                                trace=TraceLog())


def outcome(got, tag=""):
    """A reply callback that records the reply's performative, or "timeout"."""
    return lambda m: got.append(tag + ("timeout" if m is None else m.performative))


LADDER = ("i1", "i2", "i3")


class TestDeliberate:
    def _agent(self):
        kernel, runtime = setup_runtime()
        return Recorder(runtime, USER, "u")

    def test_lowest_rank_first(self):
        assert deliberate(self._agent(), "reschedule", LADDER, 0) == "i1"

    def test_exhausted_skipped(self):
        # rung 1: i1 is exhausted
        assert deliberate(self._agent(), "reschedule", LADDER, 1) == "i2"

    def test_all_exhausted_returns_none(self):
        assert deliberate(self._agent(), "reschedule", LADDER, len(LADDER)) is None

    def test_selection_traced_with_desire(self):
        agent = self._agent()
        deliberate(agent, "reschedule", LADDER, 1)
        deliberate(agent, "reschedule", LADDER, 3)   # nothing selected, no record
        records = [r for r in agent.runtime.trace.records
                   if r["kind"] == "intention"]
        assert [r["detail"] for r in records] == [
            {"desire": "reschedule", "intention": "i2"}]


class TestSendAsync:
    def test_delivery_at_latency(self):
        kernel, runtime = setup_runtime(latency=0.01)
        a = Recorder(runtime, USER, "a")
        b = Recorder(runtime, HOST, "b")
        runtime.register(a)
        runtime.register(b)
        a.send(AgentMessage("c1", a.id, b.id, REQUEST, "hi"))
        kernel.run_until_quiescent()
        assert b.log == [(0.01, REQUEST, "hi")]

    def test_sender_not_blocked(self):
        # an unrelated INFORM sent after a REQUEST is handled before the
        # REQUEST's (slow) reply arrives
        kernel, runtime = setup_runtime(latency=0.01, collect_timeout=10.0)
        user = Recorder(runtime, USER, "u")
        echo = Echo(runtime, "h", delay=0.5)
        other = Recorder(runtime, USER, "x")
        runtime.register(user)
        runtime.register(echo)
        runtime.register(other)
        got = []
        user.send(AgentMessage("conv", user.id, echo.id, REQUEST, None),
                  lambda m: got.append((m and "reply", user.now)))
        kernel.schedule(0.1, lambda: other.send(
            AgentMessage("c2", other.id, user.id, INFORM, "meanwhile")))
        kernel.run_until_quiescent()
        assert user.log and user.log[0][1] == INFORM
        assert got == [("reply", 0.52)]
        assert user.log[0][0] < 0.52

    def test_unknown_recipient_failure_routed_to_listener(self):
        kernel, runtime = setup_runtime()
        a = Recorder(runtime, USER, "a")
        runtime.register(a)
        got = []
        a.send(AgentMessage("c9", a.id, AgentId(HOST, "ghost"), REQUEST, None),
               outcome(got))
        kernel.run_until_quiescent()
        assert got == [FAILURE]

    def test_listener_timeout_and_late_reply_discarded(self):
        kernel, runtime = setup_runtime(latency=0.01)
        user = Recorder(runtime, USER, "u")
        echo = Echo(runtime, "h", delay=2.0)   # replies after the timeout
        runtime.register(user)
        runtime.register(echo)
        got = []
        user.send(AgentMessage("conv", user.id, echo.id, REQUEST, None),
                  lambda m: got.append((m, user.now)))
        kernel.run_until_quiescent()
        assert got == [(None, 1.0)]
        assert user.log == []   # late PROPOSE discarded, not handled
        late = [r for r in runtime.trace.records if r["kind"] == "late_reply"]
        assert len(late) == 1

    def test_listener_exclusivity_counts(self):
        kernel, runtime = setup_runtime()
        user = Recorder(runtime, USER, "u")
        fast = Echo(runtime, "fast", delay=0.0)
        slow = Echo(runtime, "slow", delay=9.0)
        runtime.register(user)
        runtime.register(fast)
        runtime.register(slow)
        for i, target in enumerate([fast.id, slow.id, AgentId(HOST, "ghost")]):
            user.send(AgentMessage(f"c{i}", user.id, target, REQUEST, None),
                      lambda m: None)
        kernel.run_until_quiescent()
        assert runtime.listeners_registered == 3
        assert runtime.listeners_resolved + runtime.listeners_timed_out == 3
        assert runtime.listeners_timed_out == 1   # the slow echo

    def test_untraced_timeout_bounce_and_late_reply_never_emit(
            self, emit_only_when_enabled):
        kernel = Kernel()
        runtime = AgentRuntime(kernel, trace=TraceLog(enabled=False))
        user = Recorder(runtime, USER, "u")
        slow = Echo(runtime, "slow", delay=9.0)   # replies after expiry
        runtime.register(user)
        runtime.register(slow)
        got = []
        for conv, target in [("c0", slow.id), ("c1", AgentId(HOST, "ghost"))]:
            user.send(AgentMessage(conv, user.id, target, REQUEST, None),
                      outcome(got))
        kernel.run_until_quiescent()
        assert got == [FAILURE, "timeout"]
        assert user.log == []   # the late PROPOSE was discarded
        assert runtime.listeners_timed_out == 1

    def test_second_listener_on_a_live_conversation_raises(self):
        # the first ask's timer would expire a second one under its key
        kernel, runtime = setup_runtime()
        user = Recorder(runtime, USER, "u")
        echo = Echo(runtime, "h")
        runtime.register(user)
        runtime.register(echo)
        got = []
        request = AgentMessage("conv", user.id, echo.id, REQUEST, None)
        user.send(request, outcome(got, "first:"))
        with pytest.raises(ValueError):
            user.send(request, outcome(got, "second:"))
        kernel.run_until_quiescent()
        # once resolved the key is free again, and the first timer is gone
        user.send(request, outcome(got, "third:"))
        kernel.run_until_quiescent()
        assert got == ["first:PROPOSE", "third:PROPOSE"]
        assert runtime.listeners_registered == 2
        assert runtime.listeners_timed_out == 0
