"""Agent runtime: asynchronous mailbox messaging, reply callbacks, and the
ordered intention ladder an agent deliberates over.

Agents never block on a reply: send_async registers the ask's reply callback
under (sender, conversation) and returns immediately, so an agent with an
outstanding request still handles every other inbound message in arrival
order. The callback runs exactly once: with the reply, or with None once the
runtime's `collect_timeout` has passed.

Messages and reply timers ride two kernel timer lanes, one of delay
`latency` and one of delay `collect_timeout`: every message takes the same
delay, so a lane's items fire in the order they were set, and a lane holds
one heap entry at a time however many messages or asks it holds. An ask
that is answered costs the kernel nothing.
"""

from dataclasses import dataclass
from itertools import count
from operator import itemgetter
from typing import Any, Callable, Optional

from .kernel import Kernel
from .tracelog import NULL_TRACE, TraceLog

USER = "USER"
HOST = "HOST"
SUPERVISE = "SUPERVISE"

REQUEST = "REQUEST"
PROPOSE = "PROPOSE"
ACCEPT = "ACCEPT"
REJECT = "REJECT"
INFORM = "INFORM"
FAILURE = "FAILURE"


class AgentId(tuple):
    """An agent's (kind, name), compared and hashed by value. Its trace label
    `kind:name` is built once, here, instead of on every record it appears in."""

    __slots__ = ()

    def __new__(cls, kind: str, name: str):
        return tuple.__new__(cls, (kind, name, f"{kind.lower()}:{name}"))

    kind = property(itemgetter(0))
    name = property(itemgetter(1))
    label = property(itemgetter(2))

    def __str__(self):
        return self[2]

    def __repr__(self):
        return f"AgentId(kind={self[0]!r}, name={self[1]!r})"

    def __getnewargs__(self):   # copy and pickle rebuild from (kind, name)
        return self[:2]


@dataclass
class AgentMessage:
    conversation_id: str
    sender: "AgentId"
    to: "AgentId"
    performative: str
    body: Any = None
    reply: bool = False    # replies route only through the asker's reply callback


OnReply = Callable[[Optional[AgentMessage]], None]


class Agent:
    """Base agent: an id and a mailbox on the shared runtime."""

    def __init__(self, agent_id: AgentId, runtime: "AgentRuntime"):
        self.id = agent_id
        self.runtime = runtime

    @property
    def now(self) -> float:
        return self.runtime.kernel.now

    def send(self, msg: AgentMessage, on_reply: OnReply | None = None) -> None:
        self.runtime.send_async(msg, on_reply)

    def reply(self, msg: AgentMessage, performative: str, body: Any = None,
              on_reply: OnReply | None = None) -> None:
        """Answer `msg` in its conversation."""
        self.runtime.send_async(AgentMessage(msg.conversation_id, self.id,
                                             msg.sender, performative, body,
                                             reply=True), on_reply)

    def handle_message(self, msg: AgentMessage) -> None:
        raise NotImplementedError


def deliberate(agent: Agent, desire: str, ladder: tuple[str, ...],
               rung: int) -> Optional[str]:
    """Select the intention at `rung` of the desire's ordered ladder (every
    rung below it is exhausted). Returns None past the last rung: every plan
    is exhausted and the caller starts a new pass."""
    if rung >= len(ladder):
        return None
    if agent.runtime.trace.enabled:
        agent.runtime.trace.emit(agent.now, str(agent.id), "intention",
                                 desire=desire, intention=ladder[rung])
    return ladder[rung]


class AgentRuntime:
    """Mailbox router on top of the kernel: constant per-hop latency, and
    reply callbacks that time out `collect_timeout` after their ask. A
    message to an agent that was never registered is a program error: its
    delivery raises KeyError."""

    def __init__(self, kernel: Kernel, latency: float = 0.01,
                 collect_timeout: float = 1.0, trace: TraceLog | None = None):
        self.kernel = kernel
        self.latency = latency
        self.trace = trace if trace is not None else NULL_TRACE
        self.agents: dict[AgentId, Agent] = {}
        # (sender, conversation) -> its timer's lane item, whose value is the
        # reply callback
        self._listeners: dict[tuple[AgentId, str], tuple] = {}
        self._timers = kernel.lane(self._listeners, self._expire, collect_timeout)
        self._mail = kernel.lane({}, self._deliver, latency)
        self._sends = count()       # keys of the messages in flight
        self.drop_filter: Callable[[AgentMessage], bool] | None = None
        self.listeners_registered = 0
        self.listeners_resolved = 0
        self.listeners_timed_out = 0

    def register(self, agent: Agent) -> None:
        if agent.id in self.agents:
            raise ValueError(f"duplicate agent id {agent.id}")
        self.agents[agent.id] = agent

    def _expire(self, key: tuple[AgentId, str], on_reply: OnReply) -> None:
        self.listeners_timed_out += 1
        if self.trace.enabled:
            self.trace.emit(self.kernel.now, key[0].label, "listener_timeout",
                            conversation=key[1])
        on_reply(None)

    def send_async(self, msg: AgentMessage, on_reply: OnReply | None = None) -> None:
        """Queue delivery at now + latency; the sender continues immediately.
        `on_reply` is registered under (sender, conversation); a second one
        under a live key raises, since the first one's timer would expire it."""
        kernel = self.kernel
        if on_reply is not None:
            key = (msg.sender, msg.conversation_id)
            if key in self._listeners:
                raise ValueError(f"{msg.sender} already awaits conversation "
                                 f"{msg.conversation_id!r}")
            self.listeners_registered += 1
            kernel.timer(self._timers, key, on_reply)
        dropped = self.drop_filter is not None and self.drop_filter(msg)
        if self.trace.enabled:
            self.trace.message(kernel.now, "drop" if dropped else "send",
                               msg.sender.label, "to", msg.to.label,
                               msg.performative, msg.conversation_id)
        if not dropped:
            kernel.timer(self._mail, next(self._sends), msg)

    def _deliver(self, send_number: int, msg: AgentMessage) -> None:
        """Deliver one message: a reply to the listener that awaits it, any
        other message to its recipient."""
        kernel, trace, to = self.kernel, self.trace, msg.to
        if trace.enabled:
            trace.message(kernel.now, "deliver", to.label, "sender",
                          msg.sender.label, msg.performative,
                          msg.conversation_id)
        if not msg.reply:
            self.agents[to].handle_message(msg)
            return
        timer = self._listeners.pop((to, msg.conversation_id), None)
        if timer is not None:
            self.listeners_resolved += 1
            timer[3](msg)               # its value: the reply callback
        elif trace.enabled:
            # a reply arriving after its ask timed out is discarded
            trace.emit(kernel.now, to.label, "late_reply",
                       conversation=msg.conversation_id)
