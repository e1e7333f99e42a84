"""Agent runtime: asynchronous mailbox messaging, result listeners, and the
ordered intention ladder an agent deliberates over.

Agents never block on a reply: send_async registers a per-conversation result
listener and returns immediately, so an agent with an outstanding request still
handles every other inbound message in arrival order. Exactly one of
on_result/on_timeout fires per listener.
"""

from dataclasses import dataclass
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
    reply: bool = False    # replies route only through the sender's result listener


@dataclass
class ResultListener:
    conversation_id: str
    expires_at: float
    on_result: Callable[[AgentMessage], None]
    on_timeout: Callable[[], None]
    timer_id: int | None = None


class Agent:
    """Base agent: an id and a mailbox on the shared runtime."""

    def __init__(self, agent_id: AgentId, runtime: "AgentRuntime"):
        self.id = agent_id
        self.runtime = runtime

    @property
    def now(self) -> float:
        return self.runtime.kernel.now

    def send(self, msg: AgentMessage, listener: ResultListener | None = None) -> None:
        self.runtime.send_async(msg, listener)

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
    """Mailbox router on top of the kernel: constant per-hop latency, result
    listeners with expiry, FAILURE bounce for unknown recipients."""

    def __init__(self, kernel: Kernel, latency: float = 0.01, trace: TraceLog | None = None):
        self.kernel = kernel
        self.latency = latency
        self.trace = trace if trace is not None else NULL_TRACE
        self.agents: dict[AgentId, Agent] = {}
        self._listeners: dict[tuple[AgentId, str], ResultListener] = {}
        self.drop_filter: Callable[[AgentMessage], bool] | None = None
        self.listeners_registered = 0
        self.listeners_resolved = 0
        self.listeners_timed_out = 0

    def register(self, agent: Agent) -> None:
        if agent.id in self.agents:
            raise ValueError(f"duplicate agent id {agent.id}")
        self.agents[agent.id] = agent

    def add_listener(self, owner: AgentId, listener: ResultListener) -> None:
        """Register a listener under (owner, conversation). A second one under
        a live key raises: the first one's timer would expire it."""
        key = (owner, listener.conversation_id)
        if key in self._listeners:
            raise ValueError(f"{owner} already awaits conversation "
                             f"{listener.conversation_id!r}")
        self._listeners[key] = listener
        self.listeners_registered += 1
        listener.timer_id = self.kernel.schedule(
            listener.expires_at, lambda: self._expire(key), kind="listener-timeout")

    def _expire(self, key: tuple[AgentId, str]) -> None:
        listener = self._listeners.pop(key)
        self.listeners_timed_out += 1
        if self.trace.enabled:
            self.trace.emit(self.kernel.now, key[0].label, "listener_timeout",
                            conversation=key[1])
        listener.on_timeout()

    def send_async(self, msg: AgentMessage, listener: ResultListener | None = None) -> None:
        """Enqueue delivery at now + latency; the sender continues immediately."""
        if listener is not None:
            self.add_listener(msg.sender, listener)
        dropped = self.drop_filter is not None and self.drop_filter(msg)
        if self.trace.enabled:
            self.trace.emit(self.kernel.now, msg.sender.label,
                            "drop" if dropped else "send",
                            to=msg.to.label, performative=msg.performative,
                            conversation=msg.conversation_id)
        if not dropped:
            self.kernel.schedule(self.kernel.now + self.latency,
                                 lambda: self._deliver(msg), kind="deliver")

    def _deliver(self, msg: AgentMessage) -> None:
        recipient = self.agents.get(msg.to)
        if recipient is None:
            bounce = AgentMessage(msg.conversation_id, msg.to, msg.sender,
                                  FAILURE, body={"reason": "unknown-recipient"},
                                  reply=True)
            if self.trace.enabled:
                self.trace.emit(self.kernel.now, msg.to.label, "bounce",
                                conversation=msg.conversation_id)
            self.kernel.schedule(self.kernel.now + self.latency,
                                 lambda: self._deliver(bounce), kind="deliver")
            return
        if self.trace.enabled:
            self.trace.emit(self.kernel.now, msg.to.label, "deliver",
                            sender=msg.sender.label, performative=msg.performative,
                            conversation=msg.conversation_id)
        key = (msg.to, msg.conversation_id)
        listener = self._listeners.pop(key, None)
        if listener is not None:
            self.listeners_resolved += 1
            self.kernel.cancel(listener.timer_id)
            listener.on_result(msg)
            return
        if msg.reply:
            # reply arriving after its listener expired: discard
            if self.trace.enabled:
                self.trace.emit(self.kernel.now, msg.to.label, "late_reply",
                                conversation=msg.conversation_id)
            return
        recipient.handle_message(msg)
