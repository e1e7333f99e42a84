"""User, host, and supervise agents wired to the recommendation protocol and
the three-intention rescheduling cycle.

Scheduling round (one user batch):
  user --REQUEST(requirements)--> supervise --INFORM(recommendation)--> user
  user --REQUEST(quote vm)--> each recommended host --PROPOSE/REJECT--> user
  user --ACCEPT(best proposal)--> its host --INFORM/FAILURE--> user
  user --INFORM(outcome)--> supervise (releases the BUSY leases)

Rescheduling after an uncertain event invalidates a contract:
  an event that changes a user's request (its deadline or task fields) is
  checked against the contract at once; if the contract no longer holds, the
  user deliberates over its one intention ladder: i1 re-quote the same VM,
  i2 another VM in the same host (both negotiated with that host alone, with
  no supervise agent and no outcome), i3 a full new round. Passes repeat every
  retry period until the contract is valid again or the deadline passes; a
  pass that no VM can hold waits, on the same chain of instants, until the
  batch's own slot can finish a task or the deadline comes.

A user has at most one pending step, one kernel entry: its initial round's
retry, its cycle's next poll, or its cycle's wait. A poll is a wait whose
finish is the pass end; a user event re-plans the step (a deadline cut can
only bring a wait forward), and the end of a cycle cancels it.

A degraded VM is handled host-side first, affected users in ascending id:
  host --PROPOSE(offer)--> user --ACCEPT(offer's proposal)/REJECT--> host
  host --INFORM/FAILURE--> user, as for any ACCEPT
The user falls back to its own cycle when the rescue fails.

Hosts bind, end and fail batches through the lifecycle functions of `model`,
and every agent applies its uncertain events through
`rescheduling.apply_event`: the same functions the central scheduler uses.
"""

import math
from dataclasses import dataclass
from functools import partial

from . import model, rescheduling
from .ara import (HostProposal, Recommendation, VmRegistry, VmSnapshot,
                  make_proposal, select_best)
from .bdi import (ACCEPT, FAILURE, HOST, INFORM, PROPOSE, REJECT, REQUEST,
                  SUPERVISE, USER, Agent, AgentId, AgentMessage, AgentRuntime,
                  deliberate)
from .model import BatchState, Host, Requirements, RequestStatus, SimWorld
from .rescheduling import RescheduleCycle

LADDER = ("i1", "i2", "i3")   # same VM, same host, global round
WAKE_PASSES = 4096            # the longest walk `UserAgent._wake` makes


@dataclass
class ScheduleRequest:
    """User-to-host: quote the sender's remaining work on this VM, or, with
    `sibling`, on the best of the host's other VMs."""
    vm_id: str
    sibling: bool


@dataclass
class RoundOutcome:
    conversation: str


@dataclass
class ReplacementOffer:
    proposal: HostProposal
    event_id: int


@dataclass
class RescueFailed:
    event_id: int


@dataclass
class SlotExpired:
    """Host-to-user: the batch's slot ended with work left."""


@dataclass
class ReleaseNotice:
    vm_id: str


class SuperviseAgent(Agent):
    """Keeps the VM registry synchronized and serves recommendation requests,
    leasing each recommended VM BUSY until the round concludes or the lease
    expires (the liveness patch for users that never report an outcome)."""

    def __init__(self, runtime: AgentRuntime, theta: int, lease_timeout: float):
        super().__init__(AgentId(SUPERVISE, "sa"), runtime)
        self.registry = VmRegistry(trace=runtime.trace)
        self.theta = theta
        # a live lease timer per leasing conversation (each is leased once)
        self._leases: dict[str, tuple] = {}
        self._lease_timers = runtime.kernel.lane(self._leases, self._lease_expired,
                                                 lease_timeout)

    def handle_message(self, msg: AgentMessage) -> None:
        body = msg.body
        if msg.performative == REQUEST and isinstance(body, Requirements):
            rec = self.registry.recommend(body, self.theta, self.now,
                                          msg.conversation_id)
            if rec.vm_refs:
                self.runtime.kernel.timer(self._lease_timers,
                                          msg.conversation_id, rec)
            self.reply(msg, INFORM, rec)
        elif msg.performative == INFORM and isinstance(body, VmSnapshot):
            self.registry.sync(body)
        elif msg.performative == INFORM and isinstance(body, RoundOutcome):
            self._leases.pop(body.conversation, None)
            self.registry.finalize(body.conversation, self.now)

    def _lease_expired(self, conversation: str, rec: Recommendation) -> None:
        released = self.registry.finalize(conversation, self.now)
        if released and self.runtime.trace.enabled:
            self.runtime.trace.emit(self.now, str(self.id), "lease_expired",
                                    conversation=conversation, released=released)


class HostAgent(Agent):
    """Owns one host's VMs: quotes and commits contracts against ground truth,
    executes reservations (checkpoint + completion entries), synchronizes VM
    snapshots with the supervise agent, and rescues batches stranded by a
    capacity degradation of one of its VMs."""

    def __init__(self, runtime: AgentRuntime, host: Host, world: SimWorld,
                 supervise: AgentId):
        super().__init__(AgentId(HOST, host.host_id), runtime)
        self.host = host
        self.world = world
        self.supervise = supervise
        self._seq = 0
        self._rescue_queue: list[tuple[str, int]] = []   # (user_id, event_id)
        self._rescue_busy = False

    def _next_conv(self, tag: str) -> str:
        self._seq += 1
        return f"{self.id.name}:{tag}:{self._seq}"

    def start(self) -> None:
        for vm in self.host.vms:
            self.sync_vm(vm)

    def _vm(self, vm_id: str) -> model.VmDescriptor | None:
        """The VM if this host owns it, else None."""
        vm = self.world.vms.get(vm_id)
        return vm if vm is not None and vm.host_id == self.host.host_id else None

    def sync_vm(self, vm: model.VmDescriptor) -> None:
        self.send(AgentMessage(self._next_conv("sync"), self.id, self.supervise,
                               INFORM, VmSnapshot.of(vm, self.host.host_id,
                                                     self.now)))

    # -- inbound protocol ---------------------------------------------------

    def handle_message(self, msg: AgentMessage) -> None:
        body = msg.body
        if msg.performative == REQUEST and isinstance(body, ScheduleRequest):
            if body.sibling:
                reqs = self._remaining(msg.sender.name)
                proposal = None if reqs is None else \
                    self._best_sibling(reqs, exclude_vm=body.vm_id)
            else:
                proposal = self._quote(msg.sender.name, body.vm_id)
            self.reply(msg, REJECT if proposal is None else PROPOSE, proposal)
        elif msg.performative == ACCEPT and isinstance(body, HostProposal):
            self._accept(msg)
        elif msg.performative == INFORM and isinstance(body, ReleaseNotice):
            vm = self._vm(body.vm_id)
            if vm is not None:
                self.sync_vm(vm)

    # -- quoting and committing ----------------------------------------------

    def _remaining(self, user_id: str) -> Requirements | None:
        """The batch's remaining work, checkpointed to now; None when the
        batch is unknown, terminal or has nothing left."""
        batch = self.world.batches.get(user_id)
        return None if batch is None else \
            self.world.fresh_requirements(batch, self.now)

    def _quote(self, user_id: str, vm_id: str) -> HostProposal | None:
        """Quote the batch's remaining work on this host's VM `vm_id`, as if
        the batch's own reservation there were already released."""
        reqs = self._remaining(user_id)
        if reqs is None:
            return None
        res = self.world.batches[user_id].reservation
        exclude = res if res is not None and res.vm_id == vm_id else None
        return make_proposal(self._vm(vm_id), reqs, self.now, exclude=exclude)

    def _best_sibling(self, reqs: Requirements,
                      exclude_vm: str) -> HostProposal | None:
        """`select_best` over this host's quotes but `exclude_vm`'s, or None."""
        proposals = [p for vm in self.host.vms if vm.vm_id != exclude_vm
                     if (p := make_proposal(vm, reqs, self.now)) is not None]
        return select_best(proposals) if proposals else None

    def _accept(self, msg: AgentMessage) -> None:
        """Answer an ACCEPT of a proposal, the user's own or a rescue offer's:
        commit it and reply INFORM, or FAILURE when the re-quote declines."""
        reservation = self.commit_contract(msg.body.user_id, msg.body.vm_id)
        self.reply(msg, FAILURE if reservation is None else INFORM)

    def commit_contract(self, user_id: str, vm_id: str) -> model.Reservation | None:
        """Re-quote against ground truth and commit; replacement releases the
        old interval atomically with the new reservation."""
        quote = self._quote(user_id, vm_id)
        if quote is None:
            return None
        batch = self.world.batches[user_id]
        vm = self.world.vms[vm_id]
        reqs = batch.remaining_requirements()
        old = batch.reservation
        if old is not None:
            old_vm = self.world.vms[old.vm_id]
            model.release_remainder(batch, old_vm, self.now)
            if old_vm.host_id == self.host.host_id:
                if old_vm.vm_id != vm.vm_id:
                    self.sync_vm(old_vm)
            else:
                self.send(AgentMessage(self._next_conv("rel"), self.id,
                                       AgentId(HOST, old_vm.host_id), INFORM,
                                       ReleaseNotice(old_vm.vm_id)))
        reservation = model.reserve(vm, reqs, quote.start)
        model.bind(batch, reservation, self.runtime.kernel, self._on_slot_end)
        self.sync_vm(vm)
        if self.runtime.trace.enabled:
            self.runtime.trace.emit(self.now, str(self.id), "contract",
                                    user=user_id, vm=vm.vm_id,
                                    start=reservation.start, end=reservation.end,
                                    deadline=reqs.deadline)
        return reservation

    def _on_slot_end(self, batch: BatchState) -> None:
        res = model.end_slot(batch, self.world.vms)
        if res is None:
            return
        completed = batch.request.status is RequestStatus.COMPLETED
        if self.runtime.trace.enabled:
            self.runtime.trace.emit(self.now, str(self.id),
                                    "completed" if completed else "slot_expired",
                                    user=batch.request.user_id, vm=res.vm_id)
        if not completed:
            # written slot expired with work left (un-repaired inflation);
            # nudge the owner in case its cycle is not already hunting
            self.send(AgentMessage(self._next_conv("exp"), self.id,
                                   AgentId(USER, batch.request.user_id),
                                   INFORM, SlotExpired()))

    # -- degraded-VM rescue ---------------------------------------------------

    def on_vm_event(self, event: rescheduling.UncertainEvent) -> None:
        vm = self._vm(event.target_id)
        if vm is None:
            return
        broken = rescheduling.apply_event(event, self.world, self.runtime.kernel,
                                          self._on_slot_end, self.runtime.trace,
                                          self.id)
        self.sync_vm(vm)
        self._rescue_queue.extend((b.request.user_id, event.event_id)
                                  for b in broken)
        if broken and not self._rescue_busy:
            self._rescue_next()

    def _rescue_next(self) -> None:
        self._rescue_busy = True
        while self._rescue_queue:
            user_id, event_id = self._rescue_queue.pop(0)
            batch = self.world.batches.get(user_id)
            res = None if batch is None else batch.reservation
            if res is None or batch.terminal or rescheduling.contract_holds(
                    batch, self.world.vms[res.vm_id], self.now):
                continue
            offer = self._best_sibling(batch.remaining_requirements(),
                                       exclude_vm=res.vm_id)
            user = AgentId(USER, user_id)
            if offer is None:
                self.send(AgentMessage(self._next_conv("nof"), self.id, user,
                                       INFORM, RescueFailed(event_id)))
                continue
            conv = self._next_conv("rescue")
            if self.runtime.trace.enabled:
                self.runtime.trace.emit(self.now, str(self.id), "rescue_offer",
                                        user=user_id, vm=offer.vm_id, event=event_id)
            self.send(AgentMessage(conv, self.id, user, PROPOSE,
                                   ReplacementOffer(offer, event_id)),
                      partial(self._rescue_reply, user_id, event_id))
            return
        self._rescue_busy = False

    def _rescue_reply(self, user_id: str, event_id: int,
                      msg: AgentMessage | None) -> None:
        if msg is None:
            self.send(AgentMessage(self._next_conv("nok"), self.id,
                                   AgentId(USER, user_id), INFORM,
                                   RescueFailed(event_id)))
        elif msg.performative == ACCEPT:
            self._accept(msg)
        # an explicit REJECT means the user already chose to run its own cycle
        self._rescue_next()


class _RoundState:
    """One negotiation, from its first message to its outcome: the quotes
    still awaited, the proposals in, and `done`, called with the outcome.
    `cycle` is the reschedule cycle it serves (None in the initial phase);
    `rec` is the recommendation a round answers (None for i1 and i2)."""

    def __init__(self, conversation: str, done,
                 cycle: RescheduleCycle | None):
        self.conversation = conversation
        self.done = done
        self.cycle = cycle
        self.rec: Recommendation | None = None
        self.pending = 0
        self.proposals: list[tuple[HostProposal, AgentId]] = []


class UserAgent(Agent):
    """Drives one batch from submission to completion: recommendation rounds
    for the initial contract, then a rescheduling cycle whenever an uncertain
    event invalidates it."""

    def __init__(self, runtime: AgentRuntime, batch: BatchState, world: SimWorld,
                 supervise: AgentId, retry_period: float):
        super().__init__(AgentId(USER, batch.request.user_id), runtime)
        self.batch = batch
        self.world = world
        self.supervise = supervise
        self.retry_period = retry_period
        self._round = 0
        self._cycle: RescheduleCycle | None = None
        self._rung = 0             # LADDER index: every rung below it failed
        # the one pending step: (entry, wake, pass end, finish, step, kind)
        self._next: tuple | None = None
        self._last_event_id = -1

    # -- lifecycle ------------------------------------------------------------

    @property
    def request(self):
        return self.batch.request

    def _fingerprint(self):
        return (self.request.deadline,
                tuple((t.workload, t.ram, t.storage, t.bandwidth)
                      for t in self.request.tasks))

    def start(self) -> None:
        if self.batch.reservation is None:
            self._start_round(self._initial_done)

    def _initial_done(self, ok: bool) -> None:
        if not (ok or self.batch.terminal or self.batch.reservation is not None):
            self._retry(self.start, "round-retry")

    def _retry(self, step, kind: str) -> None:
        """The one give-up rule, after a failed round or pass, the batch
        checkpointed to now. While some VM holds its remaining tasks, `step`
        runs again after `retry_period`. While none does, a bound batch waits
        for its slot's next finish or its deadline, whichever comes first;
        it fails at its deadline, and at once when it is unbound (an initial
        round) or has neither a finish left nor a deadline."""
        batch, deadline, finish = self.batch, self.request.deadline, math.inf
        res = batch.reservation
        if self.now < deadline:
            reqs = batch.remaining_requirements()
            if any(model.capacity_feasible(vm, reqs)
                   for vm in self.world.vms.values()):
                finish = self.now
            elif res is not None:
                finish = model.next_finish(batch, self.world.vms[res.vm_id])
        # a bound batch with no finish left still waits for a finite deadline
        if finish < math.inf or \
                res is not None and self.now < deadline < math.inf:
            self._wait(self.now, finish, step, kind)
            return
        self._fail_batch()
        self._end_cycle(False)

    def _wait(self, pass_end: float, finish: float, step, kind: str) -> None:
        """Set (or move) the one pending step to run `step` at `_wake(pass_end,
        finish)`. A `finish` at the pass end is the plain next poll. Past it,
        capacities only fall and requirements only rise, so until its own
        slot can finish a task (at `finish`, from `model.next_finish`), every
        pass of a bound batch that no VM holds fails as the last one did."""
        at = self._wake(pass_end, finish)
        if self._next is not None:
            if self._next[1] == at:
                return
            self.runtime.kernel.cancel(self._next[0])
        entry = self.runtime.kernel.schedule(at, self._resume, kind=kind)
        self._next = (entry, at, pass_end, finish, step, kind)
        if at > pass_end + self.retry_period and self.runtime.trace.enabled:
            self.runtime.trace.emit(self.now, str(self.id), "cycle_wait",
                                    event=self._cycle.triggering_event,
                                    until=at)

    def _wake(self, pass_end: float, finish: float) -> float:
        """The instant of the cycle's next step on the chain that polling
        walks from `pass_end`: a pass starts `retry_period` after the last
        one ended and takes a step every two `latency` hops (i1, i2 and i3
        each ask and hear back), summed as the kernel sums them. It is the
        start of the first pass whose end reaches `finish`, or the first step
        at or after the deadline, where the batch fails, if that is earlier.
        The walk stops at the start of its WAKE_PASSES-th pass: a far
        deadline then costs one more failing pass, not a stalled step."""
        deadline, latency = self.request.deadline, self.runtime.latency
        t = pass_end
        for _ in range(WAKE_PASSES):
            t = start = t + self.retry_period
            fails = start if start >= deadline else None
            for _ in LADDER:
                t = t + latency + latency
                if fails is None and t >= deadline:
                    fails = t
            if t >= finish:
                return start
            if fails is not None:
                return fails
        return start

    def _resume(self) -> None:
        """The pending step's entry fired: clear it and run the step."""
        step = self._next[4]
        self._next = None
        step()

    def _fail_batch(self) -> None:
        batch = self.batch
        if batch.terminal:
            return
        vm = model.fail(batch, self.world.vms, self.runtime.kernel, self.now)
        if vm is not None:
            self.send(AgentMessage(f"{self.id.name}:rel:{self._round}", self.id,
                                   AgentId(HOST, vm.host_id), INFORM,
                                   ReleaseNotice(vm.vm_id)))
        if self.runtime.trace.enabled:
            self.runtime.trace.emit(self.now, str(self.id), "failed",
                                    user=self.request.user_id,
                                    unfinished=len(batch.incomplete_indices()))

    # -- negotiation: request quotes, accept the best, conclude ----------------

    def _negotiation(self, tag: str, done) -> _RoundState:
        self._round += 1
        return _RoundState(f"{self.id.name}#{tag}{self._round}", done,
                           self._cycle)

    def _start_round(self, done) -> None:
        """A recommendation round: the supervise agent names the VMs to ask."""
        reqs = self.world.fresh_requirements(self.batch, self.now)
        if reqs is None:
            done(self.request.status is RequestStatus.COMPLETED)
            return
        state = self._negotiation("r", done)
        self.send(AgentMessage(state.conversation, self.id, self.supervise,
                               REQUEST, reqs),
                  partial(self._on_recommendation, state))

    def _on_recommendation(self, state: _RoundState,
                           msg: AgentMessage | None) -> None:
        if msg is None or not msg.body.vm_refs:
            self._conclude(state, False)
            return
        state.rec = rec = msg.body
        self._negotiate(state, [] if self.batch.terminal else
                        [(AgentId(HOST, s.host_agent), s.vm_id, False)
                         for s in rec.vm_refs])

    def _negotiate(self, state: _RoundState, asks) -> None:
        """Ask each (host, vm_id, sibling) in `asks` for a quote; the
        decision comes once every quote is in or timed out."""
        state.pending = len(asks)
        if not asks:
            self._decide(state)
        for idx, (host, vm_id, sibling) in enumerate(asks):
            self.send(AgentMessage(f"{state.conversation}:{idx}", self.id, host,
                                   REQUEST, ScheduleRequest(vm_id, sibling)),
                      partial(self._collect, state))

    def _collect(self, state: _RoundState, msg: AgentMessage | None) -> None:
        state.pending -= 1
        if msg is not None and msg.performative == PROPOSE:
            state.proposals.append((msg.body, msg.sender))
        if state.pending == 0:
            self._decide(state)

    def _decide(self, state: _RoundState) -> None:
        """Accept the earliest completion, unless the batch ended or the cycle
        the negotiation serves ended out of band meanwhile."""
        best = None
        if state.cycle is self._cycle and not self.batch.terminal:
            if state.proposals:
                best = select_best([p for p, _ in state.proposals])
            if state.rec is not None and self.runtime.trace.enabled:
                self.runtime.trace.emit(
                    self.now, str(self.id), "round",
                    conversation=state.conversation, theta=state.rec.theta,
                    recommended=[s.vm_id for s in state.rec.vm_refs],
                    proposals=[[p.vm_id, p.completion]
                               for p, _ in state.proposals],
                    chosen=None if best is None else best.vm_id)
        if best is None:
            self._conclude(state, False)
            return
        host = next(h for p, h in state.proposals if p is best)
        self.send(AgentMessage(f"{state.conversation}:acc", self.id, host,
                               ACCEPT, best),
                  partial(self._on_accept_reply, state))

    def _on_accept_reply(self, state: _RoundState,
                         msg: AgentMessage | None) -> None:
        self._conclude(state, msg is not None and msg.performative == INFORM)

    def _conclude(self, state: _RoundState, ok: bool) -> None:
        """A round reports its outcome, which frees its leases; `done` runs
        only while the negotiation's cycle is still the current one."""
        if state.rec is not None:
            self.send(AgentMessage(f"{state.conversation}:out", self.id,
                                   self.supervise, INFORM,
                                   RoundOutcome(state.conversation)))
        if state.cycle is self._cycle:
            state.done(ok)

    # -- uncertain events and the rescheduling cycle ---------------------------

    def on_user_event(self, event: rescheduling.UncertainEvent) -> None:
        self._last_event_id = event.event_id
        before = self._fingerprint()
        broken = rescheduling.apply_event(event, self.world, self.runtime.kernel,
                                          None, self.runtime.trace, self.id)
        # only a change to the request can break the contract: a deadline
        # cut on an unbounded deadline (inf - delta = inf) triggers nothing
        if broken and self._fingerprint() != before:
            self._begin_cycle(event.event_id)
        if self._next is not None:   # a deadline cut may wake a wait earlier
            self._wait(*self._next[2:])

    def _begin_cycle(self, event_id: int) -> None:
        if self._cycle is not None or self.batch.terminal:
            return
        self._cycle = RescheduleCycle(self.request.user_id, event_id)
        self._rung = 0
        if self.runtime.trace.enabled:
            self.runtime.trace.emit(self.now, str(self.id), "cycle_start",
                                    event=event_id)
        self._cycle_step()

    def _cycle_step(self) -> None:
        cycle, batch = self._cycle, self.batch
        if batch.terminal:
            self._end_cycle(batch.request.status is RequestStatus.COMPLETED)
            return
        if self.now >= self.request.deadline:
            self._fail_batch()
            self._end_cycle(False)
            return
        if self._contract_holds():
            self._end_cycle(True)
            return
        intention = deliberate(self, "reschedule", LADDER, self._rung)
        if intention is None:
            self._rung = 0
            cycle.passes += 1
            self._retry(self._cycle_step, "cycle-retry")
            return
        cycle.attempts += 1
        if self.runtime.trace.enabled:
            self.runtime.trace.emit(self.now, str(self.id), "cycle_attempt",
                                    event=cycle.triggering_event,
                                    pass_index=cycle.passes,
                                    intention=intention)
        if intention == "i3":
            self._start_round(self._intention_done)
        elif batch.reservation is None:
            self._intention_done(False)
        else:
            # i1 re-quotes the VM, i2 asks its host for a sibling
            sibling = intention == "i2"
            tag = "samehost" if sibling else "requote"
            vm = self.world.vms[batch.reservation.vm_id]
            self._negotiate(self._negotiation(tag, self._intention_done),
                            [(AgentId(HOST, vm.host_id), vm.vm_id, sibling)])

    def _contract_holds(self) -> bool:
        """Checkpoint the bound batch to now; True when that finished it or
        its contract still delivers, False when it holds no reservation."""
        res = self.batch.reservation
        return res is not None and rescheduling.contract_holds(
            self.batch, self.world.vms[res.vm_id], self.now)

    def _intention_done(self, ok: bool) -> None:
        if ok:
            self._end_cycle(True)
        else:
            self._rung += 1
            self._cycle_step()

    def _end_cycle(self, resolved: bool) -> None:
        cycle = self._cycle
        if cycle is None:
            return
        if self._next is not None:
            self.runtime.kernel.cancel(self._next[0])
            self._next = None
        if self.runtime.trace.enabled:
            self.runtime.trace.emit(self.now, str(self.id), "cycle_end",
                                    event=cycle.triggering_event,
                                    resolved=resolved, attempts=cycle.attempts,
                                    passes=cycle.passes)
        self._cycle = None

    # host-initiated rescue ------------------------------------------------------

    def handle_message(self, msg: AgentMessage) -> None:
        body = msg.body
        if msg.performative == PROPOSE and isinstance(body, ReplacementOffer):
            self._on_replacement_offer(msg)
        elif msg.performative == INFORM and isinstance(body, RescueFailed):
            self._begin_cycle(body.event_id)
        elif msg.performative == INFORM and isinstance(body, SlotExpired):
            self._begin_cycle(self._last_event_id)

    def _on_replacement_offer(self, msg: AgentMessage) -> None:
        offer: ReplacementOffer = msg.body
        if not self.batch.terminal and \
                offer.proposal.completion <= self.request.deadline:
            self.reply(msg, ACCEPT, offer.proposal,
                       partial(self._rescued, offer.event_id))
            return
        self.reply(msg, REJECT)
        self._begin_cycle(offer.event_id)

    def _rescued(self, event_id: int, msg: AgentMessage | None) -> None:
        """The host's answer to an accepted offer: a commit ends a running
        cycle once the new contract holds; a decline or none starts the
        cycle."""
        if msg is None or msg.performative != INFORM:
            self._begin_cycle(event_id)
        elif self._cycle is not None and self._contract_holds():
            self._end_cycle(True)
