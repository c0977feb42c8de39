"""In-memory backend for driving protocol cores in unit tests.

No Simulator, no Network: a :class:`TestRuntime` records every effect a
core performs and keeps just enough state (armed timers, pending jobs)
to let a test fire continuations by hand or drain them synchronously.
This is what makes adversarial input orderings *surgical*: a test
constructs a Verifier or Coordinator core, feeds hand-crafted messages
in any order, and asserts directly on state and on the typed effect
stream — without racing a whole simulated deployment.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.runtime.core import ProtocolCore
from repro.runtime.effects import (
    CtrlJob,
    Effect,
    Emit,
    Job,
    Multicast,
    NeqMulticast,
    Schedule,
    Send,
    SetTimer,
)
from repro.runtime.interpreter import EffectInterpreter, StubCpu

__all__ = ["TestRuntime", "McRuntime", "describe_effect", "sent_messages"]


def describe_effect(effect: Effect) -> str:
    """One-line human description of a pending effect, for diagnostics.

    Names the effect type and whatever identifies its payload: message
    type and destination(s) for sends, continuation qualname and id for
    jobs/scheds, timer name for timers.
    """
    t = type(effect)
    if t is Send:
        return f"Send->{effect.dst}:{type(effect.msg).__name__}"
    if t in (Multicast, NeqMulticast):
        return (
            f"{t.__name__}->{','.join(effect.dsts)}"
            f":{type(effect.msg).__name__}"
        )
    if t is Job:
        fn = getattr(effect.fn, "__qualname__", repr(effect.fn))
        return f"Job#{effect.job_id}:{fn}(+{len(effect.milestones)}ms)"
    if t is CtrlJob:
        fn = getattr(effect.fn, "__qualname__", repr(effect.fn))
        return f"CtrlJob#{effect.job_id}:{fn}"
    if t is Schedule:
        fn = getattr(effect.fn, "__qualname__", repr(effect.fn))
        return f"Schedule#{effect.sched_id}:{fn}"
    if t is SetTimer:
        return f"SetTimer:{effect.name}"
    return t.__name__


class TestRuntime(EffectInterpreter):
    """Inert effect recorder with manual continuation control.

    Every performed effect is logged in :attr:`effects`; queued jobs,
    ctrl-jobs and scheds wait in :attr:`pending` until :meth:`drain`
    (or :meth:`run_local`) runs them under the base's crash guards.
    """

    def __init__(
        self,
        core: ProtocolCore,
        cores: int = 7,
        wanted: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self.effects: list[Effect] = []
        self.pending: list[Effect] = []  # jobs/ctrl-jobs/scheds, FIFO
        super().__init__(core, StubCpu(cores), wanted)

    def perform(self, effect) -> None:
        self.effects.append(effect)
        EffectInterpreter.perform(self, effect)

    def _queue_local(self, effect) -> None:
        self.pending.append(effect)

    # ------------------------------------------------------- test controls
    def fire_timer(self, name: str) -> None:
        """Fire an armed timer immediately."""
        self._fire_timer(self.timers.pop(name))

    def run_local(self, effect) -> None:
        """Run one queued job/ctrl-job/sched: a job's milestones first
        (costs are ignored — there is no clock to advance), then its
        completion."""
        if type(effect) is Schedule:
            self._fire_sched(effect)
            return
        if type(effect) is Job:
            for idx in range(len(effect.milestones)):
                self._fire_milestone(effect, idx)
        self._job_thunk(effect)()

    def drain(self, max_rounds: int = 1000) -> None:
        """Run queued jobs/scheds (and any they enqueue) to quiescence."""
        rounds = 0
        while self.pending:
            rounds += 1
            if rounds > max_rounds:
                undelivered = ", ".join(
                    describe_effect(e) for e in self.pending[:16]
                )
                if len(self.pending) > 16:
                    undelivered += f", ... and {len(self.pending) - 16} more"
                raise RuntimeError(
                    f"TestRuntime.drain did not quiesce after {max_rounds} "
                    f"rounds; core {self.core.pid!r} still has "
                    f"{len(self.pending)} undelivered effect(s): "
                    f"[{undelivered}]"
                )
            self.run_local(self.pending.pop(0))

    # ------------------------------------------------------------ querying
    def of(self, effect_type: type) -> list[Effect]:
        """Recorded effects of one concrete type, in perform order."""
        return [e for e in self.effects if type(e) is effect_type]

    def clear(self) -> None:
        self.effects.clear()

    def emitted(self, event_type: type) -> list[Any]:
        """Trace events the core emitted, filtered by event class."""
        return [
            e.event
            for e in self.effects
            if type(e) is Emit and type(e.event) is event_type
        ]


def _never(category: str) -> bool:
    return False


class McRuntime(TestRuntime):
    """A :class:`TestRuntime` whose sends and local work go to a world.

    Every send and every queued job/sched of the core is routed into an
    explorer-owned *world* (duck-typed: ``clock``, ``enqueue_send(src,
    dst, msg, neq)`` and ``enqueue_local(src, effect)``) — the world
    treats that shared pending frontier as a choice point and decides
    which action happens next, then calls back :meth:`deliver`,
    :meth:`run_local` or :meth:`fire_timer`.  Execution semantics are the
    base's; only the *order* is external.

    No effect log is kept and ``wants`` is always False: trace events
    never feed back into core state, and dropping both keeps snapshots
    small and states comparable across schedules.
    """

    def __init__(self, core: ProtocolCore, world, cores: int = 7) -> None:
        self.world = world
        super().__init__(core, cores, wanted=_never)

    @property
    def now(self) -> float:
        return self.world.clock

    perform = EffectInterpreter.perform

    def _do_send(self, effect: Send) -> None:
        self.world.enqueue_send(self.core.pid, effect.dst, effect.msg, False)

    def _do_multicast(self, effect: Multicast) -> None:
        for dst in effect.dsts:
            self.world.enqueue_send(self.core.pid, dst, effect.msg, False)

    def _do_neq_multicast(self, effect: NeqMulticast) -> None:
        for dst in effect.dsts:
            self.world.enqueue_send(self.core.pid, dst, effect.msg, True)

    def _queue_local(self, effect) -> None:
        self.world.enqueue_local(self.core.pid, effect)


def sent_messages(rt: TestRuntime, msg_type: Optional[type] = None) -> list:
    """All messages the core sent (point-to-point or multicast), in
    order, optionally filtered by message class."""
    out = []
    for effect in rt.effects:
        if type(effect) in (Send, Multicast, NeqMulticast):
            if msg_type is None or type(effect.msg) is msg_type:
                out.append(effect.msg)
    return out
