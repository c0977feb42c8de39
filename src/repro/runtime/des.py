"""Discrete-event backend: hosts one :class:`ProtocolCore` on the DES.

A :class:`DesHost` is the glue between a pure core and the simulated
substrate.  Effect dispatch, capture, continuations and the crash-guard
rule live in the shared
:class:`~repro.runtime.interpreter.EffectInterpreter`; this module
supplies the DES leaves with exactly the calls the pre-refactor inline
role code made — same ``Network.send`` order, same ``CpuBank.submit`` /
``Simulator.schedule_at`` sequence — so same-seed traces are
bit-identical across the refactor.  Timers go through
``SimProcess.set_timer``, which also refuses to arm one once the host
crashed.

With :attr:`capture` enabled the host additionally publishes
:class:`~repro.obs.events.ReplayInput` / ``ReplayEffect`` events on the
bus: the core's full inbox (messages, timer fires, job and milestone
completions) and its full effect stream.  A :class:`JsonlTraceSink`
subscribed to ``CATEGORY_REPLAY`` then yields a standalone re-runnable
log for :mod:`repro.runtime.replay`.  Capture is an explicit opt-in
flag — not a ``bus.wants`` query — because all-category sinks must keep
seeing the exact pre-capture event stream.
"""

from __future__ import annotations

from typing import Any

from repro.obs.events import ReplayEffect, ReplayInput
from repro.runtime.core import ProtocolCore
from repro.runtime.effects import (
    ApplyUpdate,
    CancelTimer,
    CtrlJob,
    Emit,
    Halt,
    Job,
    Multicast,
    NeqMulticast,
    Schedule,
    Send,
    SetTimer,
)
from repro.runtime.interpreter import EffectInterpreter
from repro.runtime.replay import effect_signature
from repro.sim.process import SimProcess

__all__ = ["DesHost"]


def _noop() -> None:
    return None


class DesHost(SimProcess, EffectInterpreter):
    """One simulated node running one protocol core."""

    def __init__(
        self,
        sim,
        net,
        core: ProtocolCore,
        cores: int = 7,
        capture: bool = False,
    ) -> None:
        # the simulated CPU banks, timer table and crash flag come from
        # SimProcess; the base's in-memory state is never set up here
        SimProcess.__init__(self, sim, core.pid, cores=cores)
        self.net = net
        self.core = core
        # pre-bound network entry points: the Send/Multicast/NeqMulticast
        # arms route straight into the flyweight fan-out without
        # re-resolving attributes per performed effect
        self._net_send = net.send
        self._net_multicast = net.multicast
        self._net_neq_multicast = net.neq_multicast
        #: opt-in replay capture (see module docstring).  Pass it at
        #: construction to also capture the core's birth effects (the
        #: initial timers performed during ``bind``) — a replayed core
        #: re-performs those, so a from-birth log is what byte-compares.
        self.capture = capture
        core.bind(self)

    # --------------------------------------------------- runtime interface
    @property
    def now(self) -> float:
        return self.sim.now

    def wants(self, category: str) -> bool:
        return self.sim.bus.wants(category)

    # timer_armed() comes from SimProcess, app_cpu (self.cpu) from the base
    perform = EffectInterpreter.perform

    # -------------------------------------------------------- capture hooks
    def _capture_effect(self, effect) -> None:
        self.sim.bus.emit(
            ReplayEffect(
                time=self.sim.now,
                pid=self.pid,
                signature=effect_signature(effect),
            )
        )

    def _record_input(self, kind: str, ref: str) -> None:
        self.sim.bus.emit(
            ReplayInput(
                time=self.sim.now, pid=self.pid, input_kind=kind, ref=ref
            )
        )

    # ------------------------------------------------------------ DES leaves
    def _do_send(self, effect: Send) -> None:
        self._net_send(self.pid, effect.dst, effect.msg)

    def _do_multicast(self, effect: Multicast) -> None:
        self._net_multicast(self.pid, effect.dsts, effect.msg)

    def _do_neq_multicast(self, effect: NeqMulticast) -> None:
        self._net_neq_multicast(self.pid, effect.dsts, effect.msg)

    def _do_set_timer(self, effect: SetTimer) -> None:
        self.set_timer(effect.name, effect.delay, self._fire_timer, effect)

    def _do_cancel_timer(self, effect: CancelTimer) -> None:
        self.cancel_timer(effect.name)

    def _do_schedule(self, effect: Schedule) -> None:
        self.sim.schedule(effect.delay, self._fire_sched, effect)

    def _do_job(self, effect: Job) -> None:
        handle = self.cpu.submit(effect.cost, self._job_thunk(effect))
        start = handle.time - effect.cost
        for idx in range(len(effect.milestones)):
            offset = effect.milestones[idx][0]
            self.sim.schedule_at(
                start + offset,
                self._fire_milestone,
                effect,
                idx,
            )

    def _do_ctrl_job(self, effect: CtrlJob) -> None:
        self.ctrl.submit(effect.cost, self._job_thunk(effect))

    def _do_apply_update(self, effect: ApplyUpdate) -> None:
        self.cpu.submit(effect.cost, _noop)

    def _do_emit(self, effect: Emit) -> None:
        self.sim.bus.emit(effect.event)

    def _do_halt(self, effect: Halt) -> None:
        self.crash()

    # ------------------------------------------------------------ messaging
    def deliver(self, msg: Any) -> None:
        if self.crashed:
            return
        self._deliver_to_core(msg)

    # ---------------------------------------------------------------- crash
    def crash(self) -> None:
        self.core.crashed = True
        super().crash()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DesHost {type(self.core).__name__} {self.pid}>"
