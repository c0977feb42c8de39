"""The one effect-host base: every backend that hosts a :class:`ProtocolCore`.

A host realises the effects a core performs and feeds the core its
inputs.  Every backend — the DES (:class:`~repro.runtime.des.DesHost`),
the live OS-process node (:class:`~repro.live.host.LiveHost`), the
in-memory test, model-checking and replay hosts
(:mod:`repro.runtime.testing`, :mod:`repro.runtime.replay`) — derives
from :class:`EffectInterpreter`, which owns, once:

* the read-side contract cores consume: ``now``, ``wants``,
  ``timer_armed``, ``app_cpu``;
* table dispatch of each performed effect to a ``_do_*`` leaf, with
  replay capture published *before* the leaf runs;
* stamping ``sender``/``_neq`` on delivery, as the transport does;
* the crash-guard rule (below), in the continuations every host fires:
  :meth:`~EffectInterpreter._fire_timer`,
  :meth:`~EffectInterpreter._fire_sched`,
  :meth:`~EffectInterpreter._job_thunk` and
  :meth:`~EffectInterpreter._fire_milestone`;
* the in-memory leaves: :class:`StubCpu` cost accounting and a
  name → ``SetTimer`` timer table.  A host overrides only the leaves its
  substrate realises differently (the DES and live hosts override the
  sends, the CPU banks and the clocks).

Crash-guard rule, after ``core.crashed`` (the DES is the reference):

============================  =========================================
input                         after the crash
============================  =========================================
message delivery              dropped (``ProtocolCore.handle``)
guarded ``Job`` completion    skipped
unguarded ``Job`` completion  runs (the core's handlers re-check)
``Job`` milestone             runs
``CtrlJob`` completion        skipped (control work is always guarded)
``Schedule``                  runs (workload pumps outlive their IP)
armed timer firing            skipped (``Halt`` also disarms every timer)
``SetTimer`` performed        dropped: the timer is never armed
============================  =========================================

The dispatch order and the capture hook placement are part of the byte-
identical-trace contract: capture emission happens *before* the leaf
runs, and leaves execute synchronously in perform order (pinned by the
golden fig5/turncoat fixtures).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.runtime import codec
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

__all__ = ["EffectInterpreter", "StubCpu"]


class StubCpu:
    """Inert CPU-bank view for hosts without a simulated bank.

    ``busy_seconds`` is charged the full job cost when the job is
    performed, as ``CpuBank.submit`` charges it, so every value a core
    can read back matches the DES.
    """

    def __init__(self, cores: int = 1) -> None:
        self.cores = cores
        self.busy_seconds = 0.0


def _always(category: str) -> bool:
    return True


class EffectInterpreter:
    """Host base: read side, dispatch, crash guards, in-memory leaves.

    A host calls ``__init__`` after setting up its own state — it binds
    the core last, and binding runs the core's ``on_bind`` effects.
    (``DesHost`` initialises through ``SimProcess`` instead and overrides
    every leaf that touches state set up here.)

    Dispatch is a per-host table of bound leaves built lazily from
    :data:`_PRIMITIVES` on first use of each effect type — one dict
    lookup per performed effect, with subclass overrides picked up by
    the late binding.
    """

    core: ProtocolCore
    #: opt-in replay capture: when set, every performed effect and every
    #: consumed input is published through the capture emitters.
    capture: bool = False

    #: effect type → leaf name (the closed effect vocabulary)
    _PRIMITIVES = {
        Send: "_do_send",
        Multicast: "_do_multicast",
        NeqMulticast: "_do_neq_multicast",
        SetTimer: "_do_set_timer",
        CancelTimer: "_do_cancel_timer",
        Schedule: "_do_schedule",
        Job: "_do_job",
        CtrlJob: "_do_ctrl_job",
        ApplyUpdate: "_do_apply_update",
        Emit: "_do_emit",
        Halt: "_do_halt",
    }

    def __init__(
        self,
        core: ProtocolCore,
        cpu: Any,
        wanted: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self.core = core
        self.cpu = cpu
        self.clock = 0.0
        self.timers: dict[str, Any] = {}
        self.unhandled_messages = 0
        self._wanted = wanted or _always
        core.bind(self)

    # ------------------------------------------------------------ read side
    @property
    def now(self) -> float:
        """Current time on the host's clock."""
        return self.clock

    def wants(self, category: str) -> bool:
        """Whether any trace sink subscribes to ``category`` — lets the
        core skip building event payloads nobody will see."""
        return self._wanted(category)

    def timer_armed(self, name: str) -> bool:
        """Whether the named timer is currently pending."""
        return name in self.timers

    @property
    def app_cpu(self) -> Any:
        """View of the app-compute bank: cores read its ``cores`` and
        ``busy_seconds``."""
        return self.cpu

    # ------------------------------------------------------------- dispatch
    def perform(self, effect) -> None:
        """Realise one effect through the host's leaves."""
        if self.capture:
            self._capture_effect(effect)
        try:
            fn = self._dispatch[type(effect)]
        except (AttributeError, KeyError):
            fn = self._bind_primitive(type(effect))
        fn(effect)

    def _bind_primitive(self, effect_type):
        """Bind (and cache) the leaf for one effect type."""
        name = self._PRIMITIVES.get(effect_type)
        if name is None:  # pragma: no cover - vocabulary is closed
            raise TypeError(f"unknown effect type {effect_type!r}")
        table = getattr(self, "_dispatch", None)
        if table is None:
            table = self._dispatch = {}
        fn = table[effect_type] = getattr(self, name)
        return fn

    # -------------------------------------------------------- capture hooks
    def _capture_effect(self, effect) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _record_input(self, kind: str, ref: str) -> None:  # pragma: no cover
        raise NotImplementedError

    # -------------------------------------- continuations (the crash guard)
    def _fire_timer(self, effect: SetTimer) -> None:
        if self.core.crashed:
            return
        if self.capture:
            self._record_input("timer", effect.name)
        effect.fn(*effect.args)

    def _fire_sched(self, effect: Schedule) -> None:
        if self.capture:
            self._record_input("sched", str(effect.sched_id))
        effect.fn(*effect.args)

    def _job_thunk(self, effect):
        """The completion continuation of a ``Job``/``CtrlJob``: what a
        CPU bank (simulated or emulated) calls when the work is done."""
        guarded = type(effect) is CtrlJob or effect.guarded

        def run() -> None:
            if guarded and self.core.crashed:
                return
            if self.capture:
                self._record_input("job", str(effect.job_id))
            effect.fn(*effect.args)

        return run

    def _fire_milestone(self, effect: Job, idx: int) -> None:
        if self.capture:
            self._record_input("milestone", f"{effect.job_id}:{idx}")
        _, fn, args = effect.milestones[idx]
        fn(*args)

    # ------------------------------------------------------------- delivery
    def deliver(
        self, msg: Any, sender: Optional[str] = None, neq: Optional[bool] = None
    ) -> None:
        """Hand one message to the core, stamping ``sender`` and the
        non-equivocation marker as the authenticated transport would
        (``None`` leaves a stamp as it is)."""
        if sender is not None:
            msg.sender = sender
        if neq is not None and getattr(msg, "_neq", False) is not neq:
            msg._neq = neq
        self._deliver_to_core(msg)

    def _deliver_to_core(self, msg: Any) -> None:
        """Feed one delivered message into the core (capture included)."""
        if self.capture:
            self._record_input("msg", codec.encode_json(msg, with_sender=True))
        self.core.handle(msg)
        self.unhandled_messages = self.core.unhandled_messages

    # ---------------------------------------------------- in-memory leaves
    def _do_send(self, effect: Send) -> None:
        """No network in memory: sends are observable only through the
        host's own effect log."""

    def _do_multicast(self, effect: Multicast) -> None:
        """See :meth:`_do_send`."""

    def _do_neq_multicast(self, effect: NeqMulticast) -> None:
        """See :meth:`_do_send`."""

    def _do_set_timer(self, effect: SetTimer) -> None:
        # a crashed core arms nothing, as SimProcess.set_timer refuses to
        if not self.core.crashed:
            self._arm_timer(effect)

    def _arm_timer(self, effect: SetTimer) -> None:
        self.timers[effect.name] = effect  # re-arm replaces

    def _do_cancel_timer(self, effect: CancelTimer) -> None:
        self.timers.pop(effect.name, None)

    def _do_schedule(self, effect: Schedule) -> None:
        self._queue_local(effect)

    def _do_job(self, effect: Job) -> None:
        self.cpu.busy_seconds += effect.cost
        self._queue_local(effect)

    def _do_ctrl_job(self, effect: CtrlJob) -> None:
        self._queue_local(effect)

    def _do_apply_update(self, effect: ApplyUpdate) -> None:
        self.cpu.busy_seconds += effect.cost

    def _do_emit(self, effect: Emit) -> None:
        """Trace events have no in-memory consumer but the effect log."""

    def _do_halt(self, effect: Halt) -> None:
        self.core.crashed = True
        self.timers.clear()

    def _queue_local(self, effect) -> None:  # pragma: no cover - abstract
        """Hold a performed ``Job``/``CtrlJob``/``Schedule`` until the
        host runs its continuation."""
        raise NotImplementedError
