"""Standalone re-execution of one core from a bus-captured inbox.

Enable :attr:`DesHost.capture` on a host during a live run and attach a
:class:`~repro.obs.sinks.JsonlTraceSink` subscribed to
``CATEGORY_REPLAY``: the sink then records every *input* the core
consumed (messages in codec form; timer, job, milestone and sched fires
by identifier) interleaved with the *signature* of every effect the core
performed.  :func:`replay` re-runs a freshly constructed core against
that input log — with no Simulator and no Network — re-invoking the new
core's own pending continuations by identifier, and returns the
replayed effect-signature stream for comparison against the live one.

This is the post-mortem workflow for chaos-test failures: rebuild the
one suspect role, replay its exact inbox, and single-step its decisions
without re-running (or perturbing) the whole deployment.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.errors import ReplayError
from repro.runtime.codec import decode_json, encode_json
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
from repro.runtime.interpreter import EffectInterpreter, StubCpu

__all__ = [
    "effect_signature",
    "encode_message",
    "decode_message",
    "ReplayLog",
    "ReplayRuntime",
    "replay",
]


def encode_message(msg: Any) -> str:
    """Wire form of a delivered message for the capture log."""
    return encode_json(msg, with_sender=True)


def decode_message(text: str) -> Any:
    return decode_json(text)


def _content_digest(msg: Any) -> str:
    # sender excluded: outgoing messages are unstamped on the live side
    # at perform time only when fresh — a retained message re-sent later
    # still carries the stamp of its first trip, which the replayed copy
    # cannot reproduce.
    body = encode_json(msg, with_sender=False)
    return hashlib.sha256(body.encode()).hexdigest()[:12]


def effect_signature(effect) -> str:
    """Deterministic one-line fingerprint of an effect.

    Strong enough to pin message content (codec digest), timer names
    and deadlines, and job costs; stable across live and replayed
    execution because it never includes substrate-assigned values.
    """
    t = type(effect)
    if t is Send:
        return (
            f"send:{effect.dst}:{type(effect.msg).__name__}"
            f":{_content_digest(effect.msg)}"
        )
    if t is Multicast:
        return (
            f"mcast:{','.join(effect.dsts)}:{type(effect.msg).__name__}"
            f":{_content_digest(effect.msg)}"
        )
    if t is NeqMulticast:
        return (
            f"neq:{','.join(effect.dsts)}:{type(effect.msg).__name__}"
            f":{_content_digest(effect.msg)}"
        )
    if t is SetTimer:
        return f"set-timer:{effect.name}:{effect.delay!r}"
    if t is CancelTimer:
        return f"cancel-timer:{effect.name}"
    if t is Schedule:
        return f"sched:{effect.sched_id}:{effect.delay!r}"
    if t is Job:
        return (
            f"job:{effect.job_id}:{effect.cost!r}:g{int(effect.guarded)}"
            f":m{len(effect.milestones)}"
        )
    if t is CtrlJob:
        return f"ctrl-job:{effect.job_id}:{effect.cost!r}"
    if t is ApplyUpdate:
        return f"apply-update:{effect.cost!r}"
    if t is Emit:
        ev = effect.event
        body = json.dumps(
            ev.as_dict(), sort_keys=True, separators=(",", ":"), default=str
        )
        return f"emit:{ev.kind}:{hashlib.sha256(body.encode()).hexdigest()[:12]}"
    if t is Halt:
        return "halt"
    raise ReplayError(f"unknown effect {effect!r}")


@dataclass
class ReplayLog:
    """Parsed capture for one pid: inputs and live effect signatures."""

    pid: str
    #: ``(time, input_kind, ref)`` in consumption order
    inputs: list[tuple[float, str, str]] = field(default_factory=list)
    #: live effect signatures, in perform order
    effects: list[str] = field(default_factory=list)

    @classmethod
    def from_jsonl(cls, lines: Iterable[str], pid: str) -> "ReplayLog":
        """Extract one core's log from JSONL trace output (other pids'
        and non-replay lines are ignored)."""
        log = cls(pid=pid)
        for line in lines:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("pid") != pid:
                continue
            if rec.get("kind") == "replay-input":
                log.inputs.append((rec["time"], rec["input_kind"], rec["ref"]))
            elif rec.get("kind") == "replay-effect":
                log.effects.append(rec["signature"])
        return log


class ReplayRuntime(EffectInterpreter):
    """Backend that re-feeds a captured inbox to a fresh core.

    Pending continuations are held by identifier, so each recorded input
    re-invokes the fresh core's own continuation through the base's
    crash-guarded ``_fire_*`` / ``_job_thunk`` entry points.
    """

    def __init__(
        self,
        core: ProtocolCore,
        cores: int = 7,
        wants: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self._jobs: dict[int, Any] = {}
        self._milestones: dict[tuple[int, int], Job] = {}
        self._scheds: dict[int, Schedule] = {}
        self.effects: list[str] = []
        super().__init__(core, StubCpu(cores), wants)

    def perform(self, effect) -> None:
        self.effects.append(effect_signature(effect))
        EffectInterpreter.perform(self, effect)

    def _queue_local(self, effect) -> None:
        if type(effect) is Schedule:
            self._scheds[effect.sched_id] = effect
            return
        self._jobs[effect.job_id] = effect
        if type(effect) is Job:
            for idx in range(len(effect.milestones)):
                self._milestones[(effect.job_id, idx)] = effect

    # ----------------------------------------------------------- log feed
    def feed(self, time: float, input_kind: str, ref: str) -> None:
        """Consume one recorded input, advancing the replay clock."""
        self.clock = time
        if input_kind == "msg":
            self._deliver_to_core(decode_message(ref))
        elif input_kind == "timer":
            self._fire_timer(_take(self.timers, ref, input_kind, ref))
        elif input_kind == "sched":
            self._fire_sched(_take(self._scheds, int(ref), input_kind, ref))
        elif input_kind == "job":
            self._job_thunk(_take(self._jobs, int(ref), input_kind, ref))()
        elif input_kind == "milestone":
            job_id, _, idx = ref.partition(":")
            key = (int(job_id), int(idx))
            self._fire_milestone(
                _take(self._milestones, key, input_kind, ref), key[1]
            )
        else:
            raise ReplayError(f"unknown input kind {input_kind!r}")


def _take(pending: dict, key, kind: str, ref: str):
    """Pop the continuation a recorded input names, or fail loudly."""
    effect = pending.pop(key, None)
    if effect is None:
        raise ReplayError(f"{kind} {ref!r} not pending at replay time")
    return effect


def replay(
    core: ProtocolCore,
    log: ReplayLog,
    cores: int = 7,
    wants: Optional[Callable[[str], bool]] = None,
) -> ReplayRuntime:
    """Drive a fresh ``core`` through every input in ``log``.

    Returns the runtime; ``runtime.effects`` is the replayed effect
    stream, directly comparable to ``log.effects`` from the live run.
    """
    rt = ReplayRuntime(core, cores=cores, wants=wants)
    for time, input_kind, ref in log.inputs:
        rt.feed(time, input_kind, ref)
    return rt
