"""Child-process side of the live backend: one core, one OS process.

A :class:`LiveHost` is the wall-clock analogue of
:class:`~repro.runtime.des.DesHost`: the same
:class:`~repro.runtime.interpreter.EffectInterpreter` skeleton drives
the same pure :class:`~repro.runtime.core.ProtocolCore`, but the
substrate primitives map onto real queues and real time —

* ``Send``/``Multicast``/``NeqMulticast`` put codec-JSON
  :class:`~repro.live.wire.NetEnvelope` strings on the destination
  child's ``multiprocessing`` inbox queue (per-(src,dst) FIFO order is
  the queue's own FIFO guarantee, and ``sender``/``_neq`` are stamped
  by the transport exactly like the DES network stamps them);
* ``SetTimer``/``Schedule`` become continuations on a local heap keyed
  by simulated time, served by the event loop's ``get(timeout=...)``;
* ``Job``/``CtrlJob``/``ApplyUpdate`` are *emulated* on free-list CPU
  banks (the app bank has ``cores`` lanes, the control bank one), so
  completion times, milestone offsets and ``busy_seconds`` follow the
  same cost model the DES charges — the job and milestone continuations
  join the same heap at their emulated times.

The heap holds the base's own continuations (``_fire_timer``,
``_fire_sched``, ``_job_thunk``, ``_fire_milestone``), so the crash
guards are the base's and the loop restates none of them.

Simulated time is ``(monotonic() - t0) / time_scale`` with ``t0``
shared by all processes via :class:`~repro.live.wire.CtrlStart`; a
child that falls behind wall-clock (real Python execution is not free)
simply fires its due work late but **in order** — commit outcomes are
timing-independent by protocol design, which is what the
cross-validation harness (:mod:`repro.live.crossval`) checks.

The loop is single-threaded on purpose: one queue read, then all due
timer/job continuations, then the next read — the same
run-to-completion handler atomicity cores enjoy under the DES.
"""

from __future__ import annotations

import heapq
import queue
import time
from typing import Any, Optional

from repro.adversary.campaign import Action
from repro.adversary.engine import apply_action_to_core
from repro.core.input_output import InputProcess, OutputProcess
from repro.errors import LiveError
from repro.live.wire import (
    ChildEvent,
    ChildExit,
    ChildReady,
    CtrlAction,
    CtrlShutdown,
    CtrlStart,
    CtrlSubmit,
    NetEnvelope,
    register_wire,
)
from repro.runtime.codec import decode_json, encode_json
from repro.runtime.core import ProtocolCore
from repro.runtime.effects import (
    ApplyUpdate,
    CtrlJob,
    Emit,
    Job,
    Multicast,
    NeqMulticast,
    Schedule,
    Send,
    SetTimer,
)
from repro.runtime.interpreter import EffectInterpreter

__all__ = ["LiveHost", "child_main"]

#: maximum blocking wait on the inbox, so the loop periodically re-derives
#: ``now`` even when neither timers nor messages are pending
_POLL_S = 0.25


class _EmuCpu:
    """Free-list CPU bank emulation (sim-time lanes, DES cost model)."""

    __slots__ = ("cores", "busy_seconds", "_free_at")

    def __init__(self, cores: int) -> None:
        self.cores = cores
        self.busy_seconds = 0.0
        self._free_at = [0.0] * cores

    def submit(self, now: float, cost: float) -> tuple[float, float]:
        """Occupy the earliest-free lane; returns (start, done) sim times."""
        lane = min(range(self.cores), key=self._free_at.__getitem__)
        start = max(now, self._free_at[lane])
        done = start + cost
        self._free_at[lane] = done
        self.busy_seconds += cost
        return start, done


class LiveHost(EffectInterpreter):
    """Runtime for one protocol core living in its own OS process."""

    def __init__(
        self,
        core: ProtocolCore,
        cores: int,
        inboxes: dict[str, Any],
        up: Any,
        wanted: frozenset[str],
    ) -> None:
        self.pid = core.pid
        self._inboxes = inboxes
        self._inbox = inboxes[self.pid]
        self._up = up
        self.ctrl = _EmuCpu(1)
        self._t0: Optional[float] = None
        self._scale = 1.0
        # (sim time, seq, continuation, args): seq breaks time ties in
        # push order and keeps the continuations out of comparisons
        self._heap: list[tuple[float, int, Any, tuple]] = []
        self._seq = 0
        self._stop = False
        # replay capture is DES-only (spec-validated): capture stays off
        super().__init__(core, _EmuCpu(cores), wanted.__contains__)

    @property
    def now(self) -> float:
        if self._t0 is None:
            return 0.0
        return max(0.0, (time.monotonic() - self._t0) / self._scale)

    # --------------------------------------------------------------- leaves
    def _post(self, dst: str, msg: Any, neq: bool) -> None:
        box = self._inboxes.get(dst)
        if box is None:
            raise LiveError(f"{self.pid}: send to unknown node {dst!r}")
        env = NetEnvelope(
            src=self.pid,
            dst=dst,
            neq=neq,
            payload=encode_json(msg, with_sender=False),
        )
        box.put(encode_json(env))

    def _do_send(self, effect: Send) -> None:
        self._post(effect.dst, effect.msg, neq=False)

    def _do_multicast(self, effect: Multicast) -> None:
        for dst in effect.dsts:
            self._post(dst, effect.msg, neq=False)

    def _do_neq_multicast(self, effect: NeqMulticast) -> None:
        for dst in effect.dsts:
            self._post(dst, effect.msg, neq=True)

    def _push(self, at: float, fn, *args) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, fn, args))

    def _arm_timer(self, effect: SetTimer) -> None:
        # re-arm supersedes and cancel disarms lazily: a popped entry
        # fires only while it is still the armed effect for its name
        self.timers[effect.name] = effect
        self._push(self.now + effect.delay, self._timer_due, effect)

    def _timer_due(self, effect: SetTimer) -> None:
        if self.timers.get(effect.name) is effect:
            del self.timers[effect.name]
            self._fire_timer(effect)

    def _do_schedule(self, effect: Schedule) -> None:
        self._push(self.now + effect.delay, self._fire_sched, effect)

    def _do_job(self, effect: Job) -> None:
        start, done = self.cpu.submit(self.now, effect.cost)
        self._push(done, self._job_thunk(effect))
        for idx in range(len(effect.milestones)):
            offset = effect.milestones[idx][0]
            self._push(start + offset, self._fire_milestone, effect, idx)

    def _do_ctrl_job(self, effect: CtrlJob) -> None:
        _, done = self.ctrl.submit(self.now, effect.cost)
        self._push(done, self._job_thunk(effect))

    def _do_apply_update(self, effect: ApplyUpdate) -> None:
        # occupies the app bank and accrues busy time; no continuation
        self.cpu.submit(self.now, effect.cost)

    def _do_emit(self, effect: Emit) -> None:
        # cores gate with wants() before constructing events, mirroring
        # the DES bus guard; anything performed anyway is forwarded and
        # the parent bus applies its own category routing
        self._up.put(encode_json(ChildEvent(pid=self.pid, event=effect.event)))

    # ------------------------------------------------------------ the loop
    def run(self) -> None:
        """Serve the inbox until the parent shuts us down."""
        self._up.put(encode_json(ChildReady(pid=self.pid)))
        while not self._stop:
            timeout = _POLL_S
            if self._t0 is not None and self._heap:
                next_wall = self._t0 + self._heap[0][0] * self._scale
                timeout = min(
                    _POLL_S, max(0.0, next_wall - time.monotonic())
                )
            try:
                raw = self._inbox.get(timeout=timeout)
            except queue.Empty:
                raw = None
            if self._t0 is not None:
                self._fire_due()
            if raw is not None:
                self._handle(decode_json(raw))

    def _fire_due(self) -> None:
        """Run every continuation whose sim time has come, in order; the
        base's continuations apply the crash guards."""
        while self._heap and self._heap[0][0] <= self.now:
            _, _, fn, args = heapq.heappop(self._heap)
            fn(*args)

    def _handle(self, item: Any) -> None:
        if isinstance(item, NetEnvelope):
            self.deliver(decode_json(item.payload), item.src, item.neq)
        elif isinstance(item, CtrlStart):
            self._t0 = item.t0
            self._scale = item.time_scale
            if isinstance(self.core, InputProcess):
                self.core.start()
        elif isinstance(item, CtrlSubmit):
            if not isinstance(self.core, InputProcess):
                raise LiveError(
                    f"{self.pid}: CtrlSubmit routed to a "
                    f"{type(self.core).__name__}"
                )
            self.core.inject(item.task)
        elif isinstance(item, CtrlAction):
            apply_action_to_core(
                self.core,
                self.core.topo,
                self.pid,
                Action.from_dict(item.action),
            )
        elif isinstance(item, CtrlShutdown):
            if item.grace > 0:
                deadline = time.monotonic() + item.grace
                while time.monotonic() < deadline:
                    try:
                        raw = self._inbox.get(
                            timeout=max(0.0, deadline - time.monotonic())
                        )
                    except queue.Empty:
                        break
                    tail = decode_json(raw)
                    if isinstance(tail, (NetEnvelope, CtrlSubmit)):
                        self._handle(tail)
                self._fire_due()
            self._up.put(encode_json(self._exit_report()))
            self._stop = True
        else:
            raise LiveError(f"{self.pid}: unexpected envelope {item!r}")

    def _exit_report(self) -> ChildExit:
        summary: dict = {}
        if isinstance(self.core, OutputProcess):
            from repro.live.crossval import commit_outcomes

            summary = commit_outcomes(self.core)
        engine = getattr(self.core, "engine", None)
        return ChildExit(
            pid=self.pid,
            summary=summary,
            busy_seconds=self.cpu.busy_seconds,
            tasks_executed=getattr(engine, "tasks_executed", 0),
            unhandled=self.unhandled_messages,
            crashed=self.core.crashed,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveHost {type(self.core).__name__} {self.pid}>"


def _reseed(seed: int, pid: str) -> None:
    """Give this child its own RNG streams.

    ``fork`` duplicates the parent's global RNG state into every child,
    so without this all children (and the parent) would share one
    stream.  Protocol cores consume no randomness, but application and
    library code reaching the global generators must not be correlated
    across processes — derive per-child seeds from (spec seed, pid).
    """
    import hashlib
    import random

    h = hashlib.sha256(f"{seed}:{pid}".encode()).digest()
    random.seed(h)
    try:
        import numpy as np

        np.random.seed(int.from_bytes(h[:4], "big"))
    except ImportError:  # pragma: no cover - numpy is a core dependency
        pass


def child_main(
    plan,
    spec,
    app,
    workload,
    inboxes: dict[str, Any],
    up: Any,
    wanted: frozenset[str],
) -> None:
    """Entry point of one forked child: build the core, serve the loop."""
    register_wire()
    _reseed(plan.seed, spec.pid)
    from repro.crypto.signatures import KeyRegistry

    registry = KeyRegistry()
    for other in plan.nodes:  # same PKI view in every process
        if other.pid != spec.pid:
            registry.provision(other.pid)
    core = plan.make_core(spec, app, registry, workload=workload)
    host = LiveHost(core, spec.cores, inboxes, up, wanted)
    try:
        host.run()
    finally:
        # undelivered messages to peers must not wedge this process's
        # exit (their feeder threads would otherwise block on full
        # pipes); the up-queue is joined so the exit report flushes
        for box in inboxes.values():
            box.close()
            box.cancel_join_thread()
        up.close()
        up.join_thread()
