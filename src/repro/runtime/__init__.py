"""Sans-IO runtime layer: typed effects, pure protocol cores, backends.

Every protocol role (coordinator, verifier, executor, IP/OP, the
consensus engines and both baselines) is a :class:`ProtocolCore`: a pure
state machine whose handlers emit typed :mod:`~repro.runtime.effects`
instead of touching the simulator or the network directly.  Every
backend derives from one host base,
:class:`~repro.runtime.interpreter.EffectInterpreter`, which owns effect
dispatch, the read-side contract and the crash-guard rule:

* :class:`~repro.runtime.des.DesHost` — the discrete-event backend used
  by every deployment builder; interprets effects exactly as the
  pre-refactor inline calls did (bit-identical traces).
* :class:`~repro.live.host.LiveHost` — one core in its own OS process,
  on real queues and the wall clock (the live backend).
* :class:`~repro.runtime.testing.TestRuntime` — an inert in-memory
  backend for driving cores directly in unit tests, with no Simulator
  and no Network constructed.
* :class:`~repro.runtime.testing.McRuntime` — a ``TestRuntime`` whose
  sends and local work go to the model checker's world
  (:mod:`repro.mc`), which chooses their order.
* :class:`~repro.runtime.replay.ReplayRuntime` — re-runs a single core
  standalone from a bus-captured inbox (post-mortem debugging).

The deployment builder for the full OsirisBFT cluster lives in
:mod:`repro.runtime.deploy`.
"""

from repro.runtime.core import ProtocolCore
from repro.runtime.effects import (
    ApplyUpdate,
    CancelTimer,
    CtrlJob,
    Effect,
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
    "EffectInterpreter",
    "StubCpu",
    "ProtocolCore",
    "Effect",
    "Send",
    "Multicast",
    "NeqMulticast",
    "SetTimer",
    "CancelTimer",
    "Schedule",
    "Job",
    "CtrlJob",
    "ApplyUpdate",
    "Emit",
    "Halt",
]
