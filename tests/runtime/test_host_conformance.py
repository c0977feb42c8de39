"""Every effect host applies the DES's crash-guard rule.

One tiny scripted core performs a piece of work, crashes (``Halt``),
optionally performs more, and then its host runs everything still
pending.  Each host must give the DES answer: which continuations ran
after the crash, and whether a timer is still armed.  The DES is the
reference; the other hosts share its rule through the one host base,
``EffectInterpreter``.
"""

from __future__ import annotations

import queue
import time
from types import SimpleNamespace

import pytest

from repro.mc.world import McWorld
from repro.net import Network, SynchronyModel
from repro.runtime import testing
from repro.runtime.core import ProtocolCore
from repro.runtime.des import DesHost
from repro.runtime.replay import ReplayRuntime
from repro.sim import Simulator


class Script(ProtocolCore):
    """Records which of its continuations ran."""

    def __init__(self) -> None:
        super().__init__("p0")
        self.ran: list[str] = []

    def note(self, tag: str) -> None:
        self.ran.append(tag)


def _nothing(core: Script) -> None:
    pass


# case -> (performed before Halt, performed after Halt, what runs)
CASES = {
    "guarded-job": (lambda c: c.run_job(1.0, c.note, "job"), _nothing, []),
    "unguarded-job-and-milestones": (
        lambda c: c.run_raw_job(
            1.0, c.note, "job", milestones=((0.5, c.note, ("milestone",)),)
        ),
        _nothing,
        ["job", "milestone"],
    ),
    "ctrl-job": (lambda c: c.run_ctrl_job(1.0, c.note, "ctrl"), _nothing, []),
    "schedule": (lambda c: c.schedule(1.0, c.note, "sched"), _nothing,
                 ["sched"]),
    "armed-timer": (lambda c: c.set_timer("t", 1.0, c.note, "timer"),
                    _nothing, []),
    "set-timer-after-halt": (
        _nothing, lambda c: c.set_timer("t", 1.0, c.note, "timer"), []
    ),
}


# ------------------------------------------------------------------ hosts
class DesDriver:
    def __init__(self, core: Script) -> None:
        self.sim = Simulator(seed=0)
        net = Network(self.sim, synchrony=SynchronyModel())
        self.host = DesHost(self.sim, net, core, cores=1)
        net.register(self.host)

    def advance(self) -> None:
        self.sim.run(until=10.0)


class InMemoryDriver:
    def __init__(self, core: Script) -> None:
        self.host = testing.TestRuntime(core, cores=1)

    def advance(self) -> None:
        self.host.drain()
        for name in list(self.host.timers):
            self.host.fire_timer(name)


class McDriver:
    def __init__(self, core: Script) -> None:
        self.world = McWorld(
            model=None, topo=None, config=SimpleNamespace(cores_per_node=1),
            app=None, registry=None,
        )
        self.world.add_core(core)
        self.host = self.world.runtimes[core.pid]

    def advance(self) -> None:
        self.world.drain_local()
        for name in list(self.host.timers):
            self.host.fire_timer(name)


class ReplayDriver:
    """Feeds every pending continuation back by identifier, as a
    captured log would name it."""

    def __init__(self, core: Script) -> None:
        self.host = ReplayRuntime(core, cores=1)

    def advance(self) -> None:
        host = self.host
        for job_id, idx in list(host._milestones):
            host.feed(0.5, "milestone", f"{job_id}:{idx}")
        for job_id in list(host._jobs):
            host.feed(1.0, "job", str(job_id))
        for sched_id in list(host._scheds):
            host.feed(1.0, "sched", str(sched_id))
        for name in list(host.timers):
            host.feed(1.0, "timer", name)


class LiveDriver:
    """One LiveHost in this process: its heap runs on the wall clock at
    1 ms per simulated second; no child process is forked."""

    def __init__(self, core: Script) -> None:
        from repro.live.host import LiveHost

        self.host = LiveHost(
            core, 1, {core.pid: queue.Queue()}, queue.Queue(), frozenset()
        )
        self.host._t0 = time.monotonic()
        self.host._scale = 1e-3

    def advance(self) -> None:
        time.sleep(0.05)
        self.host._fire_due()


HOSTS = [
    pytest.param(DesDriver, id="des"),
    pytest.param(InMemoryDriver, id="test"),
    pytest.param(McDriver, id="mc"),
    pytest.param(ReplayDriver, id="replay"),
    pytest.param(LiveDriver, id="live", marks=pytest.mark.live),
]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("driver", HOSTS)
def test_host_gives_the_des_answer_after_halt(driver, case):
    before, after, expected = CASES[case]
    core = Script()
    host = driver(core)
    before(core)
    core.crash()
    after(core)
    assert core.crashed
    assert not core.timer_armed("t")
    host.advance()
    assert sorted(core.ran) == expected
    assert not core.timer_armed("t")
