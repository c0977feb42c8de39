"""Outside-in tracing: wrap each layer's entry points, then read layers.

Nothing here changes the program.  ``install`` replaces functions and
methods with :class:`~harness.Tracer` wrappers from the outside, at every
place a caller looks them up: a function imported by name into another
module (``digest`` in six modules, the codec's ``encode_json`` and
``decode_json`` in three) is patched in each of them, and each such use
site is a boundary of its own, so a missed binding shows up in the
coverage check.  ``uninstall`` puts every original back.

``BOUNDARIES`` lists, per boundary, the workloads that must record at
least one call through it.  ``METRICS`` documents every per-layer metric:
its layer, the end-to-end metric it should move, and on which workload.
"""

from __future__ import annotations

import importlib
import os
import resource
from dataclasses import dataclass
from typing import Callable, Optional

from harness import Tracer

__all__ = [
    "BOUNDARIES", "METRICS", "Installed", "install", "layer_metrics",
    "uncovered",
]

FIG5B, MM, SOLVER, SERVE = (
    "fig5b-sweep", "mm-attack", "solver-sweep", "serve-poisson",
)
DES = (FIG5B, MM, SOLVER)
ANOMALY = (FIG5B, MM)


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point: ``module[:Class].attr``."""

    name: str
    target: str
    layer: Optional[str]  # None: a frame span (self time unattributed)
    kind: str = "span"  # "span", or "count" for a call counter only
    #: workloads on which this boundary must record a call
    exercised_by: tuple = ()
    count: str = ""  # counter bumped once per call


def _b(name, target, layer, exercised_by=(), kind="span", count=""):
    return Boundary(name, target, layer, kind, tuple(exercised_by), count)


#: modules that import ``digest`` by name (plus its home and package)
_DIGEST_SITES = {
    "repro.crypto.digest": (),
    "repro.crypto": (),
    "repro.core.executor": DES,
    "repro.core.verifier": DES,
    "repro.core.input_output": DES,
    "repro.consensus.fast_robust": DES,
    "repro.consensus.pbft": (),
    "repro.baselines.rcp": (FIG5B, SOLVER),
}
#: modules that import the codec's JSON entry points by name
_CODEC_SITES = {
    "repro.runtime.codec": (SERVE,),
    "repro.live.runtime": (SERVE,),
    "repro.live.host": (),  # runs in the forked nodes only
    "repro.runtime.replay": (),  # replay capture, unused here
}

BOUNDARIES: tuple[Boundary, ...] = (
    # frames: the runs themselves
    _b("exp.run_sweep", "repro.exp.runner.run_sweep", None, (FIG5B, SOLVER)),
    _b("api.run", "repro.api.run", None, DES),
    _b("api.serve", "repro.api.serve", None, (SERVE,)),
    # apps
    _b("apps.anomaly.enumerate",
       "repro.apps.anomaly.matcher:EdgeAnchoredMatcher.enumerate",
       "apps.anomaly", ANOMALY),
    _b("apps.anomaly.count",
       "repro.apps.anomaly.matcher:EdgeAnchoredMatcher.count",
       "apps.anomaly", ANOMALY),
    _b("apps.anomaly.compute", "repro.apps.anomaly.app:AnomalyApp.compute",
       "apps.anomaly", ANOMALY),
    _b("apps.anomaly.is_valid", "repro.apps.anomaly.app:AnomalyApp.is_valid",
       "apps.anomaly", ANOMALY),
    _b("apps.planning.compute", "repro.apps.planning.app:PlanningApp.compute",
       "apps.planning", (SOLVER,)),
    _b("apps.planning.is_valid",
       "repro.apps.planning.app:PlanningApp.is_valid",
       "apps.planning", (SOLVER,)),
    _b("apps.planning.solve",
       "repro.apps.planning.branch_bound:BranchAndBoundSolver.solve",
       "apps.planning", (SOLVER,)),
    _b("apps.video.compute", "repro.apps.video.app:VideoApp.compute",
       "apps.video", (SOLVER,)),
    _b("apps.video.is_valid", "repro.apps.video.app:VideoApp.is_valid",
       "apps.video", (SOLVER,)),
    # crypto
    *(
        _b(f"crypto.digest@{mod}", f"{mod}.digest", "crypto", used,
           count="crypto.digests")
        for mod, used in _DIGEST_SITES.items()
    ),
    _b("crypto.sign", "repro.crypto.signatures:Signer.sign", "crypto", DES,
       count="crypto.signs"),
    _b("crypto.verify", "repro.crypto.signatures:KeyRegistry.verify",
       "crypto", DES, count="crypto.verifies"),
    _b("crypto.verify_quorum",
       "repro.crypto.signatures:KeyRegistry.verify_quorum", "crypto", ()),
    # sim kernel and net
    _b("sim.run", "repro.sim.kernel:Simulator.run", "sim", DES),
    _b("sim.cpu_cancel", "repro.sim.cpu:CpuBank._rollback", None, (),
       kind="count", count="sim.cpu_jobs_cancelled"),
    _b("net.send", "repro.net.links:Network.send", "net", DES),
    _b("net.multicast", "repro.net.links:Network.multicast", "net", DES),
    _b("net.neq_multicast", "repro.net.links:Network.neq_multicast", "net",
       (FIG5B, MM, SOLVER)),
    _b("net.fanout", "repro.net.links:Network._fanout", "net", DES),
    # obs and the sanitizer
    _b("obs.emit", "repro.obs.bus:EventBus.emit", "obs", DES + (SERVE,),
       count="obs.emits"),
    _b("check.links", "repro.check.links:LinkInvariantSink.handle", "check",
       (MM,)),
    _b("check.cpu", "repro.check.cpu:CpuInvariantSink.handle", "check",
       (MM,)),
    _b("check.conservation",
       "repro.check.conservation:ConservationSink.handle", "check",
       (MM, SERVE)),
    _b("check.audit", "repro.check.sanitizer:Sanitizer.audit", "check",
       (MM,)),
    # runtime: effect interpretation and host glue
    _b("runtime.perform", "repro.runtime.des:DesHost.perform", "runtime", DES,
       count="runtime.effects"),
    _b("runtime.deliver", "repro.runtime.des:DesHost.deliver", "runtime", DES),
    # protocol cores: message handlers and the continuations hosts fire
    _b("core.handle", "repro.runtime.core:ProtocolCore.handle", "core", DES),
    _b("core.timer",
       "repro.runtime.interpreter:EffectInterpreter._fire_timer", "core", DES),
    _b("core.sched",
       "repro.runtime.interpreter:EffectInterpreter._fire_sched", "core", DES),
    _b("core.milestone",
       "repro.runtime.interpreter:EffectInterpreter._fire_milestone", "core",
       DES),
    _b("core.job", "repro.runtime.interpreter:EffectInterpreter._job_thunk",
       "core", DES),
    # consensus members (handlers, batching and stall timers)
    *(
        _b(f"consensus.{cls}.{meth}",
           f"repro.consensus.{mod}:{cls}.{meth}", "consensus",
           DES if mod == "fast_robust" and meth in ("_on_csrequest",
                                                     "_on_cspropose",
                                                     "_on_csack") else ())
        for mod, cls, meths in (
            ("fast_robust", "ConsensusMember",
             ("_on_csrequest", "_on_cspropose", "_on_csack",
              "_on_csviewchange", "_flush", "_on_stall", "submit_local")),
            ("pbft", "PbftMember",
             ("_on_csrequest", "_on_preprepare", "_on_prepare",
              "_on_commit_msg", "_on_viewchange", "_flush", "_on_stall",
              "submit_local")),
        )
        for meth in meths
    ),
    # behaviour counters, read where the metrics hub accumulates them
    _b("core.reassignment", "repro.core.metrics:MetricsHub.on_reassignment",
       None, (), kind="count", count="core.reassignments"),
    _b("core.equivocation",
       "repro.core.metrics:MetricsHub.on_equivocation_report", None, (),
       kind="count", count="core.equivocation_reports"),
    _b("core.fault", "repro.core.metrics:MetricsHub.on_fault_detected", None,
       (MM,), kind="count", count="core.faults_detected"),
    _b("consensus.election",
       "repro.core.metrics:MetricsHub.on_leader_election", None, (),
       kind="count", count="consensus.leader_elections"),
    _b("consensus.view_change.fast_robust",
       "repro.consensus.fast_robust:ConsensusMember._enter_view", None, (),
       kind="count", count="consensus.view_changes"),
    _b("consensus.view_change.pbft",
       "repro.consensus.pbft:PbftMember._enter_view", None, (),
       kind="count", count="consensus.view_changes"),
    # live backend and gateway (this process; the nodes are forked)
    _b("live.start", "repro.live.runtime:LiveRuntime.start", "live", (SERVE,)),
    _b("live.pump", "repro.live.runtime:LiveRuntime._dispatch_up",
       "live.pump", (SERVE,)),
    *(
        _b(f"codec.{fn}@{mod}", f"{mod}.{fn}", "runtime.codec", used)
        for mod, used in _CODEC_SITES.items()
        for fn in ("encode_json", "decode_json")
    ),
    _b("serve.pack", "repro.serve.frames.pack_frame", "serve.frames",
       (SERVE,)),
    _b("serve.unpack", "repro.serve.frames.unpack_payload", "serve.frames",
       (SERVE,)),
    _b("serve.admit", "repro.serve.gateway:Gateway._submit", "serve",
       (SERVE,)),
)


# ---------------------------------------------------------------- install
def _resolve(target: str):
    """``pkg.mod.attr`` or ``pkg.mod:Class.attr`` -> (owner, attr)."""
    if ":" in target:
        mod, path = target.split(":")
        owner = importlib.import_module(mod)
        *chain, attr = path.split(".")
        for name in chain:
            owner = getattr(owner, name)
        return owner, attr
    mod, attr = target.rsplit(".", 1)
    return importlib.import_module(mod), attr


def _span(tracer: Tracer, b: Boundary, fn: Callable) -> Callable:
    """A span wrapper for ``b``; some boundaries also count work done."""
    counts = tracer.counts
    after = None
    if b.count:
        after = lambda r, a, k: counts.update((b.count,))  # noqa: E731
    elif b.name == "net.fanout":
        def after(r, a, k):
            # Network._fanout(self, src, dsts, entries, msg, neq)
            n = len(a[2])
            counts["net.sends"] += n
            counts["net.bytes"] += n * a[4].wire_size()
    elif b.name == "apps.planning.solve":
        seen = set()

        def after(r, a, k):
            counts["apps.planning.solves"] += 1
            seen.add(a[1].name)  # solve(self, inst)
            counts["apps.planning.instances"] = len(seen)
    elif b.name == "check.audit":
        def after(r, a, k):
            counts["check.violations"] += len(r.violations)
    elif b.name == "sim.run":
        inner = fn

        def fn(self, *args, **kwargs):
            before = self._events_fired
            try:
                return inner(self, *args, **kwargs)
            finally:
                counts["sim.events"] += self._events_fired - before
    elif b.name == "core.job":
        make = fn

        # the span goes round each thunk the factory returns, which runs
        # the core's continuation when the simulated job completes
        def job_thunk(self, effect):
            return tracer.wrap(make(self, effect), b.name, b.layer)

        return job_thunk
    return tracer.wrap(fn, b.name, b.layer, after)


class Installed:
    """Patches in place; :meth:`uninstall` restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, b: Boundary) -> None:
        owner, attr = _resolve(b.target)
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        if b.kind == "count":
            new = self.tracer.counter(original, b.name, b.count)
        else:
            new = _span(self.tracer, b, original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installed:
    installed = Installed(tracer)
    for b in BOUNDARIES:
        installed.patch(b)
    # forked live nodes inherit the wrappers; only this process records
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "enabled", False))
    return installed


def uncovered(tracer: Tracer, workload: str) -> list[str]:
    """Boundaries this workload must exercise that recorded no call."""
    return [
        b.name
        for b in BOUNDARIES
        if workload in b.exercised_by and tracer.calls[b.name] == 0
    ]


# ---------------------------------------------------------------- metrics
def _rss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, tasks: int, unhandled: int) -> dict:
    """Per-layer readings of one traced repetition: ``tasks`` completed
    and the live nodes' ``unhandled`` message count come from its result
    (client- and harness-level figures are added by ``run.py``)."""
    s, c, tot, calls = tracer.self_s, tracer.counts, tracer.total_s, tracer.calls
    reassign = c["core.reassignments"]
    instances = c["apps.planning.instances"]
    admits = calls["serve.admit"]
    return {
        "apps.anomaly.self_s": s["apps.anomaly"],
        "apps.planning.self_s": s["apps.planning"],
        "apps.planning.solves": c["apps.planning.solves"],
        "apps.planning.resolve_ratio": (
            c["apps.planning.solves"] / instances if instances else 0.0
        ),
        "apps.video.self_s": s["apps.video"],
        "crypto.self_s": s["crypto"],
        "crypto.digests": c["crypto.digests"],
        "crypto.signs": c["crypto.signs"],
        "crypto.verifies": c["crypto.verifies"],
        "sim.self_s": s["sim"],
        "sim.events": c["sim.events"],
        "sim.cpu_jobs_cancelled": c["sim.cpu_jobs_cancelled"],
        "net.self_s": s["net"],
        "net.sends": c["net.sends"],
        "net.bytes": c["net.bytes"],
        "obs.self_s": s["obs"],
        "obs.emits": c["obs.emits"],
        "check.self_s": s["check"],
        "check.audit_s": tot["check.audit"],
        "check.violations": c["check.violations"],
        "runtime.self_s": s["runtime"],
        "runtime.effects": c["runtime.effects"],
        "core.self_s": s["core"],
        "consensus.self_s": s["consensus"],
        "core.reassignments": reassign,
        "core.equivocation_reports": c["core.equivocation_reports"],
        "core.faults_detected": c["core.faults_detected"],
        "core.useful_ratio": (
            tasks / (tasks + reassign) if tasks + reassign else 0.0
        ),
        "consensus.view_changes": c["consensus.view_changes"],
        "consensus.leader_elections": c["consensus.leader_elections"],
        "live.start_s": tot["live.start"],
        "live.pump_self_s": s["live.pump"],
        "live.unhandled_messages": unhandled,
        "live.child_peak_rss_mb": (
            _rss_mb(resource.RUSAGE_CHILDREN) if calls["live.start"] else 0.0
        ),
        "runtime.codec_self_s": s["runtime.codec"],
        "serve.frames_self_s": s["serve.frames"],
        "serve.admit_ms": (
            tot["serve.admit"] / admits * 1e3 if admits else 0.0
        ),
        "exp.overhead_s": (
            tot["exp.run_sweep"] - tot["api.run"]
            if calls["exp.run_sweep"] else 0.0
        ),
    }


# ------------------------------------------------------- documentation
#: per-layer metric -> (unit, better, layer, moves, on which workload)
METRICS: dict[str, tuple[str, str, str, str, str]] = {
    "apps.anomaly.self_s": ("s", "lower", "apps.anomaly (matcher enumerate/count, app compute/is_valid)", "tasks_per_s", "fig5b-sweep; little on mm-attack; none elsewhere"),
    "apps.planning.self_s": ("s", "lower", "apps.planning (branch-and-bound LP solves, certificate checks)", "tasks_per_s", "solver-sweep only"),
    "apps.planning.solves": ("count", "lower", "apps.planning", "tasks_per_s", "solver-sweep only"),
    "apps.planning.resolve_ratio": ("ratio", "lower", "apps.planning (solve calls / distinct instances)", "tasks_per_s", "solver-sweep only"),
    "apps.video.self_s": ("s", "lower", "apps.video (k-means compute and stability check)", "tasks_per_s", "solver-sweep only"),
    "crypto.self_s": ("s", "lower", "crypto (digest at every use site, sign, verify)", "tasks_per_s", "fig5b-sweep, mm-attack"),
    "crypto.digests": ("count", "lower", "crypto", "tasks_per_s", "fig5b-sweep, mm-attack"),
    "crypto.signs": ("count", "lower", "crypto", "tasks_per_s", "fig5b-sweep, mm-attack"),
    "crypto.verifies": ("count", "lower", "crypto", "tasks_per_s", "fig5b-sweep, mm-attack"),
    "sim.self_s": ("s", "lower", "sim (kernel dispatch loop)", "tasks_per_s", "mm-attack most; fig5b-sweep less; none on serve-poisson"),
    "sim.events": ("count", "lower", "sim", "tasks_per_s", "mm-attack most; fig5b-sweep less; none on serve-poisson"),
    "sim.cpu_jobs_cancelled": ("count", "lower", "sim (cpu bank rollbacks)", "tasks_per_s", "mm-attack most; fig5b-sweep less; none on serve-poisson"),
    "net.self_s": ("s", "lower", "net (send/multicast/fan-out)", "tasks_per_s", "mm-attack most; fig5b-sweep less; none on serve-poisson"),
    "net.sends": ("count", "lower", "net", "tasks_per_s", "mm-attack most; fig5b-sweep less; none on serve-poisson"),
    "net.bytes": ("bytes", "lower", "net", "tasks_per_s", "mm-attack most; fig5b-sweep less; none on serve-poisson"),
    "obs.self_s": ("s", "lower", "obs (bus emit and non-sanitizer sinks)", "tasks_per_s", "mm-attack (sinks attached); fig5b-sweep is the zero-sink control"),
    "obs.emits": ("count", "lower", "obs", "tasks_per_s", "mm-attack (sinks attached); fig5b-sweep is the zero-sink control"),
    "check.self_s": ("s", "lower", "check (sanitizer sinks and audit)", "tasks_per_s", "mm-attack (sinks attached); fig5b-sweep is the zero-sink control"),
    "check.audit_s": ("s", "lower", "check (post-run audit)", "tasks_per_s", "mm-attack (sinks attached); fig5b-sweep is the zero-sink control"),
    "check.violations": ("count", "lower", "check", "tasks_per_s", "mm-attack (sinks attached); fig5b-sweep is the zero-sink control"),
    "runtime.self_s": ("s", "lower", "runtime (effect interpretation, host delivery)", "tasks_per_s", "all DES workloads"),
    "runtime.effects": ("count", "lower", "runtime", "tasks_per_s", "all DES workloads"),
    "core.self_s": ("s", "lower", "core (protocol role handlers and continuations)", "tasks_per_s", "all DES workloads"),
    "consensus.self_s": ("s", "lower", "consensus (fast-robust / PBFT members)", "tasks_per_s", "all DES workloads"),
    "core.reassignments": ("count", "lower", "core", "p50_ms on serve-poisson; tasks_per_s on mm-attack", "deterministic in DES: any change means behaviour changed"),
    "core.equivocation_reports": ("count", "lower", "core", "p50_ms on serve-poisson; tasks_per_s on mm-attack", "deterministic in DES: any change means behaviour changed"),
    "core.faults_detected": ("count", "lower", "core", "p50_ms on serve-poisson; tasks_per_s on mm-attack", "deterministic in DES: any change means behaviour changed"),
    "core.useful_ratio": ("ratio", "higher", "core (tasks / (tasks + reassignments))", "p50_ms on serve-poisson; tasks_per_s on mm-attack", "deterministic in DES: any change means behaviour changed"),
    "consensus.view_changes": ("count", "lower", "consensus", "p50_ms on serve-poisson; tasks_per_s on mm-attack", "deterministic in DES: any change means behaviour changed"),
    "consensus.leader_elections": ("count", "lower", "consensus", "p50_ms on serve-poisson; tasks_per_s on mm-attack", "deterministic in DES: any change means behaviour changed"),
    "live.start_s": ("s", "lower", "live (fork and ready handshake)", "p50_ms, setup_s", "serve-poisson only"),
    "live.pump_self_s": ("s", "lower", "live (event pump in the serving process)", "p50_ms, setup_s", "serve-poisson only"),
    "live.unhandled_messages": ("count", "lower", "live", "p50_ms, setup_s", "serve-poisson only"),
    "live.child_peak_rss_mb": ("MB", "lower", "live (largest forked node)", "p50_ms, setup_s", "serve-poisson only"),
    "runtime.codec_self_s": ("s", "lower", "runtime.codec (JSON wire codec)", "p50_ms, setup_s", "serve-poisson only"),
    "serve.frames_self_s": ("s", "lower", "serve.frames (length-prefixed framing)", "p50_ms, setup_s", "serve-poisson only"),
    "serve.admit_ms": ("ms", "lower", "serve (gateway admission per task)", "p50_ms, setup_s", "serve-poisson only"),
    "serve.client_tail_ms": ("ms", "lower", "serve (client latency at the highest percentile with >=10 samples beyond it)", "p50_ms (tail reported, not gated)", "serve-poisson"),
    "serve.client_tail_pct": ("%", "higher", "serve (which percentile serve.client_tail_ms is)", "p50_ms (tail reported, not gated)", "serve-poisson"),
    "serve.client_samples": ("count", "higher", "serve (latency samples behind the tail)", "p50_ms (tail reported, not gated)", "serve-poisson"),
    "serve.late_ms": ("ms", "lower", "serve (mean lateness of the open-loop generator)", "p50_ms (tail reported, not gated)", "serve-poisson"),
    "exp.overhead_s": ("s", "lower", "exp (run_sweep wall minus api.run spans)", "tasks_per_s", "both sweeps"),
    "import.repro_s": ("s", "lower", "import (fresh-interpreter import of repro.api)", "nothing gated", "all"),
    "host.speed": ("ratio", "higher", "host (reference-loop speed relative to nominal; scales the CPU-bound end-to-end times)", "-", "all"),
    "trace.overhead_ratio": ("ratio", "lower", "trace (traced / untraced timed phase)", "-", "all"),
    "trace.unattributed_share": ("ratio", "lower", "trace (timed wall outside every layer span)", "-", "all"),
}
