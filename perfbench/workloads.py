"""The four benchmark workloads: inputs from a seed, set-up, timed phase.

Every workload exposes the same three steps, which ``rep.py`` times:

* ``setup(seed)`` — get ready to run: resolve the workload and build
  every deployment it runs (``api.build`` / the baseline builders), or
  bring a served deployment up (``api.serve`` returning).  Timed as
  ``setup_s``.
* ``run(seed, ...)`` — the timed phase; returns what the harness needs
  to score and check it.
* a fingerprint of the outputs, compared across repetitions and against
  the recorded reference (``reference.json``).

The program receives only generated inputs.  On the DES workloads the
seed is the deployment's DES seed (network jitter and every other random
stream of the run), over the figures' fixed task streams: the content
seed stays at the bench CLI's default, ``CONTENT_SEED``.  Seeding the
streams too was tried and dropped: at 120 tasks the MM stream's work
varies tenfold from seed to seed (206 to 2040 records) and on some seeds
it drains before the campaign's t=10 s injection, and a seeded planning
suite's branch-and-bound work for 8 tasks varies sixfold.  On the served
workload the seed draws the Poisson arrival schedule and the DES seed.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Callable

from repro import api
from repro.adversary.library import mass_equivocation
from repro.bench.scenarios import BENCH_BANDWIDTH
from repro.exp import runner
from repro.exp.spec import SweepSpec

__all__ = ["WORKLOADS", "DES_WORKLOADS", "SERVE"]

#: simulated-seconds deadline of every DES point (the CLI default)
DEADLINE = 3000.0
#: seed of the DES workloads' task streams (the bench CLI's default)
CONTENT_SEED = 1

# ----------------------------------------------------------------- sizes
FIG5B_TASKS = 120
MM_TASKS = 120
MM_N = 8
FIG5C_TASKS = 8
FIG5D_COMPUTE = 16
SIZES = (4, 8, 16)

SERVE_N = 4
SERVE_TIME_SCALE = 0.25
#: offered load in wall tasks per second (open loop, Poisson)
SERVE_RATE = 20.0
#: tasks per served run: ~10 wall seconds of arrivals at SERVE_RATE (the
#: span of a seeded Poisson schedule of n arrivals varies by 1/sqrt(n))
SERVE_TASKS = 200
#: wall seconds to wait for stragglers after the last arrival
SERVE_DRAIN_S = 10.0


# ------------------------------------------------------------ DES helpers
def _fig5b_spec(seed: int) -> SweepSpec:
    return SweepSpec.grid(
        "fig5b",
        "anomaly",
        {"profile": "fig5b", "n_tasks": FIG5B_TASKS, "seed": CONTENT_SEED},
        sizes=SIZES,
        seed=seed,
        deadline=DEADLINE,
    )


def _solver_spec(seed: int) -> SweepSpec:
    fig5c = SweepSpec.grid(
        "fig5c",
        "planning",
        {"n_tasks": FIG5C_TASKS, "seed": CONTENT_SEED},
        sizes=SIZES,
        seed=seed,
        deadline=DEADLINE,
    )
    fig5d = SweepSpec.grid(
        "fig5d",
        "video",
        {"n_compute": FIG5D_COMPUTE, "seed": CONTENT_SEED},
        sizes=SIZES,
        seed=seed,
        deadline=DEADLINE,
    )
    # both grids name their points "<system>-n<n>": prefix the figure
    return SweepSpec.of(
        "solver",
        [p.with_label(f"{grid.name}/{p.label}")
         for grid in (fig5c, fig5d) for p in grid.points],
    )


def _mm_spec(seed: int) -> api.DeploymentSpec:
    return api.DeploymentSpec(
        workload="anomaly",
        workload_params=(
            ("n_tasks", MM_TASKS),
            ("profile", "MM"),
            ("rate", 2000.0),
            ("seed", CONTENT_SEED),
        ),
        n=MM_N,
        seed=seed,
        deadline=DEADLINE,
        faults=mass_equivocation(),
        sanitize=True,
        label="mm-attack",
    )


def _build(spec: api.DeploymentSpec) -> None:
    """Resolve and build one deployment without running it."""
    workload = spec.resolve_workload()
    if spec.system == "osiris":
        api.build(spec.with_(workload=workload))
        return
    bandwidth = (
        spec.bandwidth if spec.bandwidth is not None
        else BENCH_BANDWIDTH
    )
    if spec.system == "zft":
        from repro.baselines.zft import build_zft_cluster

        build_zft_cluster(
            workload.app,
            workload=workload.stream,
            n_workers=spec.n,
            seed=spec.seed,
            bandwidth=bandwidth,
            chunk_bytes=workload.chunk_bytes,
            cores_per_node=1,
        )
    else:
        from repro.baselines.rcp import build_rcp_cluster

        build_rcp_cluster(
            workload.app,
            workload=workload.stream,
            n_workers=spec.n,
            f=spec.f,
            seed=spec.seed,
            bandwidth=bandwidth,
            chunk_bytes=workload.chunk_bytes,
            cores_per_node=1,
        )


def _point_row(label: str, result, attempted: int) -> dict:
    return {
        "label": label,
        "attempted": attempted,
        "completed": result.tasks_completed,
        # repr keeps every digit: the fingerprint is compared exactly
        "fingerprint": [
            result.tasks_completed, result.records, repr(result.makespan)
        ],
        "violations": result.sanitizer_violations,
    }


def _attempted(spec: api.DeploymentSpec) -> int:
    return spec.resolve_workload().n_compute_tasks


@dataclass
class SweepWorkload:
    """A paper grid run through ``repro.exp.run_sweep``: serial, cache
    off, no sinks."""

    name: str
    make: Callable[[int], SweepSpec]

    def setup(self, seed: int) -> None:
        for point in self.make(seed).points:
            _build(runner.point_spec(point))

    @staticmethod
    def teardown(_) -> None:
        return None

    def run(self, seed: int) -> dict:
        spec = self.make(seed)
        t0 = time.perf_counter()
        outcome = runner.run_sweep(spec, jobs=1, cache=None)
        wall = time.perf_counter() - t0
        rows = [
            _point_row(
                o.point.label,
                o.result,
                _attempted(runner.point_spec(o.point)),
            )
            for o in outcome.outcomes
        ]
        return {"wall_s": wall, "points": rows}


@dataclass
class AttackWorkload:
    """One sanitized deployment under a timed campaign, drained."""

    name: str = "mm-attack"

    def setup(self, seed: int) -> None:
        _build(_mm_spec(seed))

    @staticmethod
    def teardown(_) -> None:
        return None

    def run(self, seed: int) -> dict:
        spec = _mm_spec(seed)
        attempted = _attempted(spec)
        t0 = time.perf_counter()
        result = api.run(spec)
        wall = time.perf_counter() - t0
        return {
            "wall_s": wall,
            "points": [_point_row(spec.label, result, attempted)],
        }


# ----------------------------------------------------------------- serve
def serve_spec(seed: int) -> api.DeploymentSpec:
    """The served deployment and its Poisson arrivals (sim seconds)."""
    return api.DeploymentSpec(
        workload="open_loop",
        workload_params=(
            ("n_tasks", SERVE_TASKS),
            # arrivals are drawn in simulated seconds
            ("rate", SERVE_RATE * SERVE_TIME_SCALE),
            ("process", "poisson"),
            ("seed", seed),
        ),
        n=SERVE_N,
        seed=seed,
        tenants=2,
        sanitize=True,
        backend="live",
        # generous queue, fast drain: nothing is shed, so the served
        # commits must equal the DES leg's
        config=(
            ("admission_queue", SERVE_TASKS * 4),
            ("admission_rate", SERVE_RATE * SERVE_TIME_SCALE * 4.0),
        ),
        label="serve-poisson",
    )


def des_leg(seed: int) -> dict:
    """The DES run of the served spec: per-OP commit outcomes."""
    from repro.live.crossval import commit_outcomes

    spec = serve_spec(seed)
    result = api.run(spec.with_(backend="des", sinks=()))
    cluster = result.extra["cluster"]
    return {
        "commits": {op.pid: commit_outcomes(op) for op in cluster.outputs},
        "violations": result.sanitizer_violations or 0,
    }


@dataclass
class ClientLog:
    """What the single open-loop client saw, in wall seconds."""

    refused: int = 0
    #: task id -> due time (perf_counter clock)
    due: dict = field(default_factory=dict)
    #: generator lateness per submission (s)
    late: list = field(default_factory=list)
    #: task id -> arrival time of its TaskDone (perf_counter clock)
    done: dict = field(default_factory=dict)

    def latencies_ms(self) -> list:
        return [
            (self.done[tid] - self.due[tid]) * 1e3
            for tid in self.done
            if tid in self.due
        ]


async def _drive(address, items, time_scale: float, drain_s: float) -> ClientLog:
    """Open-loop Poisson driver on one asyncio thread, one connection.

    Each task is due at ``t0 + arrival * time_scale``; latency runs from
    the due time, so a late generator is charged, and the lateness itself
    is logged.  Completions are stamped by a separate reader task as they
    arrive.
    """
    from repro.serve.client import AsyncClient
    from repro.serve.frames import REJECTED

    log = ClientLog()
    client = await AsyncClient.connect(*address, client="perfbench")
    clock = time.perf_counter
    expected = len(items)
    all_done = asyncio.Event()

    async def collect() -> None:
        while len(log.done) < expected:
            done = await client.next_done()
            if done is None:
                break
            log.done[done.task_id] = clock()
        all_done.set()

    reader = asyncio.ensure_future(collect())
    try:
        t0 = clock() + 0.05
        for when, task in items:
            due = t0 + when * time_scale
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            log.due[task.task_id] = due
            log.late.append(max(0.0, clock() - due))
            reply = await client.submit(task)
            if reply.status == REJECTED:
                log.refused += 1
                expected -= 1
        try:
            await asyncio.wait_for(all_done.wait(), timeout=drain_s)
        except asyncio.TimeoutError:
            pass
    finally:
        reader.cancel()
        try:
            await reader
        except asyncio.CancelledError:
            pass
        await client.close()
    return log


def _outcome_diff(des: dict, live: dict) -> set:
    """Task ids whose committed outcome differs between the two legs."""
    bad: set = set()
    for op in set(des) | set(live):
        d = des.get(op) or {"completed": [], "chunks": {}, "records": {}}
        lv = live.get(op) or {"completed": [], "chunks": {}, "records": {}}
        bad |= set(d["completed"]) ^ set(lv["completed"])
        for key in set(d["chunks"]) | set(lv["chunks"]):
            if d["chunks"].get(key) != lv["chunks"].get(key):
                bad.add(key.rsplit(":", 1)[0])
        for key in set(d["records"]) | set(lv["records"]):
            if d["records"].get(key) != lv["records"].get(key):
                bad.add(key)
    return bad


@dataclass
class ServeWorkload:
    """Open-loop Poisson traffic against ``api.serve``."""

    name: str = "serve-poisson"

    def setup(self, seed: int):
        """Bring the deployment up; the caller stops the returned gateway."""
        return api.serve(serve_spec(seed), time_scale=SERVE_TIME_SCALE)

    @staticmethod
    def teardown(gateway) -> None:
        gateway.stop(drain=0.0)

    def run(self, seed: int, des: dict) -> dict:
        spec = serve_spec(seed)
        items = spec.resolve_workload().tasks
        gateway = self.setup(seed)
        try:
            log = asyncio.run(
                _drive(gateway.address, items, SERVE_TIME_SCALE, SERVE_DRAIN_S)
            )
        finally:
            gateway.stop()
        result = gateway.result()
        live = json.loads(json.dumps(result.extra["commits"]))
        mismatched = _outcome_diff(des["commits"], live)
        violations = (result.sanitizer_violations or 0) + des["violations"]
        return {
            "attempted": len(items),
            "completed": len(log.done),
            "refused": log.refused,
            "mismatched": sorted(mismatched),
            "violations": violations,
            "latencies_ms": log.latencies_ms(),
            # first due time to last completion: the client's window
            "window_s": (
                max(log.done.values()) - min(log.due.values())
                if log.done else 0.0
            ),
            "late_ms": [x * 1e3 for x in log.late],
            "unhandled_messages": result.extra.get("unhandled_messages", 0),
            "tasks_completed": result.tasks_completed,
        }


DES_WORKLOADS = {
    "fig5b-sweep": SweepWorkload("fig5b-sweep", _fig5b_spec),
    "mm-attack": AttackWorkload(),
    "solver-sweep": SweepWorkload("solver-sweep", _solver_spec),
}
SERVE = ServeWorkload()
WORKLOADS = {**DES_WORKLOADS, SERVE.name: SERVE}
