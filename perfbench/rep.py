"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so no repetition
shares a process, heap or cache with an earlier one.  The script

1. imports the program (timed: ``import_s``, never part of ``setup_s``),
2. sets up once untimed, which pays for the lazy sub-imports,
3. sets up several more times, each timed (``setup_s``),
4. runs the timed phase once, traced or not,

and prints one JSON object as its last line of output.  Around the
set-ups and around the timed phase it probes the host's speed with a
fixed reference loop (``harness.host_speed``), with which ``run.py`` puts
the DES workloads' times on a nominal host.

    python3 perfbench/rep.py rep --workload mm-attack --seed 1 --trace 0
    python3 perfbench/rep.py des-leg --seed 1   # serve-poisson's DES leg

The served workload reads its DES leg (JSON) from standard input.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

import layers
from harness import Tracer, host_speed, reference_loop_s

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: reference-loop probes of the host's speed before the set-ups, between
#: them and the timed phase, and after it (see ``harness.host_speed``)
PROBES = 5
#: timed set-ups per repetition (the median across all of them is
#: setup_s): at least SETUP_MIN, then more until SETUP_BUDGET_S is spent
SETUP_MIN = 3
SETUP_MAX = 50
SETUP_BUDGET_S = 0.5


def _import_program() -> float:
    """Import ``repro.api`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import repro.api  # noqa: F401

    took = time.perf_counter() - t0
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise SystemExit(f"imported repro from {where}, not from {SRC}")
    return took


def _probe() -> list[float]:
    return [reference_loop_s() for _ in range(PROBES)]


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_samples(workload, seed: int) -> list[float]:
    workload.teardown(workload.setup(seed))  # warm: lazy imports, caches
    samples: list[float] = []
    while len(samples) < SETUP_MIN or (
        len(samples) < SETUP_MAX and sum(samples) < SETUP_BUDGET_S
    ):
        gc.collect()
        t0 = time.perf_counter()
        handle = workload.setup(seed)
        samples.append(time.perf_counter() - t0)
        workload.teardown(handle)
    return samples


def _rep(args) -> dict:
    import_s = _import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    serve = workload is workloads.SERVE
    des = json.loads(sys.stdin.read()) if serve else None
    before = _probe()
    setup = _setup_samples(workload, args.seed)
    between = _probe()

    tracer = installed = None
    if args.trace:
        tracer = Tracer()
        installed = layers.install(tracer)
    gc.collect()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    out = workload.run(args.seed, des) if serve else workload.run(args.seed)
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    if installed is not None:
        installed.uninstall()
    after = _probe()

    out.update(
        import_s=import_s,
        setup_s=setup,
        setup_speed=host_speed(before + between),
        host_speed=host_speed(between + after),
        peak_rss_mb=_peak_rss_mb(),
        traced=bool(args.trace),
    )
    if tracer is not None:
        tasks = (
            out["tasks_completed"] if serve
            else sum(p["completed"] for p in out["points"])
        )
        out["layers"] = layers.layer_metrics(
            tracer, tasks, out.get("unhandled_messages", 0)
        )
        # DES phases are CPU-bound, so their wall is the base; the served
        # phase mostly waits on its arrival schedule, so its CPU time is
        # the base there
        base = cpu if serve else wall
        out["unattributed_share"] = max(
            0.0, base - tracer.attributed_s()
        ) / base
        out["uncovered"] = layers.uncovered(tracer, args.workload)
    return out


def _des_leg(args) -> dict:
    _import_program()
    import workloads

    return workloads.des_leg(args.seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/rep.py")
    parser.add_argument("mode", choices=("rep", "des-leg"))
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = _rep(args) if args.mode == "rep" else _des_leg(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
