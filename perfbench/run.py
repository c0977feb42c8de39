"""Repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload fig5b-sweep --seed 1 --seconds 20 --trace 0

Runs repetitions of one workload, each in a fresh interpreter
(``rep.py``), until ``--seconds`` of wall time have been spent (at least
``MIN_REPS`` of them), checks every output, and prints one JSON object as
the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, on every workload:

* ``tasks_per_s`` — committed tasks per wall second of the timed phases;
  on ``serve-poisson``, of the client's window from the first due time to
  the last completion (its goodput, which tracks the offered rate while
  the deployment keeps up);
* ``p50_ms`` — median wall latency of what a user waits on: a served
  task, from its due time to its ``TaskDone``; on the DES workloads, the
  timed phase itself (the whole sweep, or the one deployment run);
* ``peak_rss_mb`` — peak resident memory of a repetition's process
  (median over repetitions);
* ``setup_s`` — median of the timed set-ups (see ``rep.py``).

The DES workloads' times (set-ups and timed phases, all CPU-bound in one
process) are reported on a nominal host: each repetition probes the
host's speed with a fixed reference loop around its set-ups and around
its timed phase, and its times are scaled by that speed
(``end_to_end``).  On a shared 2-vCPU host a fixed CPU loop's 20-second
averages drift by a fifth over minutes, more than any run length
averages out.  The raw walls are printed on standard error.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``layers.py`` plus the tracing overhead.  Workloads,
metrics and bounds are listed in ``BENCHMARK.json`` at the repository
root; ``layers.METRICS`` maps each per-layer metric to its layer and the
end-to-end metric it should move.

Exit status: 0 after printing a result (``correct`` may be false), 2 when
the program under test is missing or a repetition crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

from harness import Tally, median, percentile, tail_percentile
from layers import METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("fig5b-sweep", "mm-attack", "solver-sweep", "serve-poisson")
SERVE = "serve-poisson"
#: fewest repetitions per invocation: the first one is what later ones
#: are compared against
MIN_REPS = 2
#: every invocation must end well inside three minutes
BUDGET_S = 165.0


class RepFailed(RuntimeError):
    pass


def _child(args: list[str], stdin: str, timeout: float) -> dict:
    """Run ``rep.py`` in a session of its own and return its JSON line.

    The served workload forks deployment nodes; whatever the repetition
    leaves behind, timed out or not, is killed with its process group
    and waited for before this returns.
    """
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "rep.py"), *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(stdin, timeout=max(1.0, timeout))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RepFailed(
            f"rep.py {' '.join(args)} exited {proc.returncode}:\n{err[-2000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def _reference(workload: str, seed: int):
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


# ------------------------------------------------------------- checking
def check_des(reps: list[dict], reference, tally: Tally) -> None:
    """Score DES repetitions: each point must complete every task, report
    no sanitizer violation, and match the first repetition's and the
    recorded reference's (tasks, records, makespan).  Seeds outside the
    recorded range (``record_reference.py``) are held to the first
    repetition only."""
    first = {p["label"]: p["fingerprint"] for p in reps[0]["points"]}
    for i, rep in enumerate(reps):
        for p in rep["points"]:
            want = [first.get(p["label"])]
            if reference is not None:
                want.append(reference.get(p["label"]))
            ok = all(w == p["fingerprint"] for w in want)
            ok = ok and not p["violations"]
            tally.add(
                p["attempted"], p["completed"], ok,
                "" if ok else
                f"rep {i} {p['label']}: got {p['fingerprint']} "
                f"(violations={p['violations']}), want {want}",
            )


def check_serve(reps: list[dict], tally: Tally) -> None:
    """A served run fails the tasks it refused, lost, or committed
    differently from the DES leg; any sanitizer violation fails it all."""
    for i, rep in enumerate(reps):
        bad = len(rep["mismatched"])
        if rep["violations"]:
            tally.add(rep["attempted"], 0, False,
                      f"rep {i}: {rep['violations']} sanitizer violations")
            continue
        tally.add(
            rep["attempted"], max(0, rep["completed"] - bad), True,
            f"rep {i}: {bad} tasks committed differently from the DES leg: "
            f"{rep['mismatched'][:5]}" if bad else "",
        )


# -------------------------------------------------------------- metrics
def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _cost(rep: dict) -> float:
    """What tracing slows: timed wall per task (DES), client p50 (serve)."""
    if "points" in rep:
        return rep["wall_s"] / max(1, sum(p["completed"] for p in rep["points"]))
    return median(rep["latencies_ms"])


def end_to_end(workload: str, reps: list[dict], nominal: bool = True) -> dict:
    """The end-to-end metrics.

    The DES workloads run in this one process, bound by its CPU: their
    set-up and timed-phase walls are put on the nominal host with the
    repetition's probed speeds, because this host's speed drifts by a
    fifth over minutes and the drift, not the program, would dominate the
    run-to-run spread.  The served workload's times are set by its
    emulated clock, arrival schedule, forks and IPC, so they stay raw.
    ``nominal=False`` gives the raw walls.
    """
    scale = nominal and workload != SERVE

    def speed(rep: dict, key: str = "host_speed") -> float:
        return rep[key] if scale else 1.0

    setup = [s * speed(r, "setup_speed") for r in reps for s in r["setup_s"]]
    out = {
        "setup_s": _metric(median(setup), "s"),
        "peak_rss_mb": _metric(median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    if workload == SERVE:
        # latency of a served task, from its due time; goodput over the
        # client's window, first due time to last completion
        lat = [x for r in reps for x in r["latencies_ms"]]
        done = sum(r["completed"] for r in reps)
        window = sum(r["window_s"] for r in reps)
    else:
        # latency of the timed phase: the sweep, or the one deployment
        # run, a user waits for; throughput over all timed phases
        lat = [r["wall_s"] * speed(r) * 1e3 for r in reps]
        done = sum(p["completed"] for r in reps for p in r["points"])
        window = sum(r["wall_s"] * speed(r) for r in reps)
    out["p50_ms"] = _metric(percentile(lat, 50.0), "ms")
    # pooled over repetitions rather than a median of per-repetition
    # ratios: a sum averages the host's short swings better
    out["tasks_per_s"] = _metric(done / window, "1/s")
    return out


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    out = {}
    for name in METRICS:
        unit = METRICS[name][0]
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if values:
            out[name] = _metric(median(values), unit)
    lat = [x for r in traced for x in r.get("latencies_ms", ())]
    q, tail, n = tail_percentile(lat)
    out["serve.client_tail_ms"] = _metric(tail or 0.0, "ms")
    out["serve.client_tail_pct"] = _metric(q or 0.0, "%")
    out["serve.client_samples"] = _metric(n, "count")
    late = [x for r in traced for x in r.get("late_ms", ())]
    out["serve.late_ms"] = _metric(sum(late) / len(late) if late else 0.0, "ms")
    out["import.repro_s"] = _metric(median(r["import_s"] for r in traced + plain), "s")
    out["host.speed"] = _metric(median(r["host_speed"] for r in traced + plain), "ratio")
    out["trace.overhead_ratio"] = _metric(
        median(_cost(r) for r in traced) / median(_cost(r) for r in plain),
        "ratio",
    )
    out["trace.unattributed_share"] = _metric(
        median(r["unattributed_share"] for r in traced), "ratio"
    )
    return {name: out[name] for name in METRICS}


# ----------------------------------------------------------------- main
def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()

    def left() -> float:
        return BUDGET_S - (time.perf_counter() - t_start)

    stdin = ""
    if workload == SERVE:
        stdin = json.dumps(
            _child(["des-leg", "--seed", str(seed)], "", left())
        )
    t0 = time.perf_counter()
    reps: list[dict] = []
    while len(reps) < (2 * MIN_REPS if trace else MIN_REPS) or (
        time.perf_counter() - t0 < seconds
    ):
        # traced runs alternate plain and traced repetitions, so the
        # overhead ratio compares like with like
        traced = trace and len(reps) % 2 == 1
        reps.append(_child(
            ["rep", "--workload", workload, "--seed", str(seed),
             "--trace", "1" if traced else "0"],
            stdin, left(),
        ))

    tally = Tally()
    if workload == SERVE:
        check_serve(reps, tally)
    else:
        check_des(reps, _reference(workload, seed), tally)
    if trace:
        traced = [r for r in reps if r["traced"]]
        plain = [r for r in reps if not r["traced"]]
        metrics = per_layer(traced, plain)
        for r in traced:
            if r["uncovered"]:
                tally.problems.append(
                    f"traced boundaries recorded no call: {r['uncovered']}"
                )
    else:
        metrics = end_to_end(workload, reps)
        raw = end_to_end(workload, reps, nominal=False)
        print(
            "raw walls: " + ", ".join(
                f"{k}={v['value']:.4g} {v['unit']}" for k, v in raw.items()
            ) + f"; host speed {median(r['host_speed'] for r in reps):.3f}"
            f" of nominal (median of {len(reps)} repetitions)",
            file=sys.stderr,
        )
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "api.py")):
        print(f"no program to benchmark under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RepFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
