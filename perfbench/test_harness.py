"""Tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import (  # noqa: E402
    REF_NOMINAL_S,
    Tally,
    Tracer,
    host_speed,
    median,
    percentile,
    reference_loop_s,
    tail_percentile,
)


# ----------------------------------------------------------- percentiles
def test_percentile_interpolates_like_numpy():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 4.0
    assert percentile(xs, 50) == 2.5
    assert percentile(xs, 25) == pytest.approx(1.75)
    assert median(xs) == 2.5


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tail_needs_ten_samples_beyond_it():
    # 100 samples: 90th leaves exactly 10 beyond, 95th only 5
    q, value, n = tail_percentile(range(100))
    assert (q, n) == (90.0, 100)
    assert value == pytest.approx(89.1)
    # 1000 samples reach the 99th, 10000 the 99.9th
    assert tail_percentile(range(1000))[0] == 99.0
    assert tail_percentile(range(10000))[0] == 99.9


def test_tail_of_small_samples():
    # 20 samples support only the median (10 beyond it)
    q, value, n = tail_percentile([float(i) for i in range(20)])
    assert (q, n) == (50.0, 20)
    assert value == 9.5
    # 19 samples support no tail at all, but still report their count
    assert tail_percentile(range(19)) == (None, None, 19)
    assert tail_percentile([]) == (None, None, 0)


# ------------------------------------------------------------ host speed
def test_host_speed_is_relative_to_the_nominal_loop_time():
    # a host running the reference loop twice as slow as nominal has
    # speed 0.5
    slow = [2 * REF_NOMINAL_S, 2 * REF_NOMINAL_S, 9 * REF_NOMINAL_S]
    assert host_speed(slow) == pytest.approx(0.5)  # median: one outlier
    assert host_speed([REF_NOMINAL_S]) == pytest.approx(1.0)
    assert reference_loop_s() > 0.0
    with pytest.raises(ValueError):
        host_speed([])


# ------------------------------------------------------ failure counting
def test_tally_counts_missing_and_failed_units():
    tally = Tally()
    tally.add(10, 10)
    assert tally.correct and (tally.attempted, tally.failed) == (10, 0)
    tally.add(5, 3)  # two tasks never completed
    assert (tally.attempted, tally.failed) == (15, 2)
    tally.add(4, 4, ok=False, why="fingerprint mismatch")
    # a unit whose output is wrong fails all of its tasks
    assert (tally.attempted, tally.failed) == (19, 6)
    assert not tally.correct
    assert tally.problems[-1] == "fingerprint mismatch"


def test_tally_clamps_and_validates():
    tally = Tally()
    tally.add(3, 7)  # completions beyond the attempt count are not credit
    assert (tally.attempted, tally.failed) == (3, 0)
    with pytest.raises(ValueError):
        tally.add(-1, 0)
    assert not Tally().correct  # nothing attempted is not a pass


# ------------------------------------------------------------------ spans
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 1.0
        traced_leaf()

    def outer():
        clock.now += 3.0
        traced_middle()

    traced_leaf = tracer.wrap(leaf, "b.leaf", "leaf")
    traced_middle = tracer.wrap(middle, "b.middle", "middle")
    tracer.wrap(outer, "b.outer", None)()

    assert tracer.self_s["leaf"] == 4.0
    assert tracer.self_s["middle"] == 2.0
    # a frame span (layer None) is timed but attributes nothing
    assert tracer.total_s["b.outer"] == 9.0
    assert "None" not in tracer.self_s and None not in tracer.self_s
    assert tracer.attributed_s() == 6.0
    assert tracer.calls["b.leaf"] == 2


def test_same_layer_nesting_is_not_double_counted():
    clock = FakeClock()
    tracer = Tracer(clock)
    inner = tracer.wrap(lambda: setattr(clock, "now", clock.now + 1.0),
                        "inner", "net")

    def outer():
        clock.now += 1.0
        inner()

    tracer.wrap(outer, "outer", "net")()
    assert tracer.self_s["net"] == 2.0
    assert tracer.total_s["outer"] == 2.0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    traced = tracer.wrap(boom, "boom", "core")
    with pytest.raises(KeyError):
        traced()
    assert tracer.self_s["core"] == 1.0
    assert tracer._stack() == []


def test_after_hook_counts_and_disabled_tracer_records_nothing():
    tracer = Tracer(FakeClock())
    traced = tracer.wrap(lambda x: x * 2, "dbl", "apps",
                         after=lambda r, a, k: tracer.counts.update(["dbl"]))
    assert traced(3) == 6
    assert tracer.counts["dbl"] == 1
    counted = tracer.counter(lambda: "ok", "c.b", "c.count")
    assert counted() == "ok" and tracer.counts["c.count"] == 1
    tracer.enabled = False
    assert traced(4) == 8 and counted() == "ok"
    assert tracer.calls["dbl"] == 1 and tracer.counts["c.count"] == 1


def test_nesting_is_per_thread():
    clock = FakeClock()
    tracer = Tracer(clock)
    ready, release = threading.Event(), threading.Event()

    def blocked():
        ready.set()
        release.wait(5.0)

    worker = threading.Thread(target=tracer.wrap(blocked, "w", "serve"))
    worker.start()
    ready.wait(5.0)
    # a span opened on this thread while the worker's span is open must
    # not become the worker's child (or parent)
    step = tracer.wrap(lambda: setattr(clock, "now", clock.now + 1.0),
                       "m", "live")
    step()
    release.set()
    worker.join(5.0)
    assert not worker.is_alive()
    assert tracer.self_s["live"] == 1.0
    assert tracer.self_s["serve"] == 1.0  # its own wall, nothing subtracted


# --------------------------------------------------------------- bindings
def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_boundary_resolves_and_uninstall_restores():
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import layers

    before = {}
    for b in layers.BOUNDARIES:
        owner, attr = layers._resolve(b.target)
        before[b.name] = (owner, attr, _current(owner, attr))
    installed = layers.install(Tracer())
    try:
        for owner, attr, orig in before.values():
            assert _current(owner, attr) is not orig, (owner, attr)
    finally:
        installed.uninstall()
    for owner, attr, orig in before.values():
        assert _current(owner, attr) is orig, (owner, attr)
    # every per-layer metric is documented: unit, direction, layer, what
    # it should move and where
    assert all(len(v) == 5 for v in layers.METRICS.values())
