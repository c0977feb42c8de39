"""The benchmark's own arithmetic: percentiles, failure counting, spans.

Kept free of any ``repro`` import so the orchestrator (``run.py``) and the
unit tests (``test_harness.py``) load it without the program under test.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Optional

__all__ = [
    "host_speed",
    "reference_loop_s",
    "median",
    "percentile",
    "tail_percentile",
    "Tally",
    "Tracer",
]


# ----------------------------------------------------------- percentiles
def median(values: Iterable[float]) -> float:
    xs = list(values)
    if not xs:
        raise ValueError("median of no values")
    return statistics.median(xs)


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


#: candidate tail percentiles, highest first
_TAILS = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values: Iterable[float], beyond: int = 10):
    """The highest percentile in ``_TAILS`` that has at least ``beyond``
    samples strictly above its rank, as ``(q, value, sample_count)``.

    With ``n`` samples, percentile ``q`` leaves ``n * (1 - q/100)``
    samples beyond it, so 99th needs 1000 samples, 90th needs 100 and the
    median needs 20.  Fewer than ``2 * beyond`` samples support no tail:
    ``(None, None, n)``.
    """
    xs = sorted(values)
    n = len(xs)
    for q in _TAILS:
        # +1e-9 guards the float product: 1000 * 0.01 is 10.000000000000009
        if math.floor(n * (100.0 - q) / 100.0 + 1e-9) >= beyond:
            return q, percentile(xs, q), n
    return None, None, n


# ------------------------------------------------------------ host speed
#: iterations of the reference loop, and its time on a nominal host
REF_LOOP = 1_000_000
REF_NOMINAL_S = 0.05


def reference_loop_s() -> float:
    """Wall seconds of a fixed pure-Python loop: a probe of how fast the
    host runs interpreter code right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_LOOP):
        x += i
    return time.perf_counter() - t0


def host_speed(probes: Iterable[float]) -> float:
    """Host speed relative to nominal, from reference-loop probes: below
    1 on a slow host.  A CPU-bound time times this factor is that time
    on the nominal host."""
    return REF_NOMINAL_S / median(probes)


# ------------------------------------------------------ failure counting
class Tally:
    """Attempted and failed task counts of one benchmark invocation.

    A task counts as failed when it did not complete, was refused, or
    belongs to a unit of work (a sweep point, a served run) whose
    correctness check failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, completed: int, ok: bool = True,
            why: str = "") -> None:
        """Record one unit: ``attempted`` tasks offered, ``completed``
        of them done, and whether the unit's output checked out."""
        if attempted < 0 or completed < 0:
            raise ValueError("task counts must be non-negative")
        completed = min(completed, attempted)
        self.attempted += attempted
        self.failed += attempted if not ok else attempted - completed
        if not ok or completed < attempted:
            self.problems.append(
                why or f"{attempted - completed}/{attempted} tasks missing"
            )

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems


# ------------------------------------------------------------------ spans
class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: Optional[str], start: float) -> None:
        self.layer = layer
        self.start = start
        self.child = 0.0


class Tracer:
    """In-memory span recorder with per-layer self time.

    A span's self time is its duration minus the time its nested spans
    cover; nesting is tracked per thread.  ``layer=None`` marks a frame
    span (a run or sweep boundary): it nests and is timed, but its self
    time is left unattributed.  Counters record work done at the same
    boundaries.  After a fork the child process stops recording, so
    inherited wrappers cost a flag test there and nothing else.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.enabled = True
        self._local = threading.local()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def enter(self, boundary: str, layer: Optional[str]) -> Optional[_Frame]:
        if not self.enabled:
            return None
        self.calls[boundary] += 1
        frame = _Frame(layer, self.clock())
        self._stack().append(frame)
        return frame

    def exit(self, frame: Optional[_Frame], boundary: str) -> None:
        if frame is None:
            return
        stack = self._stack()
        stack.pop()
        dur = self.clock() - frame.start
        self.total_s[boundary] += dur
        if frame.layer is not None:
            self.self_s[frame.layer] += dur - frame.child
        if stack:
            stack[-1].child += dur

    def wrap(self, fn: Callable, boundary: str, layer: Optional[str],
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as one span per call; ``after(result, args,
        kwargs)`` runs once the span closed, to update counters."""
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            frame = enter(boundary, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, boundary)
            if after is not None and frame is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", boundary)
        return traced

    def counter(self, fn: Callable, boundary: str, count: str) -> Callable:
        """``fn`` with its calls counted under ``count`` (no span)."""
        calls = self.calls
        counts = self.counts

        def counted(*args, **kwargs):
            if self.enabled:
                calls[boundary] += 1
                counts[count] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        counted.__name__ = getattr(fn, "__name__", boundary)
        return counted

    def attributed_s(self) -> float:
        return sum(self.self_s.values())
