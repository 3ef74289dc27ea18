"""Summary statistics shared by the benchmark's modules."""

from __future__ import annotations

import gc
import math
import statistics
import time


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive method); 0 for no samples."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def geomean(values) -> float:
    """Geometric mean of positive values; 0 for no samples."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def per_key_median(samples, key, value) -> dict:
    """``{key(s): median(value(s))}`` over ``samples``."""
    groups: dict = {}
    for sample in samples:
        groups.setdefault(key(sample), []).append(value(sample))
    return {k: median(v) for k, v in groups.items()}


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _speed_probe() -> int:
    """A fixed slice of interpreter work like the program's own:
    small containers allocated and sorted, and deep call chains."""
    rows = [{"key": i, "values": [i, i + 1, i * 0.5]} for i in range(4000)]
    rows.sort(key=lambda row: -row["values"][2])
    return sum(len(row["values"]) for row in rows[::7]) + _fib(16)


class SpeedProbe:
    """Tracks how fast the host runs Python code right now.

    The host may be shared with other work, and contention can slow a
    core by tens of percent, even twofold, for seconds or minutes at a
    time.  The probe times a fixed slice of interpreter
    work every ``INTERVAL_S`` seconds, between and inside operations.
    ``factor`` is the reference probe time divided by the probe's median
    time around an operation.  ``scale`` applies it to the share of the
    operation this thread spent on the CPU; time spent waiting (on disk,
    on another process) is left as measured.
    """

    #: median probe time on the reference machine (2 vCPU at 2.0 GHz,
    #: CPython 3.11) with little else running
    REFERENCE_MS = 1.8
    INTERVAL_S = 0.1
    #: probes within this many seconds of an op set its factor
    WINDOW_S = 0.3

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (time, ms)
        #: wall seconds spent probing, to subtract from what it interrupts
        self.spent = 0.0
        self._last = float("-inf")
        self._tracer = None

    def tick(self) -> None:
        """Probe when ``INTERVAL_S`` has passed since the last probe."""
        if time.perf_counter() - self._last < self.INTERVAL_S:
            return
        # The probe's own garbage must not trigger collections of the
        # program's heap, whose size would leak into the probe's time.
        collecting = gc.isenabled()
        gc.disable()
        t0, cpu0 = time.perf_counter(), time.thread_time()
        _speed_probe()
        t1, cpu1 = time.perf_counter(), time.thread_time()
        if collecting:
            gc.enable()
        self._last = t1
        # CPU time, so that a preempted probe does not read as slow.
        self.samples.append((t1, (cpu1 - cpu0) * 1e3))
        self.spent += t1 - t0

    @property
    def tracer(self):
        """A disabled tracer that probes from inside the program.

        It records nothing, like :data:`repro.obs.NULL_TRACER`; each span
        the program opens merely gives the probe a chance to tick, so
        long operations get probes while they run.
        """
        if self._tracer is None:
            from repro.obs.span import NullTracer

            probe = self

            class TickingTracer(NullTracer):
                def span(self, name, **attrs):
                    probe.tick()
                    return super().span(name, **attrs)

            self._tracer = TickingTracer()
        return self._tracer

    def factor(self, t0: float = None, t1: float = None) -> float:
        """Reference ÷ measured speed around ``[t0, t1]`` (all probes
        when no window is given; 1.0 when there are none)."""
        samples = self.samples
        if t0 is not None:
            near = [ms for at, ms in samples
                    if t0 - self.WINDOW_S <= at <= t1 + self.WINDOW_S]
            if len(near) < 3:
                near = [ms for _, ms in sorted(
                    samples, key=lambda s: abs(s[0] - (t0 + t1) / 2))[:3]]
        else:
            near = [ms for _, ms in samples]
        return self.REFERENCE_MS / median(near) if near else 1.0

    def scale(self, cpu_share: float, t0: float = None,
              t1: float = None) -> float:
        """Multiplier taking a wall time with ``cpu_share`` of it on
        the CPU to the reference speed."""
        share = min(1.0, max(0.0, cpu_share))
        return 1.0 + (self.factor(t0, t1) - 1.0) * share

