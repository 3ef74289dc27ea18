"""Per-layer measurement for the traced run.

Two sources feed the per-layer table, and neither adds code to the
program under test:

* the spans the program already emits (``compile.*``, ``dse.*``,
  ``hls.estimate``, ``blaze.offload``, ``blaze.jvm_fallback``,
  ``serve.request``, ``serve.jvm_fallback``, ``stream.batch``,
  ``pipeline.run``), read from the session's :class:`repro.obs.Tracer`;
* :class:`LayerProbe`, which wraps public entry points of modules that
  emit no span of their own (Blaze serialization and result
  verification, the FPGA board model, the DSE engine loop and the
  stream checkpoint store) with wall-clock timers while a traced pass
  runs, and restores them afterwards.

A layer's self time is its span's duration minus the part its child
spans cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from stats import percentile


class LayerProbe:
    """Wall-clock accumulators filled by timing wrappers."""

    def __init__(self):
        self.ms = defaultdict(float)
        self.counts = defaultdict(int)
        self.first_root = 0
        self.retries_before = 0

    def mark(self, tracer) -> None:
        """Count only what ``tracer`` and the probe record from here on
        (a pass calls this after its warm-up)."""
        self.ms.clear()
        self.counts.clear()
        self.first_root = len(tracer.roots)
        self.retries_before = tracer.metrics.counter("blaze.retries")

    def _timed(self, key, fn):
        ms = self.ms

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ms[key] += (time.perf_counter() - t0) * 1e3
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the probed entry points for the duration of the block."""
        from repro.blaze import manager, runtime
        from repro.dse.engine import S2FAEngine
        from repro.fpga.board import FPGABoard
        from repro.streaming.state import StreamCheckpointStore

        probe = self
        board_run = FPGABoard.run

        def run_board(board, buffers, n_tasks, deadline_s=None):
            t0 = time.perf_counter()
            try:
                seconds = board_run(board, buffers, n_tasks, deadline_s)
            finally:
                probe.ms["fpga.run_ms"] += (time.perf_counter() - t0) * 1e3
            probe.counts["fpga.tasks"] += n_tasks
            return seconds

        make_ser, make_deser = manager.make_serializer, \
            manager.make_deserializer
        patches = [
            (manager, "make_serializer", lambda layout: self._timed(
                "blaze.serialize_ms", make_ser(layout))),
            (manager, "make_deserializer", lambda layout: self._timed(
                "blaze.deserialize_ms", make_deser(layout))),
            (runtime, "verify_outputs",
             self._timed("blaze.verify_ms", runtime.verify_outputs)),
            (FPGABoard, "run", run_board),
            (S2FAEngine, "run", self._timed("dse.run_ms", S2FAEngine.run)),
            (StreamCheckpointStore, "save",
             self._timed("streaming.checkpoint_ms",
                         StreamCheckpointStore.save)),
        ]
        saved = [(owner, name, getattr(owner, name))
                 for owner, name, _ in patches]
        for owner, name, new in patches:
            setattr(owner, name, new)
        try:
            yield self
        finally:
            for owner, name, old in saved:
                setattr(owner, name, old)


def _walk(spans, ancestors=()):
    for span in spans:
        yield span, ancestors
        yield from _walk(span.children, ancestors + (span.name,))


def span_layers(tracer, probe: LayerProbe) -> dict:
    """Per-layer numbers of one traced pass (wall ms unless named)."""
    total = defaultdict(float)
    count = defaultdict(int)
    estimate_us = []
    estimate_in_dse_ms = 0.0
    spark_self_ms = 0.0
    accelerated_tasks = fallback_tasks = 0
    for span, ancestors in _walk(tracer.roots[probe.first_root:]):
        ms = span.duration * 1e3
        total[span.name] += ms
        count[span.name] += 1
        if span.name == "hls.estimate":
            estimate_us.append(ms * 1e3)
            if any(a.startswith("dse.") for a in ancestors):
                estimate_in_dse_ms += ms
        elif span.name == "pipeline.run":
            spark_self_ms += span.self_duration * 1e3
        elif span.name == "blaze.offload":
            if span.attrs.get("outcome") == "accelerated":
                accelerated_tasks += span.attrs.get("tasks", 0)
        elif span.name in ("blaze.jvm_fallback", "serve.jvm_fallback"):
            fallback_tasks += span.attrs.get("tasks", 0)

    offload_ms = total["blaze.offload"]
    inside_offload = sum(probe.ms[k] for k in (
        "blaze.serialize_ms", "fpga.run_ms", "blaze.verify_ms",
        "blaze.deserialize_ms"))
    evaluations = probe.counts["dse.evaluations"]
    offered = accelerated_tasks + fallback_tasks
    return {
        "scala.ms": total["compile.frontend"],
        "jvm.bake_ms": total["compile.bake"],
        "compiler.self_ms": (total["compile.kernel"]
                             - total["compile.frontend"]
                             - total["compile.bake"]),
        "hls.estimate.calls": count["hls.estimate"],
        "hls.estimate.ms": total["hls.estimate"],
        "hls.estimate.us_p50": percentile(estimate_us, 50),
        "hls.estimate.us_p99": percentile(estimate_us, 99),
        "hls.estimates_per_eval": (count["hls.estimate"] / evaluations
                                   if evaluations else 0.0),
        "dse.self_ms": (probe.ms["dse.run_ms"] - estimate_in_dse_ms
                        if probe.ms["dse.run_ms"] else 0.0),
        "dse.partition_ms": total["dse.partition"],
        "dse.evaluations": evaluations,
        "merlin.ms": probe.ms["merlin.ms"],
        "merlin.hls_c_bytes": probe.counts["merlin.hls_c_bytes"],
        "fpga.run_ms": probe.ms["fpga.run_ms"],
        "fpga.tasks": probe.counts["fpga.tasks"],
        "blaze.serialize_ms": probe.ms["blaze.serialize_ms"],
        "blaze.verify_ms": probe.ms["blaze.verify_ms"],
        "blaze.deserialize_ms": probe.ms["blaze.deserialize_ms"],
        "blaze.offload.calls": count["blaze.offload"],
        "blaze.offload.self_ms": max(0.0, offload_ms - inside_offload),
        "spark.self_ms": spark_self_ms,
        "blaze.retries": int(tracer.metrics.counter("blaze.retries")
                             - probe.retries_before),
        "blaze.accelerated_ratio": (accelerated_tasks / offered
                                    if offered else 0.0),
        "jvm.fallback_tasks": fallback_tasks,
        "jvm.fallback_ms": (total["blaze.jvm_fallback"]
                            + total["serve.jvm_fallback"]),
        "serve.server_ms": (total["serve.request"] / count["serve.request"]
                            if count["serve.request"] else 0.0),
        "streaming.sink_ms": probe.ms["streaming.sink_ms"],
        "streaming.checkpoint_ms": probe.ms["streaming.checkpoint_ms"],
        "streaming.batches": count["stream.batch"],
    }
