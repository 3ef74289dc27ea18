"""The apps the workloads run, and the names and units of every metric
the benchmark prints.

The metrics are those ``BENCHMARK.json`` at the repository root
declares; the self-test (``selftest.py``) checks that each one is
printed and that each per-layer metric is non-zero on some workload.  A
time is wall-clock unless its name starts with ``virtual_``.
"""

from __future__ import annotations

import json
from pathlib import Path

#: The eight paper applications (Table 2 order) and the streaming apps.
APPS = ["PR", "KMeans", "KNN", "LR", "SVM", "LLS", "AES", "S-W"]
STREAM_APPS = ["aes-window", "lr-stream", "log-filter"]

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: printed by every ``--trace 0`` run
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
#: printed by every ``--trace 1`` run
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]
UNITS = {metric["name"]: metric["unit"]
         for metric in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Exact counts: each must repeat between passes of one seed.
NAMED_COUNTS = ["hls.estimate.calls", "dse.evaluations",
                "blaze.offload.calls", "jvm.fallback_tasks",
                "streaming.batches", "merlin.hls_c_bytes"]
