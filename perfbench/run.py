"""Wall-clock benchmark of the S2FA pipeline.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``design``, ``deploy``, ``serve-faults``, ``stream`` (see
``perfbench/README.md`` for why each was chosen and the layers it
loads).  Run from the repository root; the program is imported from
``src/`` and scratch files go to ``.perfbench_tmp/`` there.

``--trace 0`` sets the workload up several times (median ``setup_s``),
then runs it for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs one fixed pass untraced, the same pass traced, and
both again, and reports the per-layer metrics of the traced passes, the
workload's own figures from the untraced ones, and the tracing overhead.
Every output is checked; the last line of standard output is one JSON
object, and the exit code is non-zero when any check failed.

``--tiny`` shrinks every input (for ``selftest.py``);
``--corrupt-oracle`` tampers with the expected outputs so that a run
must fail its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7

sys.path.insert(0, str(Path(__file__).resolve().parent))

from catalog import END_TO_END, NAMED_COUNTS, PER_LAYER, UNITS  # noqa: E402
from stats import median  # noqa: E402


def timed_run(workload, seconds: float, setup_repeats: int) -> dict:
    setups = [workload.setup_once() for _ in range(setup_repeats)]
    workload.prepare()
    figures = workload.measure(seconds)
    figures["setup_s"] = median(setups)
    figures["peak_rss_mb"] = workload.peak_rss_mb()
    return figures


def traced_run(workload, ledger) -> dict:
    from layers import LayerProbe, span_layers
    from repro.obs import Tracer

    workload.prepare()
    untraced, traced, passes, figures = [], [], [], []
    for _ in range(2):
        wall, untraced_figures, _ = workload.fixed_pass()
        untraced.append(wall)
        figures.append(untraced_figures)
        tracer, probe = Tracer(), LayerProbe()
        with probe.installed():
            wall, _, extras = workload.fixed_pass(tracer, probe)
        traced.append(wall)
        passes.append({**span_layers(tracer, probe), **extras})

    for name in NAMED_COUNTS:
        values = [layers[name] for layers in passes]
        ledger.check(f"count {name} repeats between passes {values}",
                     len(set(values)) == 1)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for source in (figures, passes):
        for name in metrics:
            values = [f[name] for f in source if name in f]
            if values:
                metrics[name] = sum(values) / len(values)
    metrics["obs.trace_overhead_ratio"] = sum(traced) / sum(untraced) - 1
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing "
              f"({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Ledger

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    # SIGTERM unwinds like an error, so the serve daemon is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(work)
    ledger = Ledger()
    workload = WORKLOADS[args.workload](
        args.seed, work, ledger, tiny=args.tiny,
        corrupt_oracle=args.corrupt_oracle)
    try:
        if args.trace:
            values = traced_run(workload, ledger)
            names = PER_LAYER
        else:
            values = timed_run(workload, args.seconds,
                               1 if args.tiny else SETUP_REPEATS)
            names = END_TO_END
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()          # unless another run still uses it
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    print(f"ops attempted {ledger.attempted}  failed {ledger.failed}  "
          f"degraded (JVM fallback) {ledger.degraded}")
    if "samples" in values:
        print(f"{workload.op_label} samples {values['samples']}")
    if workload.speed.samples:
        print(f"speed factor (reference / measured) "
              f"{workload.speed.factor():.4f} over "
              f"{len(workload.speed.samples)} probes; the CPU share of "
              f"times below is at the reference speed")
    for error in ledger.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    for name, value in values.items():
        if name in UNITS:
            print(f"  {name:34s} {value:14.4f} {UNITS[name]}")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": UNITS[name]}
                    for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
