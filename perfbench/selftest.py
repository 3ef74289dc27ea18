"""Self-test of the benchmark at a tiny size (about a minute).

Usage: ``python3 perfbench/selftest.py`` from the repository root.

1. Each workload of ``BENCHMARK.json``, run with ``--tiny`` and
   ``--trace 0`` / ``--trace 1``, exits 0 with zero failed ops. Its last
   line holds exactly the result keys and every metric that
   ``BENCHMARK.json`` names for that mode, each with its unit.
2. Every per-layer metric is non-zero on at least one workload, so none
   is declared but never measured.
3. The named counts repeat between two ``--trace 1`` processes with the
   same seed.
4. With ``--corrupt-oracle`` every workload exits non-zero and reports
   failed ops.
5. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
   the command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalog import NAMED_COUNTS, PER_LAYER, SPEC  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, *extra, cwd=ROOT, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def main() -> int:
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    declared = {mode: {m["name"]: m["unit"] for m in SPEC[key]}
                for mode, key in ((0, "end_to_end"), (1, "per_layer"))}
    measured = set()
    for workload in (w["name"] for w in SPEC["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            proc, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0 and result is not None
                   and set(result) == RESULT_KEYS
                   and result["correct"] is True
                   and result["attempted"] >= 1 and result["failed"] == 0,
                   f"{label}: exit 0, zero failed ops "
                   f"(rc {proc.returncode}: {proc.stderr[-300:]})")
            if result is None:
                continue
            printed = {name: m.get("unit")
                       for name, m in result["metrics"].items()}
            expect(printed == declared[trace],
                   f"{label}: every declared metric printed with its unit")
            if trace:
                counts.append({name: result["metrics"][name]["value"]
                               for name in NAMED_COUNTS})
                measured.update(name for name, m in result["metrics"].items()
                                if m.get("value"))
        expect(len(counts) == 2 and counts[0] == counts[1],
               f"{workload}: named counts repeat across processes")

        proc, result = run(workload, 0, "--corrupt-oracle")
        expect(proc.returncode != 0 and result is not None
               and result["correct"] is False and result["failed"] > 0,
               f"{workload}: a corrupted oracle comparison is caught")

    dead = [name for name in PER_LAYER if name not in measured]
    expect(not dead, f"every per-layer metric is measured somewhere "
                     f"(never non-zero: {dead})")

    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, result = run("design", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and result is None,
           "without the program's source: non-zero exit, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
