"""One cold set-up of a benchmark workload, in a fresh interpreter.

``run.py`` times this script from the outside (interpreter start to
exit), several times per run, and reports the median as ``setup_s``.

* ``design`` — import the pipeline; compiling is part of each design.
* ``deploy`` — import the runtime and compile the apps' functional
  kernels, which the timed jobs then reuse.
* ``stream`` — import the streaming engine and compile its kernels.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD``
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv) -> int:
    workload = argv[0]
    from repro import S2FASession

    session = S2FASession()
    if workload == "design":
        from repro.dse import engine  # noqa: F401
    elif workload == "deploy":
        from repro.apps import get_app
        from repro.blaze import BlazeRuntime  # noqa: F401
        from repro.spark import SparkContext  # noqa: F401

        from catalog import APPS

        for name in APPS:
            spec = get_app(name)
            session.compile(spec, layout_config=spec.functional_layout)
    elif workload == "stream":
        import repro.streaming  # noqa: F401
        from repro.apps import get_stream_app

        from catalog import STREAM_APPS

        for name in STREAM_APPS:
            get_stream_app(name).compile(session)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
