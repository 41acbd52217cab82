"""One benchmark sample: a fresh process that sets up and runs one scenario.

    python3 child.py --src DIR --config FILE --kind KIND --out DIR \
        --report FILE [--trace]

It does what the ``rldp`` command does (``load_config`` then
``run_scenario``) and writes a JSON report: the ``time.monotonic()`` at which
it was ready to run, the wall time and exit code of ``run_scenario``, its
peak resident memory, the time of the kernel of ``calibrate.py`` run just
after it and the factor that rescales times to the reference host speed,
the library versions it ran with and, when traced, the per-span
counters of ``spans.Tracer``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--kind", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import rldp.cli as cli
    import_s = time.perf_counter() - t0
    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"imported rldp from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    cfg = cli.load_config(args.config, args.kind)
    ready = time.monotonic()
    t0 = time.perf_counter()
    rc = cli.run_scenario(cfg, args.out)
    run_s = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Only now, so that it changes neither the run nor its peak memory.
    from calibrate import REFERENCE_S, calibrate
    calib_s = calibrate()

    import numpy
    import scipy
    report = {
        "ready_monotonic": ready, "import_s": import_s, "run_s": run_s,
        "calib_s": calib_s, "ref_scale": REFERENCE_S / calib_s,
        "exit_code": rc, "peak_rss_mib": peak_kib / 1024.0,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        report["trace"] = tracer.snapshot()
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
