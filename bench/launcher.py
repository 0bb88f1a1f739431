"""Run one kgsynth CLI stage in this process, as ``kgsynth ARGV...`` would.

Usage: python bench/launcher.py --report FILE [--stub-seed N] [--trace] -- ARGV...

Before calling ``kgsynth.cli.main(ARGV)`` it installs the in-process
completions stub (``stub.py``) and, with ``--trace``, the span wrappers
(``spans.py``). At exit it writes a JSON report with the exit code, the
in-process ``main()`` time, the peak RSS and, when tracing, the spans and
counters.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import spans
import stub


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--stub-seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    stub.install(args.stub_seed)
    from kgsynth import cli

    tracer = root = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        root = tracer.begin("cli.main")
    start = time.perf_counter()
    try:
        rc = cli.main(cli_argv)
    finally:
        main_s = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root)
    report = {"rc": rc, "main_s": main_s, "peak_rss_mb": spans.peak_rss_mb()}
    if tracer is not None:
        report.update(tracer.report())
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
