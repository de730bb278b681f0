"""Runs one epiflows CLI command in a fresh process, as ``epiflows ARGS`` would.

    python3 bench/cli_launcher.py [--setup REPORT.json | --spans S.npz --op ID] -- ARGS...

``--setup`` times ``import epiflows.cli`` plus the command ARGS as a warm-up
and writes the time to the report. ``--spans`` installs the
benchmark's wrappers after the import, runs the command and saves its spans
for the parent to merge. The exit code is the command's.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup")
    ap.add_argument("--spans")
    ap.add_argument("--op", type=int, default=-1)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.perf_counter()
    import epiflows.cli

    import_s = time.perf_counter() - t0
    if args.setup:
        rc = epiflows.cli.main(argv)
        with open(args.setup, "w") as fh:
            json.dump({"setup_s": time.perf_counter() - t0, "import_s": import_s}, fh)
        return rc
    if not args.spans:
        return epiflows.cli.main(argv)

    from tracing import Tracer

    tracer = Tracer()
    tracer.op_id = args.op
    tracer.install()
    try:
        rc = epiflows.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.counters["cli_import_s"] += import_s
        tracer.counters["cli_processes"] += 1
        tracer.save(args.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
