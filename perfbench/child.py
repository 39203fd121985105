"""One benchmark operation: a fresh process that runs ``fpproj.cli.main(argv)``.

Usage: child.py REPORT_JSON TRACE(0|1) -- FPPROJ_ARGV...

With an empty FPPROJ_ARGV the process only imports fpproj (a set-up probe).

The package is imported from the checkout's ``src/``, never from an
installed copy, so the benchmark measures the tree it sits in.  The
moment ``import fpproj`` returns goes to REPORT_JSON (CLOCK_MONOTONIC,
shared with the parent, which subtracts its spawn time), together with
the traced aggregates when TRACE is 1.  The exit code is main's.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv):
    report_path, trace_flag, sep, *cli_argv = argv
    if sep != "--" or trace_flag not in ("0", "1"):
        raise SystemExit("usage: child.py REPORT_JSON 0|1 -- ARGV...")
    sys.path.insert(0, SRC)
    import fpproj

    imported_at = time.monotonic()
    if not os.path.abspath(fpproj.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"fpproj imported from {fpproj.__file__}, not from {SRC}")
    report = {"imported_at": imported_at}
    code = 0
    tracer = None
    try:
        if cli_argv:  # an empty argv is a set-up probe: import only
            import fpproj.cli

            if trace_flag == "1":
                from spans import Tracer

                tracer = Tracer()
                tracer.install()
            code = fpproj.cli.main(cli_argv)
    finally:
        if tracer is not None:
            report["trace"] = tracer.summary()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
