"""One timed ``finphase`` process, started once per repetition by run.py.

Usage: python3 child.py STAMP_FILE TRACE_FILE|- FINPHASE_ARGS...

It imports ``finphase.cli`` exactly as the ``finphase`` console script
does, writes ``time.monotonic_ns()`` to STAMP_FILE as soon as the import
has finished (CLOCK_MONOTONIC is system-wide on Linux, so the parent can
subtract its own spawn time), and then runs ``cli.dispatch``. With a
TRACE_FILE it first wraps the package's public callables (see tracer.py)
and writes the aggregated spans there when dispatch returns.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    stamp_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import finphase.cli as cli

    stamp = time.monotonic_ns()
    Path(stamp_path).write_text(str(stamp))
    # An installed finphase elsewhere must not stand in for the checkout.
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(cli.__file__).resolve().parents:
        print(f"finphase imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    if trace_path == "-":
        return cli.dispatch(argv)

    import tracer

    spans = tracer.Tracer()
    spans.install()
    try:
        return cli.dispatch(argv)
    finally:
        spans.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
