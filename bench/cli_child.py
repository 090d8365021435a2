"""Run one `bscomb` command in this interpreter, optionally traced.

Usage: python3 bench/cli_child.py <bscomb arguments...>

With BSCOMB_BENCH_TRACE set to a path, the span wrappers are installed
before `cli.main` runs; the span summary is written to that path and the
spans themselves next to it (`.bin`).  Stdout is left to the command alone.
"""

import json
import os
import sys

trace_path = os.environ.get("BSCOMB_BENCH_TRACE")
tracer = None
if trace_path:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True

from bscomb import cli  # noqa: E402

try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse reports usage errors this way
    code = exc.code
finally:
    sys.stdout.flush()
    if tracer is not None:
        tracer.enabled = False
        with open(trace_path, "w") as fh:
            json.dump(tracer.summary(), fh)
        tracer.dump(trace_path[:-len(".json")] + ".bin")
sys.exit(code)
