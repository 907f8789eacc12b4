"""One benchmark process: import rktlab.cli, run one experiment, report.

Usage (started by run.py, never by hand):

    python perfbench/child.py RESULT_JSON TRACE(0|1) -- rktlab run arguments...

The parent records the monotonic clock just before it spawns this
process; the timestamps written here come from the same system-wide
clock (CLOCK_MONOTONIC), so the parent can compute set-up time as
``imported - spawn``.  With TRACE=1 the public functions of every
rktlab module are wrapped before ``main`` runs (see tracer.py).
"""

import json
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    from rktlab import cli

    imported = _now()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = _now()
    code = cli.main(argv)
    end = _now()
    result = {
        "imported": imported,
        "main_start": start,
        "main_end": end,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
