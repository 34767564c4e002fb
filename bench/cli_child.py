"""Run one weylp CLI command under the tracer.

Usage: python3 bench/cli_child.py <weylp arguments>

Behaves like ``python3 -m weylp.cli``: same stdout and exit code.  After the
command it writes one line ``BENCH_TRACE <json>`` to stderr holding the
tracer's totals, including ``cli.import`` (seconds to import weylp.cli).
"""

import json
import sys
from time import perf_counter

from tracer import TRACE_MARK, Tracer


def main() -> int:
    t0 = perf_counter()
    import weylp.cli
    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = weylp.cli.main(sys.argv[1:])  # the wrapped entry point
    summary = tracer.summary()
    summary["calls"]["cli.import"] = 1
    summary["self_s"]["cli.import"] = import_s
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(summary), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
