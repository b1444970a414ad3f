"""Start ``python -m repro serve`` with the benchmark's tracing wrappers.

Usage: ``python3 perfbench/gateway_boot.py [serve options]``.  With
``PERFBENCH_TRACE=1`` in the environment the wrappers of
``tracing.py`` are installed before the gateway imports its world
code, and after the gateway has drained (SIGTERM) one line
``PERFBENCH_TRACE {json}`` carries the gateway's per-layer totals.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main() -> int:
    trace = os.environ.get("PERFBENCH_TRACE") == "1"
    if trace:
        import tracing

        tracing.install()
    from repro.cli import main as cli_main

    code = cli_main(["serve", *sys.argv[1:]])
    if trace:
        print("PERFBENCH_TRACE " + json.dumps(tracing.snapshot()),
              flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
