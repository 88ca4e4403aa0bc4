"""The barrierkets command line with the benchmark's tracer installed.

Takes the same arguments as `python -m barrierkets.cli`.  The traced
request's totals and spans go to the JSON file named by BENCH_TRACE_FILE,
tagged with the request index in BENCH_TRACE_OP.
"""

import os
import sys

from tracer import Tracer


def main():
    import barrierkets.cli

    tracer = Tracer()
    tracer.op = int(os.environ.get("BENCH_TRACE_OP", "0"))
    tracer.install()
    try:
        return barrierkets.cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["BENCH_TRACE_FILE"])


if __name__ == "__main__":
    sys.exit(main())
