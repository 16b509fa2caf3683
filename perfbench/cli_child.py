"""``python -m recipkit.cli`` under the tracer, for traced runs of ``cli``.

Times ``import recipkit.cli`` as a span, wraps the package, runs the command
line with this process's arguments and writes spans and counts to the file
named by ``PERFBENCH_TRACE_OUT``; ``run.py`` merges it into its own trace.
The exit code is the command line's.
"""

import os
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter_ns()
    import recipkit.cli
    end = time.perf_counter_ns()

    import tracer

    verdict = int(os.environ.get("PERFBENCH_VERDICT", "0"))
    tr = tracer.Tracer(verdict=verdict)
    tr.spans.append(["import.recipkit", "import", start, end, -1, verdict])
    tr.install()
    code = 1
    try:
        code = recipkit.cli.main(sys.argv[1:])
    finally:
        tr.write_child(os.environ["PERFBENCH_TRACE_OUT"])
    sys.exit(code)
