"""Set-up as a fresh process pays it: import, registries, input generation.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR``.  Prints
``ready`` once set-up has finished; ``run.py`` times the interval from
spawning this interpreter to that line.
"""

import sys

import recipkit  # noqa: F401
import workloads

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.build(workload, seed, workdir)
    print("ready", flush=True)
