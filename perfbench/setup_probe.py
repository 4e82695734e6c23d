"""Set up one workload in a fresh process, print ``ready`` and exit.

    python3 perfbench/setup_probe.py <workload> <seed>

`run.py` times this process from its start to the ``ready`` line: the
interpreter start, sftlab imports, model and fixture loading and argument
parsing a user waits for before any check begins.
"""

import sys

from workloads import WORKLOADS

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    WORKLOADS[workload].setup(seed)
    print("ready", flush=True)
