"""One set-up of a workload in a fresh process: import the library, generate the inputs, warm up.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>

``run.py`` times whole runs of this script for ``setup_s``; the work
directory is removed before the process exits.
"""

import shutil
import sys
from pathlib import Path

from run import import_library

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    import_library()
    from workloads import WORKLOADS, load_reference

    try:
        WORKLOADS[workload](seed, workdir, load_reference()).warm_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
