"""One fresh-process set-up: import uqsl, build the workload's context and
enumerate its basis.  Prints the elapsed seconds; run.py starts it several
times and reports the median as setup_s.

    python3 perfbench/setup_probe.py <workload> [--tiny]
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import TINY, WORKLOADS, make_run  # noqa: E402

if __name__ == "__main__":
    specs = TINY if "--tiny" in sys.argv[2:] else WORKLOADS
    make_run(specs[sys.argv[1]], 0)
    print(repr(time.perf_counter() - T0))
