"""Time one workload's set-up in this fresh process and print the seconds.

    python3 bench/setup_probe.py <workload> <seed>

Set-up is importing ``hybrid_rendezvous`` (with ``cli``), parsing the
workload's configs and building its first system.  ``run.py`` starts this
several times per run, with the BLAS thread variables set to 1, and
reports the median as ``setup_s``.  The seconds are scaled to the reference
host speed (see ``hostspeed.py``).
"""

import os
import sys
import time

T0 = time.perf_counter()
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from hostspeed import HostClock  # noqa: E402  (pure Python, no numpy)

if __name__ == "__main__":
    from pathlib import Path

    clock = HostClock()
    with clock.interrupting():
        import workloads  # its import is part of what is timed

        workloads.setup(sys.argv[1], Path(_ROOT), int(sys.argv[2]), Path(_ROOT) / ".bench_run")
        t1 = time.perf_counter()
    print(clock.scaled(T0, t1))
