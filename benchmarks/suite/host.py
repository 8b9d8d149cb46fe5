"""Host stamp and process-memory readings for the benchmark suite."""

from __future__ import annotations

import os
import platform
import sys
from typing import Iterable


def host_stamp() -> dict[str, object]:
    """CPUs usable here and in total, library versions, 1-minute load."""
    import numpy
    import scipy

    return {
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def warn_if_loaded(stamp: dict[str, object]) -> None:
    """Warn on stderr when other work already occupies every CPU."""
    if float(stamp["loadavg_1m"]) > float(stamp["cpus_usable"]):
        print(
            f"warning: 1-minute load average {stamp['loadavg_1m']:.2f} exceeds "
            f"the {stamp['cpus_usable']} usable CPUs; timings will be noisy",
            file=sys.stderr,
        )


def peak_rss_mb(pids: Iterable[int] = ()) -> float:
    """Summed peak resident set (VmHWM) of this process and ``pids``, MiB.

    Read from ``/proc`` while the processes are still alive, so it has to
    be called before the workload shuts its children down.
    """
    total_kb = 0
    for pid in ("self", *pids):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # the child already exited; nothing left to count
    return total_kb / 1024.0
