"""Peak resident set size of a process, read from ``/proc``."""

from __future__ import annotations

import os


def peak_rss_mb(pid: int = 0) -> float:
    """VmHWM of *pid* (0 = this process) in MiB.

    Raises:
        RuntimeError: when ``/proc/<pid>/status`` has no VmHWM line.
    """
    path = f"/proc/{pid or os.getpid()}/status"
    with open(path, encoding="ascii") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{path} has no VmHWM line")
