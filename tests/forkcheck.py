"""Residue probes shared by the fork-transport test modules.

A plain module rather than ``conftest.py``: several directories hold a
``conftest.py``, and only one of them can be importable as ``conftest``.
"""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os


def shm_residue() -> list[str]:
    """Runner-created segments currently visible in /dev/shm.

    Garbage is collected first: a transport another test dropped keeps
    its idle segments until its GC finalizer runs.
    """
    gc.collect()
    prefix = f"/dev/shm/repro_{os.getpid():x}_"
    return glob.glob(prefix + "*")


def live_workers() -> list:
    """Forked pool workers of this process that are still running.

    ``is_alive()`` can misreport a worker that a pool's manager thread is
    reaping at that moment, so only a pid that still exists counts.
    """
    live = []
    for proc in multiprocessing.active_children():
        try:
            os.kill(proc.pid, 0)
        except ProcessLookupError:
            continue
        live.append(proc)
    return live
