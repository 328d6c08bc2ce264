"""Process bookkeeping over ``/proc`` (stdlib only, Linux).

The ledger has to know that nothing it started is still running — and a
zombie waiting for the container's init to reap it is not running, which
``os.kill(pid, 0)`` cannot tell.
"""

from __future__ import annotations

import os


def _stat(pid) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name: state,
    ppid, pgrp, session, ...; ``None`` once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as f:
            return f.read().rpartition(")")[2].split()
    except OSError:
        return None


def _running(fields) -> bool:
    return fields is not None and fields[0] not in ("Z", "X")


def _select(index: int, value: int) -> list[int]:
    out = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat(name)
            if _running(fields) and int(fields[index]) == value:
                out.append(int(name))
    return out


def alive(pid: int) -> bool:
    return _running(_stat(pid))


def children(pid: int) -> list[int]:
    """Running direct children of ``pid``."""
    return _select(1, pid)


def group_members(pgid: int) -> list[int]:
    """Running members of process group ``pgid``."""
    return _select(2, pgid)


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (what ``ru_maxrss`` will say
    once it is reaped); 0 when it is already gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
