"""The host record attached to every result (stdlib only).

A wallclock number means nothing without the machine it was cut on:
cores, CPU model, last-level cache, THP mode and compiler go into every
result line and ledger.  NumPy version and the resolved loop tier are
added by the measured child, which is the process that imports them.
"""

from __future__ import annotations

import glob
import os
import re
import shutil
import subprocess


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return None


def _size_bytes(text: str) -> int:
    m = re.fullmatch(r"(\d+)\s*([KMG]?)", text.strip().upper().rstrip("B"))
    if not m:
        return 0
    return int(m.group(1)) * {"": 1, "K": 1 << 10, "M": 1 << 20,
                              "G": 1 << 30}[m.group(2)]


def llc_bytes() -> int:
    """Size of the highest-level cache cpu0 reports (0 when unknown)."""
    best_level, best_size = -1, 0
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        level = _read(os.path.join(index, "level"))
        size = _read(os.path.join(index, "size"))
        if level and size and int(level) > best_level:
            best_level, best_size = int(level), _size_bytes(size)
    return best_size


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return "unknown"


def _compiler() -> str:
    """First line of ``--version`` of the compiler the cc loop tier
    would pick (same candidate order as ``repro.lift.codegen.loops``)."""
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        path = shutil.which(cand) if cand else None
        if path:
            try:
                out = subprocess.run([path, "--version"], capture_output=True,
                                     text=True, timeout=10).stdout
            except (OSError, subprocess.SubprocessError):
                continue
            return (out.splitlines() or ["unknown"])[0]
    return "none"


def _thp_mode() -> str:
    text = _read("/sys/kernel/mm/transparent_hugepage/enabled") or ""
    m = re.search(r"\[(\w+)\]", text)
    return m.group(1) if m else "unknown"


def _git_commit(repo_root: str) -> str:
    """HEAD of the checkout, or ``unknown`` (the driver's checkout is a
    plain directory, not a git repository)."""
    try:
        r = subprocess.run(["git", "-C", repo_root, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def collect(repo_root: str, omp_threads: int) -> dict:
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": _cpu_model(),
        "llc_bytes": llc_bytes(),
        "thp": _thp_mode(),
        "compiler": _compiler(),
        "omp_threads": omp_threads,
        "git_commit": _git_commit(repo_root),
    }
