"""Run metadata for diagnosing noise: versions, cores, BLAS, CPU steal."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess


def cpu_times():
    """(steal, total) jiffies of the whole machine from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice],
    # where guest time is already counted in user and nice
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def steal_share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def _git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _blas():
    """Vendor from numpy's build record, threads from the loaded library."""
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="ascii") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
        if threads is not None:
            break
    return vendor, threads


def metadata(root):
    import numpy
    import scipy

    vendor, threads = _blas()
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": vendor,
        "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                "OMP_NUM_THREADS") if k in os.environ},
    }
