"""The run's environment: pinned threading, a record of the host, memory.

Everything here is read-only with respect to the program under test.
:data:`PINNED_ENV` is applied by ``run.py`` before numpy is imported
(it re-executes itself when the variables are not yet set, because
``PYTHONHASHSEED`` only takes effect at interpreter start).  Child
processes inherit it: the server child through ``subprocess`` and the
shard pool workers through ``fork``.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import sys
import time

#: Set for every process the benchmark starts, before numpy loads.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Symbols that report an OpenBLAS build's thread count, by build flavour.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _status_field(pid: int | str, field: str) -> int | None:
    """One numeric field of ``/proc/<pid>/status`` (kB for memory)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mib(pid: int | str = "self") -> float:
    """VmHWM of a process in MiB (peak resident set since the last reset)."""
    kib = _status_field(pid, "VmHWM")
    if kib is None:
        raise OSError(f"cannot read VmHWM of process {pid}")
    return kib / 1024.0


def reset_peak_rss(pid: int | str = "self") -> bool:
    """Reset a process's VmHWM to its current RSS; ``False`` if refused.

    Writing ``5`` to ``/proc/<pid>/clear_refs`` resets the high-water
    mark, so a later :func:`peak_rss_mib` covers only what ran since.
    """
    try:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def trim_heap() -> None:
    """Return freed heap memory to the OS (glibc ``malloc_trim``).

    Called once before the timed phase, so the peak measured over it is
    not inflated by memory that set-up freed but the allocator kept.
    """
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def children_peak_rss_mib() -> float:
    """Largest peak RSS among reaped child processes, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def thread_count(pid: int | str = "self") -> int | None:
    """Live OS threads of a process."""
    return _status_field(pid, "Threads")


def _blas_libraries() -> list[str]:
    paths = []
    with open("/proc/self/maps", encoding="utf-8") as handle:
        for line in handle:
            path = line.split()[-1]
            if "openblas" in path.lower() and path not in paths:
                paths.append(path)
    return paths


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS library reports, by file name."""
    counts: dict[str, int] = {}
    for path in _blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            func = getattr(lib, symbol, None)
            if func is None:
                continue
            func.argtypes = []
            func.restype = ctypes.c_int
            counts[os.path.basename(path)] = int(func())
            break
    return counts


def environment() -> dict[str, object]:
    """Host, interpreter, library and threading facts for the result."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "pinned_env": {key: os.environ.get(key) for key in PINNED_ENV},
        "threads": thread_count(),
        "executable": os.path.basename(sys.executable),
    }


def machine_probe() -> dict[str, float]:
    """Fixed single-threaded matmul and memory sweep, for attributing drift.

    Recorded before and after the timed phase and never gated on: a run
    whose probe reads slow ran on a slow host, not slow code.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((384, 384))
    matmul = []
    for _ in range(9):
        start = time.perf_counter()
        a @ a
        matmul.append(time.perf_counter() - start)
    sweep_array = np.ones((64 << 20) // 8)
    sweep = []
    for _ in range(5):
        start = time.perf_counter()
        sweep_array.sum()
        sweep.append(time.perf_counter() - start)
    matmul_s = sorted(matmul)[len(matmul) // 2]
    sweep_s = sorted(sweep)[len(sweep) // 2]
    return {
        "matmul_gflops": 2 * 384**3 / matmul_s / 1e9,
        "sweep_gib_per_s": sweep_array.nbytes / sweep_s / 2**30,
    }
