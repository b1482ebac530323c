"""Start-up of a CLI process, run before numpy loads.

Both entries call start() first: `python -m autocov_spectra.cli` (cli's
__main__ block) and the autocov-spectra console script (main). This module
imports no numpy, so start() comes before numpy's first load.
"""

from __future__ import annotations

import ctypes
import os

# mallopt's parameter number for M_MMAP_THRESHOLD (glibc's malloc.h).
M_MMAP_THRESHOLD = -3

# Blocks at least this large are mmapped, and unmapped when freed. lsv-tail's
# 100 x 100 complex matrices (160 KB) stay on the heap below it: at 128 KiB
# their page faults cost lsv-tail-n100 about 20 % more CPU time.
MMAP_THRESHOLD = 1 << 20


def start() -> None:
    """Fix glibc's mmap threshold, then load numpy with OPENBLAS_NUM_THREADS=1
    and put the caller's value of the variable back (or remove it).

    glibc raises its threshold to the size of each mmapped block it frees, so
    after one trial's X is freed the next trial's arrays come from the heap,
    which it keeps: an esd run at n = N = 512 was resident at 42.7 MB after
    its first eigensolve and 51.1 MB after its second (43.2 MB with the
    threshold fixed). mallopt is missing on macOS and a no-op on musl.
    OpenBLAS loaded at one thread starts no worker threads for cli.run's pin
    to leave idle, and no child process inherits the variable.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no C library symbol to call
        pass
    else:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    caller_threads = os.environ.pop("OPENBLAS_NUM_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # noqa: F401  OpenBLAS reads the variable as numpy loads it
    del os.environ["OPENBLAS_NUM_THREADS"]
    if caller_threads is not None:
        os.environ["OPENBLAS_NUM_THREADS"] = caller_threads


def main() -> int:
    """The autocov-spectra console script: start(), then cli.main()."""
    start()
    from autocov_spectra import cli
    return cli.main()
