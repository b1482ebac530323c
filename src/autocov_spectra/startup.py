"""Start-up of a CLI process, run before numpy loads.

Both entries call start() first: `python -m autocov_spectra.cli` (cli's
__main__ block) and the autocov-spectra console script (main). This module
imports no numpy, so start() comes before numpy's first load. start() keeps
OpenSSL out of the process, fixes glibc's mmap and trim thresholds and loads
OpenBLAS at one thread; a library caller that never calls it keeps all of
its own settings.
"""

from __future__ import annotations

import ctypes
import os
import sys

# mallopt's parameter numbers (glibc's malloc.h).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

# Blocks at least this large are mmapped, and unmapped when freed. lsv-tail's
# 100 x 100 complex matrices (160 KB) stay on the heap below it: at 128 KiB
# their page faults cost lsv-tail-n100 about 20 % more CPU time.
MMAP_THRESHOLD = 1 << 20

# A free heap top up to this size stays resident. An lsv-tail trial at
# n = N = 100 holds 513 KiB of numpy buffers at its peak (tracemalloc), and
# glibc keeps 128 KiB of the top when it trims: at glibc's 128 KiB threshold,
# and at 512 and 576 KiB, each trial gave its heap top back and faulted it in
# again (64-124 minor faults per trial); 640 KiB was the least that kept it.
# 768 KiB leaves one 160 KB matrix of margin.
TRIM_THRESHOLD = 768 << 10


def start() -> None:
    """Block _hashlib, fix glibc's mmap and trim thresholds, then load numpy
    with OPENBLAS_NUM_THREADS=1 and put the caller's value of the variable
    back (or remove it).

    numpy.random imports secrets, whose hmac and hashlib would load _hashlib
    and with it OpenSSL's libcrypto, about 3.4 MB resident for hashes no run
    computes. With _hashlib set to None in sys.modules, both take their
    built-in code; an _hashlib already imported is left alone.

    glibc raises its mmap threshold to the size of each mmapped block it
    frees, so after one trial's X is freed the next trial's arrays come from
    the heap, which it keeps: an esd run at n = N = 512 was resident at 42.7
    MB after its first eigensolve and 51.1 MB after its second (43.2 MB with
    the threshold fixed). Fixing that threshold also stops glibc raising its
    trim threshold from 128 KiB, so that is fixed at TRIM_THRESHOLD. mallopt
    is missing on macOS and a no-op on musl. OpenBLAS loaded at one thread
    starts no worker threads for cli.run's pin to leave idle, and no child
    process inherits the variable.
    """
    sys.modules.setdefault("_hashlib", None)
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no C library symbol to call
        pass
    else:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
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
