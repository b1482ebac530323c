"""Dense complex-matrix primitives.

All functions are pure and operate on 2-d numpy arrays. Singular values are
returned in descending order; eigenvalues as an unordered array.
one_blas_thread pins the BLAS thread count for a block.

Backends: eigenvalues (np.linalg.eigvals), singular_values
(np.linalg.svd without vectors), qr_triangular_factor (np.linalg.qr) and
norm_at_most (np.linalg.cholesky) all run on numpy.linalg, and a backend
failure reaches the caller as numpy's own np.linalg.LinAlgError (a failed
Cholesky is norm_at_most's answer, not a failure). numpy is the package's
only runtime dependency; scipy's LAPACK wrappers serve the tests alone, as
oracles.
"""

from __future__ import annotations

import contextlib
import ctypes
import os

import numpy as np


# (get, set) thread-count symbols, tried in this order in each loaded
# OpenBLAS: scipy-openblas 64-bit and 32-bit builds, then plain OpenBLAS.
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_controls() -> dict:
    """{library file name: (get, set)} for every OpenBLAS mapped into this
    process; numpy's and scipy's each ship their own. Empty when the memory
    map cannot be read or no OpenBLAS is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return {}
    controls = {}
    for path in sorted(p for p in paths
                       if p.startswith("/") and "openblas" in os.path.basename(p)):
        lib = ctypes.CDLL(path)
        for get_name, set_name in OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter, setter = getattr(lib, get_name), getattr(lib, set_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls[os.path.basename(path)] = (getter, setter)
                break
    return controls


def blas_thread_counts() -> dict:
    """{library file name: thread count} of every loaded OpenBLAS."""
    return {name: get() for name, (get, _) in _openblas_thread_controls().items()}


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread.

    Each library's previous count is restored on exit, exceptions included.
    The Monte Carlo drivers decompose many small matrices, where OpenBLAS's
    worker threads cost more than they save, and a threaded BLAS may sum in
    a different order, so one thread also makes results independent of the
    caller's thread setting. Does nothing when no OpenBLAS is loaded. The
    count is process-wide: other threads calling BLAS meanwhile see it too.
    """
    previous = {name: (get(), set_threads)
                for name, (get, set_threads) in _openblas_thread_controls().items()}
    try:
        for _, set_threads in previous.values():
            set_threads(1)
        yield
    finally:
        for count, set_threads in previous.values():
            set_threads(count)


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {M.shape}")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise ValueError("matrix contains non-finite entries")
    return M


def minus_identity(M, z: complex) -> np.ndarray:
    """M - zI for a square M, as a copy of M with z taken off its diagonal,
    so no identity matrix is formed."""
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"minus_identity requires a square matrix, got {M.shape}")
    B = M.copy()
    B.ravel()[:: B.shape[0] + 1] -= z
    return B


def eigenvalues(M) -> np.ndarray:
    """Eigenvalues of a square matrix, as an unordered complex array."""
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"eigenvalues requires a square matrix, got {M.shape}")
    return np.linalg.eigvals(M)


def singular_values(M) -> np.ndarray:
    """Singular values of M, descending."""
    return np.linalg.svd(_as_matrix(M), compute_uv=False)


def qr_triangular_factor(M) -> np.ndarray:
    """Upper-triangular factor R of the economic QR factorization M = QR.

    R is min(rows, cols) x cols; Q, which has orthonormal columns, is never
    formed. Since Q* Q = I, products of M's columns, M[:, a]* M[:, b], equal
    those of R's.
    """
    return np.linalg.qr(_as_matrix(M), mode="r")


def least_singular_value(M) -> float:
    """Smallest singular value of a square matrix."""
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("least_singular_value requires a square matrix")
    return float(singular_values(M)[-1])


def operator_norm(M) -> float:
    """Largest singular value."""
    s = singular_values(M)
    return float(s[0]) if s.size else 0.0


def norm_at_most(M, bound: float) -> bool:
    """Whether ||M|| <= bound, from one Cholesky factorization, not an SVD.

    ||M|| <= bound exactly when bound^2 I - G is positive semidefinite, for
    the Gram matrix G = M* M or M M*, whichever is smaller, and
    np.linalg.cholesky succeeds exactly when that matrix is positive
    definite. So this agrees with operator_norm(M) <= bound except when
    ||M|| is within rounding of bound.
    """
    M = _as_matrix(M)
    G = M.conj().T @ M if M.shape[1] <= M.shape[0] else M @ M.conj().T
    G *= -1
    G.ravel()[:: G.shape[0] + 1] += bound * bound
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True
