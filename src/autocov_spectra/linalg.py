"""Dense complex-matrix primitives.

All functions are pure and operate on 2-d numpy arrays. Singular values are
returned in descending order; eigenvalues as an unordered array.
one_blas_thread pins the BLAS thread count for a block.

Backends: eigenvalues (np.linalg.eigvals), singular_values
(np.linalg.svd without vectors) and qr_triangular_factor (np.linalg.qr)
run on numpy.linalg. schur_form (scipy.linalg.schur) and
triangular_lsv_bound (scipy.linalg.solve_triangular) need scipy.linalg,
since numpy has no Schur form or triangular solve; it is imported on their
first call, so only hermitize loads it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

import numpy as np

# Inverse-iteration steps in triangular_lsv_bound. On Y - zI grids at
# N <= 128 two steps already bound s_min within a factor of about 2.
INVERSE_ITERATION_STEPS = 2


class NumericBackendError(RuntimeError):
    """Raised when an eigen/SVD/Schur routine fails to converge, or when the
    fixed-point solver finds no positive root."""


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


# One {library file name: (previous count, set)} per open one_blas_thread,
# outermost first.
_active_pins: list[dict] = []


def _pin_to_one_thread(pin: dict, controls: dict) -> None:
    """Record in pin the count of every library in controls that pin does not
    hold yet, and put that library on one thread."""
    for name, (get, set_threads) in controls.items():
        if name not in pin:
            pin[name] = (get(), set_threads)
            set_threads(1)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread.

    Each library's previous count is restored on exit, exceptions included.
    A library that _scipy_linalg maps during the body is put on one thread
    when it loads and gets its count at load back on exit. The Monte Carlo
    drivers decompose many small matrices, where OpenBLAS's worker threads
    cost more than they save, and a threaded BLAS may sum in a different
    order, so one thread also makes results independent of the caller's
    thread setting. Does nothing when no OpenBLAS is loaded. The count is
    process-wide: other threads calling BLAS meanwhile see it too.
    """
    pin: dict = {}
    _active_pins.append(pin)
    try:
        _pin_to_one_thread(pin, _openblas_thread_controls())
        yield
    finally:
        _active_pins.remove(pin)
        for previous, set_threads in pin.values():
            set_threads(previous)


@functools.cache
def _scipy_linalg():
    """scipy.linalg, imported on the first call.

    The import maps scipy's own OpenBLAS. Every open one_blas_thread then
    pins it too, so a run's BLAS stays on one thread whichever subcommand
    loads scipy.
    """
    import scipy.linalg

    if _active_pins:
        controls = _openblas_thread_controls()
        for pin in _active_pins:
            _pin_to_one_thread(pin, controls)
    return scipy.linalg


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {M.shape}")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise ValueError("matrix contains non-finite entries")
    return M


def eigenvalues(M) -> np.ndarray:
    """Eigenvalues of a square matrix, as an unordered complex array."""
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"eigenvalues requires a square matrix, got {M.shape}")
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
        raise NumericBackendError(f"eigensolver failed: {exc}") from exc


def singular_values(M) -> np.ndarray:
    """Singular values of M, descending."""
    M = _as_matrix(M)
    try:
        return np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
        raise NumericBackendError(f"SVD failed: {exc}") from exc


def qr_triangular_factor(M) -> np.ndarray:
    """Upper-triangular factor R of the economic QR factorization M = QR.

    R is min(rows, cols) x cols; Q, which has orthonormal columns, is never
    formed. Since Q* Q = I, products of M's columns, M[:, a]* M[:, b], equal
    those of R's.
    """
    M = _as_matrix(M)
    try:
        return np.linalg.qr(M, mode="r")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
        raise NumericBackendError(f"QR factorization failed: {exc}") from exc


def schur_form(M) -> np.ndarray:
    """Upper-triangular factor T of the complex Schur form M = Q T Q*.

    diag(T) holds the eigenvalues of M, and since Q is unitary T - zI has
    the singular values of M - zI for every z.
    """
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"schur_form requires a square matrix, got {M.shape}")
    try:
        T, _ = _scipy_linalg().schur(M, output="complex", check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
        raise NumericBackendError(f"Schur factorization failed: {exc}") from exc
    return T


def least_singular_value(M) -> float:
    """Smallest singular value of a square matrix."""
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("least_singular_value requires a square matrix")
    return float(singular_values(M)[-1])


def triangular_lsv_bound(T) -> float:
    """Upper bound on the least singular value of an upper-triangular T.

    Runs INVERSE_ITERATION_STEPS steps of inverse iteration on (T* T)^-1
    from the fixed start vector ones/sqrt(N), so repeated calls agree bit
    for bit. Each step solves T* y = x and T w = y; since
    ||T^-1 y|| <= ||y|| / s_min(T), the ratio ||y|| / ||w|| bounds s_min(T)
    from above and tightens with every step. Costs O(N^2) per step. An
    exactly zero diagonal entry makes T singular and returns 0.
    """
    T = _as_matrix(T)
    if T.shape[0] != T.shape[1]:
        raise ValueError("triangular_lsv_bound requires a square matrix")
    if np.any(np.diag(T) == 0):
        return 0.0
    solve_triangular = _scipy_linalg().solve_triangular
    x = np.full(T.shape[0], 1.0 / np.sqrt(T.shape[0]), dtype=complex)
    bound = np.inf
    for _ in range(INVERSE_ITERATION_STEPS):
        y = solve_triangular(T, x, trans="C", check_finite=False)
        w = solve_triangular(T, y, check_finite=False)
        w_norm = np.linalg.norm(w)
        if not np.isfinite(w_norm):
            return 0.0
        bound = float(np.linalg.norm(y) / w_norm)
        x = w / w_norm
    return bound


def operator_norm(M) -> float:
    """Largest singular value."""
    s = singular_values(M)
    return float(s[0]) if s.size else 0.0
