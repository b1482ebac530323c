"""Entry laws, seeded sampling of X, the ensemble matrices A, Y, Z, H, H',
and the reductions that take the eigenvalues of Y and the singular values
of Y - zI from smaller matrices, since Y has rank at most n - k.

X is sampled, and Y = X_k X_0* and X_0* X_k are built, a block of rows or
columns at a time (block_bounds), so a trial holds X and Y plus one block of
each.

The entry laws all have mean 0 and variance 1/n. The default complex
Gaussian has independent real and imaginary parts of variance 1/(2n), so
n E[X^2] = 0 and the non-degeneracy margin c0 is 1. A real Gaussian law is
included only to exercise the degenerate (line-supported) diagnostic path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from autocov_spectra.linalg import (
    _as_matrix,
    eigenvalues,
    minus_identity,
    qr_triangular_factor,
    singular_values,
)

ENTRY_LAW_KINDS = (
    "complex-gaussian",
    "uniform-phase-modulus",
    "two-point-complex",
    "real-gaussian",
)

# Width of the row and column blocks in which X is sampled and Y built.
BLOCK = 64


# Width of the row blocks in which autocov_companion fills X_0* X_k. X is
# held while they are built, and large-k's 2n sample is the largest X of any
# run, so the blocks are narrower than BLOCK: a conjugated block of X is
# N x 16.
COMPANION_BLOCK = 16


def block_bounds(count: int, width: int = BLOCK) -> list[tuple[int, int]]:
    """(start, stop) of the blocks covering range(count): starts at multiples
    of width, and a one-wide tail joins the block before it.

    At one BLAS thread a product's entries then come out bit for bit as in
    one product over the whole range; a one-wide block would take numpy's
    matrix-vector path, which rounds differently. With more threads, a block
    small enough for OpenBLAS to run on one thread rounds like the
    one-thread product.
    """
    starts = list(range(0, count, width))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [count]))


# Norm-conditioning constant: ||X|| -> 1 + sqrt(gamma0), plus slack for
# finite-n fluctuation.
def default_c0_bound(N: int, n: int) -> float:
    return 1.0 + np.sqrt(N / n) + 0.5


def mix_seed(master_seed: int, trial_index: int) -> int:
    """Derive a per-trial 64-bit seed from (master_seed, trial_index).

    splitmix64 finalizer applied to master_seed + golden-ratio increments;
    a fixed integer hash so trials shard reproducibly without coordination.
    Both arguments are taken as Python ints, so numpy integers hash alike.
    """
    master_seed, trial_index = operator.index(master_seed), operator.index(trial_index)
    mask = (1 << 64) - 1
    z = (master_seed + (trial_index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


@dataclass(frozen=True)
class EntryLaw:
    """A complex scalar entry distribution with 1/n variance scaling.

    declared_c0 is the declared margin 1 - |n E[X11^2]| keeping the law off
    a line through the origin; moment_diagnostics flags a (C2) violation when
    the estimated |n E[X11^2]| exceeds 1 - declared_c0. With the default 1,
    real-gaussian (|n E[X11^2]| = 1) is flagged.
    """

    kind: str = "complex-gaussian"
    declared_c0: float = 1.0

    def __post_init__(self):
        if self.kind not in ENTRY_LAW_KINDS:
            raise ValueError(f"unknown entry law kind {self.kind!r}")

    def sample(self, rng: np.random.Generator, size, n: int) -> np.ndarray:
        """Draw entries with variance 1/n from this law."""
        if self.kind == "complex-gaussian":
            # All real parts are drawn first, then all imaginary parts: that
            # order is what makes X a fixed function of the seed. Each is
            # drawn BLOCK rows at a time straight into out.
            scale = 1.0 / np.sqrt(2.0 * n)
            out = np.empty(size, dtype=complex)
            rows = np.atleast_2d(out)
            for part in (rows.real, rows.imag):
                for a, b in block_bounds(len(rows)):
                    part[a:b] = rng.standard_normal(part[a:b].shape)
                    part[a:b] *= scale
            return out
        if self.kind == "uniform-phase-modulus":
            phase = rng.uniform(0.0, 2.0 * np.pi, size)
            return np.exp(1j * phase) / np.sqrt(n)
        if self.kind == "two-point-complex":
            scale = 1.0 / np.sqrt(2.0 * n)
            re = rng.integers(0, 2, size) * 2.0 - 1.0
            im = rng.integers(0, 2, size) * 2.0 - 1.0
            return (re + 1j * im) * scale
        if self.kind == "real-gaussian":
            return rng.standard_normal(size) / np.sqrt(n) + 0j
        raise AssertionError(self.kind)


@dataclass(frozen=True)
class EnsembleSpec:
    """Dimensions (N rows, n columns), lag k, entry law and master seed."""

    n: int
    N: int
    k: int
    law: EntryLaw = field(default_factory=EntryLaw)
    master_seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.N < 1:
            raise ValueError(f"invalid dimensions N={self.N}, n={self.n}")
        if not 1 <= self.k < self.n:
            raise ValueError(f"lag k={self.k} must satisfy 1 <= k < n={self.n}")

    @property
    def gamma0(self) -> float:
        return self.N / self.n

    @property
    def gamma1(self) -> float:
        return self.k / self.n


@dataclass(frozen=True)
class SeededTrial:
    """One trial in a Monte Carlo run; the derived seed is a pure hash."""

    trial_index: int
    derived_seed: int

    @classmethod
    def from_master(cls, master_seed: int, trial_index: int) -> "SeededTrial":
        return cls(trial_index=trial_index, derived_seed=mix_seed(master_seed, trial_index))


def trial_seeds(master_seed: int, trials: int) -> list[int]:
    """The derived seeds of trials 0 .. trials-1 of master_seed, those
    sample_entry_matrix draws X from."""
    return [mix_seed(master_seed, i) for i in range(trials)]


def sample_entry_matrix(spec: EnsembleSpec, trial: SeededTrial | int) -> np.ndarray:
    """The N x n matrix X for one trial, bit-reproducible per (spec, trial)."""
    if not isinstance(trial, SeededTrial):
        trial = SeededTrial.from_master(spec.master_seed, trial)
    rng = np.random.Generator(np.random.PCG64(trial.derived_seed))
    return spec.law.sample(rng, (spec.N, spec.n), spec.n)


def build_autocov(X, k: int) -> np.ndarray:
    """Lag-k auto-covariance matrix Y = X A X* = sum_j x_{j+k} x_j*.

    Y is X[:, k:] @ X[:, :n-k].conj().T, which is X A X* without forming A,
    filled BLOCK columns at a time, so besides X and Y only a block of X's
    conjugate and one of Y are held. At one BLAS thread the entries equal
    those of the one-shot product bit for bit (block_bounds).
    """
    X = _as_matrix(X)
    N, n = X.shape
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    Y = np.empty((N, N), dtype=complex)
    for a, b in block_bounds(N):
        Y[:, a:b] = X[:, k:] @ X[a:b, : n - k].conj().T
    return Y


def autocov_companion(X, k: int) -> tuple[np.ndarray, int]:
    """(M, zeros): the N eigenvalues of Y = build_autocov(X, k) are those of
    the square matrix M followed by zeros exact zeros (companion_eigenvalues).

    Y = X_k X_0* with X_k = X[:, k:] and X_0 = X[:, :n-k], both N x (n-k).
    AB and BA share their nonzero spectra, so when n - k < N, M is the
    (n-k) x (n-k) matrix X_0* X_k, filled COMPANION_BLOCK rows at a time,
    and the N - (n-k) zeros are Y's structural atom. Otherwise M is Y itself
    and zeros is 0. M is a new array: a caller that drops X before calling
    companion_eigenvalues decomposes M without holding X.
    """
    X = _as_matrix(X)
    N, n = X.shape
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    m = n - k
    if m >= N:
        return build_autocov(X, k), 0
    P = np.empty((m, m), dtype=complex)
    for a, b in block_bounds(m, COMPANION_BLOCK):
        # Copied, then conjugated in place: a ufunc on the strided view would
        # also allocate an iteration buffer as large as the block. The del
        # frees the block before the next one is copied.
        block = X[:, a:b].copy()
        np.conjugate(block, out=block)
        P[a:b] = block.T @ X[:, k:]
        del block
    return P, N - m


def companion_eigenvalues(M, zeros: int) -> np.ndarray:
    """The eigenvalues of M, unordered, followed by zeros exact zeros."""
    return np.concatenate([eigenvalues(M), np.zeros(zeros, dtype=complex)])


def resolvent_singular_values(X, k: int, z_list) -> np.ndarray:
    """Singular values of Y - zI, Y = build_autocov(X, k), for each z in
    z_list: row i of the len(z_list) x N result holds those of z_list[i],
    descending.

    With m = n - k, Y = X_k X_0* uses only the columns C of X that
    X_0 = X[:, :m] and X_k = X[:, k:] take: all of X when k <= m, otherwise
    X_0 followed by X_k. Let d = C.shape[1]. When d < N, C = QR with Q an
    N x d matrix of orthonormal columns, so Y = Q M Q* with the d x d
    M = R[:, -m:] R[:, :m]*, while Y - zI is -zI on the complement of
    range(Q). Hence s(Y - zI) is s(M - zI_d) together with |z| repeated
    N - d times: one QR per X and one d x d SVD per z. When d >= N, M is Y
    itself.

    Only M is held through the SVDs: C and R are dropped once M is formed,
    and each z writes diag(M) - z into M's diagonal in place, from a saved
    copy of the diagonal. The entries are those of minus_identity(M, z) bit
    for bit, without a copy of M per z. X is not modified.
    """
    X = _as_matrix(X)
    N, n = X.shape
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    m = n - k
    d = n if k <= m else 2 * m
    if d >= N:
        d, M = N, build_autocov(X, k)
    else:
        C = X if k <= m else np.concatenate([X[:, :m], X[:, k:]], axis=1)
        R = qr_triangular_factor(C)
        M = R[:, -m:] @ R[:, :m].conj().T
        del C, R
    diagonal = M.diagonal().copy()
    out = np.empty((len(z_list), N))
    for row, z in zip(out, z_list):
        np.fill_diagonal(M, diagonal - z)
        row[:d] = singular_values(M)
        if d < N:
            row[d:] = abs(z)
            row[::-1].sort()  # ascending in reverse: row descends
    return out


def build_circular(X) -> np.ndarray:
    """Circular lag-1 variant Z = Y_1 + x_1 x_n* = X J X* (J cyclic)."""
    X = _as_matrix(X)
    if X.shape[1] < 2:
        raise ValueError("need at least two columns")
    Y1 = build_autocov(X, 1)
    return Y1 + np.outer(X[:, 0], X[:, -1].conj())


def build_linearization(X, z: complex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (N+n-k)-dimensional linearizations (H', H) of the resolvent.

    H' = [[z I_N, (X_{k+1}..X_n)], [(X_1..X_{n-k})*, I_{n-k}]]. H permutes
    the last n-k columns of H' (last k of the block moved to the front) when
    2k+1 <= n, and is H' itself otherwise. Singular multisets agree.
    Requires z != 0.
    """
    X = _as_matrix(X)
    N, n = X.shape
    if z == 0:
        raise ValueError("z = 0 is excluded")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    m = n - k
    H_prime = np.zeros((N + m, N + m), dtype=complex)
    np.fill_diagonal(H_prime[:N, :N], z)
    H_prime[:N, N:] = X[:, k:]
    H_prime[N:, :N] = X[:, :m].conj().T
    np.fill_diagonal(H_prime[N:, N:], 1.0)
    if 2 * k + 1 > n:
        return H_prime, H_prime
    # Block-column permutation: columns m-k..m-1 of the block first, then
    # 0..m-k-1.
    H = np.empty_like(H_prime)
    H[:, :N] = H_prime[:, :N]
    H[:, N:N + k] = H_prime[:, N + m - k:]
    H[:, N + k:] = H_prime[:, N:N + m - k]
    return H_prime, H


def hermitize(M, z: complex) -> np.ndarray:
    """Hermitian dilation [[0, M - zI], [(M - zI)*, 0]].

    Its eigenvalue multiset is {+-s_i(M - zI)}.
    """
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("hermitize requires a square matrix")
    N = M.shape[0]
    B = minus_identity(M, z)
    out = np.zeros((2 * N, 2 * N), dtype=complex)
    out[:N, N:] = B
    out[N:, :N] = B.conj().T
    return out


@dataclass
class MomentReport:
    """Monte Carlo moment estimates for an entry law at scale n."""

    mean: complex
    n_var: float
    abs_n_second_moment: float
    n2_fourth_moment: float
    se_second_moment: float
    violates_c2: bool


def moment_diagnostics(law: EntryLaw, n: int, sample_count: int = 100_000,
                       seed: int = 0) -> MomentReport:
    """Estimate the (C1)/(C2) moments of a law by direct sampling.

    Flags a (C2) violation when the |n E[X^2]| estimate minus three standard
    errors still exceeds 1 - declared_c0.
    """
    if sample_count < 10_000:
        raise ValueError("sample_count must be at least 10^4")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(mix_seed(seed, 0)))
    x = law.sample(rng, sample_count, n)
    mean = complex(x.mean())
    n_var = float(n * np.mean(np.abs(x - mean) ** 2))
    second = n * np.mean(x**2)
    se = float(n * np.sqrt(np.mean(np.abs(x**2 - np.mean(x**2)) ** 2) / sample_count))
    fourth = float(n**2 * np.mean(np.abs(x) ** 4))
    violates = abs(second) - 3.0 * se > 1.0 - law.declared_c0
    return MomentReport(
        mean=mean,
        n_var=n_var,
        abs_n_second_moment=float(abs(second)),
        n2_fourth_moment=fourth,
        se_second_moment=se,
        violates_c2=bool(violates),
    )

