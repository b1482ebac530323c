import tracemalloc

import numpy as np
import pytest

from autocov_spectra import ensembles, linalg
from autocov_spectra.ensembles import (
    BLOCK,
    EnsembleSpec,
    EntryLaw,
    SeededTrial,
    autocov_companion,
    block_bounds,
    build_autocov,
    build_circular,
    build_linearization,
    companion_eigenvalues,
    hermitize,
    mix_seed,
    moment_diagnostics,
    resolvent_singular_values,
    sample_entry_matrix,
    trial_seeds,
)


def shift_matrix(n: int, k: int) -> np.ndarray:
    """The n x n nilpotent k-step shift A: entry (i, j) is 1 iff i = j + k.
    The oracle for build_autocov, Y = X A X*, which never forms A."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    A = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - k)
    A[idx + k, idx] = 1.0
    return A


def test_seed_mixing_is_pure_and_spread():
    assert mix_seed(1, 0) == mix_seed(1, 0)
    assert mix_seed(1, 0) != mix_seed(1, 1)
    assert mix_seed(1, 0) != mix_seed(2, 0)


def test_seed_mixing_takes_numpy_integers():
    # Python-int seeds hash as before; numpy integers hash like them instead
    # of overflowing in numpy arithmetic.
    assert mix_seed(5, 0) == 7134611160154358618
    assert mix_seed(2**63 + 5, 7) == 17032139662024934364
    assert mix_seed(np.int64(5), 0) == mix_seed(5, 0)
    assert mix_seed(np.uint64(2**63 + 5), np.int32(7)) == mix_seed(2**63 + 5, 7)
    want = sample_entry_matrix(EnsembleSpec(n=8, N=6, k=1, master_seed=5), 2)
    got = sample_entry_matrix(EnsembleSpec(n=8, N=6, k=1, master_seed=np.int64(5)),
                              np.int64(2))
    assert np.array_equal(got, want)
    with pytest.raises(TypeError):
        mix_seed(1.5, 0)


# The one-shot formulas the blocked sampler and products replaced, kept as
# oracles: the blocked results must equal them bit for bit.
def one_shot_sample(spec, trial_index):
    rng = np.random.Generator(np.random.PCG64(mix_seed(spec.master_seed, trial_index)))
    size, scale = (spec.N, spec.n), 1.0 / np.sqrt(2.0 * spec.n)
    out = np.empty(size, dtype=complex)
    out.real = rng.standard_normal(size)
    out.real *= scale
    out.imag = rng.standard_normal(size)
    out.imag *= scale
    return out


def one_shot_autocov(X, k):
    return X[:, k:] @ X[:, : X.shape[1] - k].conj().T


def autocov_eigenvalues(X, k):
    """The N eigenvalues of Y = build_autocov(X, k), unordered, from
    autocov_companion: large-k's two calls, with X held throughout."""
    return companion_eigenvalues(*autocov_companion(X, k))


def one_shot_autocov_eigenvalues(X, k):
    N, n = X.shape
    m = n - k
    if m >= N:
        return linalg.eigenvalues(one_shot_autocov(X, k))
    nonzero = linalg.eigenvalues(X[:, :m].conj().T @ X[:, k:])
    return np.concatenate([nonzero, np.zeros(N - m, dtype=complex)])


# (n, N, k): N and m = n - k at 0, 1 and 63 mod 64, m = 1 mod 16 (the
# companion's block width) but not mod 64, shapes below 64, k > n/2, and m
# both below and above N.
BLOCKED_SHAPES = [
    (40, 30, 3),     # below 64, m > N
    (50, 60, 30),    # below 64, k > n/2, m < N
    (129, 128, 1),   # N, m = 0 mod 64, m = N
    (130, 129, 1),   # N, m = 1 mod 64: one-wide tails
    (192, 191, 1),   # N, m = 63 mod 64
    (257, 320, 1),   # N, m = 0 mod 64, m < N
    (200, 193, 8),   # N = 1, m = 0 mod 64, m < N
    (300, 257, 171),  # k > n/2, N, m = 1 mod 64, m < N
    (200, 127, 137),  # k > n/2, N, m = 63 mod 64, m < N
    (66, 191, 1),    # m = 1 mod 64 far below N = 63 mod 64
    (400, 65, 1),    # N = 1 mod 64, m far above N
    (100, 64, 99),   # m = 1: a 1 x 1 X_0* X_k
    (130, 200, 49),  # k > n/2, m = 81 = 1 mod 16, 17 mod 64, m < N
]


@pytest.mark.parametrize("count,bounds", [
    (0, []), (1, [(0, 1)]), (63, [(0, 63)]), (64, [(0, 64)]), (65, [(0, 65)]),
    (66, [(0, 64), (64, 66)]), (129, [(0, 64), (64, 129)]),
    (191, [(0, 64), (64, 128), (128, 191)]),
])
def test_block_bounds(count, bounds):
    assert block_bounds(count) == bounds


@pytest.mark.parametrize("count,bounds", [
    (16, [(0, 16)]), (17, [(0, 17)]), (34, [(0, 16), (16, 32), (32, 34)]),
    (81, [(0, 16), (16, 32), (32, 48), (48, 64), (64, 81)]),
])
def test_block_bounds_of_width_16(count, bounds):
    # The companion's width: a one-wide tail still joins the block before it.
    assert block_bounds(count, 16) == bounds


class TestBlockedBitIdentity:
    """The blocked sampler and products against the one-shot oracles, at one
    BLAS thread (as the CLI runs) and at the default thread count."""

    @pytest.fixture(params=["one-thread", "default-threads"])
    def blas(self, request):
        if request.param == "one-thread":
            with linalg.one_blas_thread():
                yield
        else:
            yield

    @pytest.mark.parametrize("n,N,k", BLOCKED_SHAPES)
    def test_matches_one_shot(self, blas, n, N, k):
        spec = EnsembleSpec(n=n, N=N, k=k, master_seed=n * 1000 + N)
        X = sample_entry_matrix(spec, 1)
        assert np.array_equal(X.view(np.uint64), one_shot_sample(spec, 1).view(np.uint64))
        assert np.array_equal(build_autocov(X, k), one_shot_autocov(X, k))
        assert np.array_equal(autocov_eigenvalues(X, k), one_shot_autocov_eigenvalues(X, k))


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw above the start of the
    call; numpy reports its array buffers to tracemalloc."""
    fn(*args)  # warm up: first calls allocate caches of their own
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# Room for the Python objects and ufunc buffers around the arrays.
PEAK_SLACK = 64 * 1024


class TestPeakMemory:
    """One trial holds its output plus at most two blocks. The one-shot
    sampler held a float copy of all of X (1.5 X) and the one-shot products a
    conjugated copy of X_0 (2 Y at n - k = N)."""

    def test_sampler(self):
        spec = EnsembleSpec(n=128, N=512, k=1, master_seed=4)
        X, peak = traced_peak(sample_entry_matrix, spec, 0)
        assert peak <= X.nbytes + 2 * BLOCK * spec.n * 16 + PEAK_SLACK

    def test_build_autocov(self):
        X = sample_entry_matrix(EnsembleSpec(n=321, N=320, k=1, master_seed=5), 0)
        N, m = 320, 320
        Y, peak = traced_peak(build_autocov, X, 1)
        # A block of X_0's conjugate (BLOCK x m) and one of Y (N x BLOCK).
        assert peak <= Y.nbytes + (BLOCK * m + N * BLOCK) * 16 + PEAK_SLACK

    def test_autocov_eigenvalues_product(self, monkeypatch):
        X = sample_entry_matrix(EnsembleSpec(n=257, N=512, k=1, master_seed=6), 0)
        N, m = 512, 256
        products = []
        monkeypatch.setattr(ensembles, "eigenvalues",
                            lambda P: products.append(P) or np.zeros(len(P), complex))
        _, peak = traced_peak(autocov_eigenvalues, X, 1)
        # X_0* X_k (m x m), a block of X_0's conjugate (N x 16) and one of
        # the product (16 x m); the returned N eigenvalues are smaller.
        assert peak <= products[-1].nbytes + (N * 16 + 16 * m) * 16 + PEAK_SLACK

    @pytest.mark.parametrize("n,N,k", [(128, 192, 64), (128, 128, 1)],
                             ids=["core", "full"])
    def test_resolvent_svds_hold_one_matrix(self, n, N, k, monkeypatch):
        # At each SVD only the d x d matrix it decomposes is held: not the
        # QR factor R, nor a shifted copy per z (nor, when d >= N, a copy of
        # Y). X is the caller's.
        X = sample_entry_matrix(EnsembleSpec(n=n, N=N, k=k, master_seed=8), 0)
        held, original = [], linalg.singular_values

        def recording(M):
            held.append((len(M), tracemalloc.get_traced_memory()[0] - base))
            return original(M)

        resolvent_singular_values(X, k, [0.5])  # first-call caches stay untraced
        monkeypatch.setattr(ensembles, "singular_values", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            resolvent_singular_values(X, k, [0.5, 1j, 2.0])
        finally:
            tracemalloc.stop()
        assert len(held) == 3
        for d, nbytes in held:
            assert nbytes <= d * d * 16 + PEAK_SLACK

    def test_build_linearization(self):
        # The two outputs alone: no z I_N, I_m or permuted column block.
        X = sample_entry_matrix(EnsembleSpec(n=256, N=256, k=1, master_seed=7), 0)
        (H_prime, H), peak = traced_peak(build_linearization, X, 1.0, 1)
        assert peak <= H_prime.nbytes + H.nbytes + PEAK_SLACK


class TestSampling:
    def test_determinism(self):
        spec = EnsembleSpec(n=16, N=12, k=2, master_seed=42)
        X1 = sample_entry_matrix(spec, 3)
        X2 = sample_entry_matrix(spec, SeededTrial.from_master(42, 3))
        assert np.array_equal(X1, X2)

    def test_trial_seeds_are_the_sampled_seeds(self):
        assert trial_seeds(42, 3) == [SeededTrial.from_master(42, i).derived_seed
                                      for i in range(3)]
        assert trial_seeds(42, 0) == []

    def test_trials_differ(self):
        spec = EnsembleSpec(n=16, N=12, k=2, master_seed=42)
        assert not np.array_equal(sample_entry_matrix(spec, 0), sample_entry_matrix(spec, 1))

    def test_sample_mean_clt_band(self):
        n = N = 2048
        spec = EnsembleSpec(n=n, N=N, k=1, master_seed=7)
        X = sample_entry_matrix(spec, 0)
        # Mean of N*n entries with variance 1/n: std = 1/(n sqrt(N)).
        assert abs(X.mean()) <= 3.0 / (n * np.sqrt(N))

    def test_operator_norm_bai_yin(self):
        spec = EnsembleSpec(n=512, N=512, k=1, master_seed=8)
        X = sample_entry_matrix(spec, 0)
        assert 1.8 <= linalg.operator_norm(X) <= 2.2

    @pytest.mark.parametrize("size,n", [((100, 100), 100), ((1200, 800), 800),
                                        ((7, 3), 3), (10_000, 64)])
    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
    def test_complex_gaussian_matches_the_two_draw_expression(self, size, n, seed):
        def reference(rng):
            scale = 1.0 / np.sqrt(2.0 * n)
            return rng.standard_normal(size) * scale + 1j * rng.standard_normal(size) * scale

        want = reference(np.random.Generator(np.random.PCG64(seed)))
        got = EntryLaw().sample(np.random.Generator(np.random.PCG64(seed)), size, n)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_invalid_lag_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n=8, N=8, k=8)
        with pytest.raises(ValueError):
            EnsembleSpec(n=8, N=8, k=0)


class TestShiftMatrix:
    def test_subdiagonal_action(self):
        A = shift_matrix(4, 1)
        e1 = np.zeros(4)
        e1[0] = 1
        out = A @ e1
        assert out[1] == 1 and np.count_nonzero(out) == 1

    def test_rank(self):
        assert np.linalg.matrix_rank(shift_matrix(10, 3), rtol=1e-8) == 7

    def test_nilpotent(self):
        A = shift_matrix(4, 1)
        assert np.all(np.linalg.matrix_power(A, 4) == 0)

    def test_gram_products_diagonal(self):
        A = shift_matrix(9, 2)
        AAs = A @ A.conj().T
        AsA = A.conj().T @ A
        assert np.allclose(AAs, np.diag(np.diag(AAs)))
        assert np.allclose(AsA, np.diag(np.diag(AsA)))
        assert np.trace(AAs).real == 7 and np.trace(AsA).real == 7

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            shift_matrix(4, 4)


class TestAutocov:
    def test_lag_sum_expansion(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        Y = build_autocov(X, 1)
        expected = (np.outer(X[:, 1], X[:, 0].conj())
                    + np.outer(X[:, 2], X[:, 1].conj()))
        assert np.allclose(Y, expected)

    def test_max_lag_single_term(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        Y = build_autocov(X, 3)
        assert np.allclose(Y, np.outer(X[:, 3], X[:, 0].conj()))
        assert np.linalg.matrix_rank(Y, rtol=1e-8) <= 1

    @pytest.mark.parametrize("n,k", [(6, 1), (9, 2), (9, 8), (12, 5)])
    def test_dual_formula(self, n, k):
        rng = np.random.default_rng(n * 31 + k)
        X = (rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n))) / np.sqrt(n)
        direct = X @ shift_matrix(n, k) @ X.conj().T
        assert np.max(np.abs(build_autocov(X, k) - direct)) <= 1e-12


class TestCircular:
    def test_rank_one_difference(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        Z = build_circular(X)
        diff = Z - build_autocov(X, 1)
        assert np.allclose(diff, np.outer(X[:, 0], X[:, -1].conj()))
        s = linalg.singular_values(diff)
        assert s[0] == pytest.approx(np.linalg.norm(X[:, 0]) * np.linalg.norm(X[:, -1]))
        assert np.all(s[1:] < 1e-12)

    def test_cyclic_permutation_form(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        J = shift_matrix(5, 1)
        J[0, -1] = 1.0
        assert np.allclose(build_circular(X), X @ J @ X.conj().T)


class TestAutocovEigenvalues:
    @pytest.mark.parametrize("n,N,k", [
        (32, 48, 16),   # wide, N > n - k
        (64, 64, 32),   # square, large lag
        (48, 96, 40),   # wide with a large atom
    ])
    def test_reduction_matches_full_eigensolve(self, n, N, k):
        X = sample_entry_matrix(EnsembleSpec(n=n, N=N, k=k, master_seed=n + k), 0)
        fast = autocov_eigenvalues(X, k)
        full = linalg.eigenvalues(build_autocov(X, k))
        assert fast.shape == (N,)
        # N - (n-k) exact zeros; the full solve puts them inside the atom.
        assert np.count_nonzero(fast == 0) == N - (n - k)
        in_atom = np.abs(full) <= 1e-8
        assert np.count_nonzero(in_atom) == N - (n - k)
        r_fast = np.sort(np.abs(fast))
        r_full = np.sort(np.where(in_atom, 0.0, np.abs(full)))
        assert np.max(np.abs(r_fast - r_full)) <= 1e-12
        nz_fast, nz_full = fast[fast != 0], full[~in_atom]
        assert np.max(np.min(np.abs(nz_fast[:, None] - nz_full[None, :]), axis=1)) <= 1e-10

    def test_full_eigensolve_when_lag_leaves_n_minus_k_at_least_N(self):
        X = sample_entry_matrix(EnsembleSpec(n=64, N=16, k=32, master_seed=3), 0)
        assert np.array_equal(autocov_eigenvalues(X, 32),
                              linalg.eigenvalues(build_autocov(X, 32)))

    @pytest.mark.parametrize("n,N,k", [(32, 48, 16), (64, 16, 32)],
                             ids=["companion", "full"])
    def test_companion_is_a_new_array(self, n, N, k):
        # The caller may drop X and keep M: M shares no memory with X.
        X = sample_entry_matrix(EnsembleSpec(n=n, N=N, k=k, master_seed=5), 0)
        M, zeros = autocov_companion(X, k)
        m = min(n - k, N)
        assert M.shape == (m, m) and zeros == N - m
        assert not np.shares_memory(M, X)

    @pytest.mark.parametrize("k", [0, 8])
    def test_lag_out_of_range(self, k):
        with pytest.raises(ValueError):
            autocov_eigenvalues(np.ones((4, 8), dtype=complex), k)


class TestResolventSingularValues:
    Z_LIST = [0.5, 1 + 1j, -0.3j]

    @pytest.mark.parametrize("n,N,k", [
        (32, 48, 16),   # k = n - k: C = X, d = n
        (32, 48, 8),    # k < n - k
        (32, 48, 24),   # k > n - k: the middle columns drop out, d = 16
        (64, 64, 40),   # square, yet d = 48 < N
        (40, 200, 30),  # very wide, d = 20
        (64, 16, 32),   # d = 64 >= N: Y - zI itself is decomposed
        (24, 24, 1),    # d = n = N, as in lsv-tail: decomposed as well
    ])
    def test_matches_svd_of_full_resolvent(self, n, N, k):
        X = sample_entry_matrix(EnsembleSpec(n=n, N=N, k=k, master_seed=n + N + k), 0)
        Y = build_autocov(X, k)
        d = min(n if 2 * k <= n else 2 * (n - k), N)
        got = resolvent_singular_values(X, k, self.Z_LIST)
        assert got.shape == (len(self.Z_LIST), N)
        for s, z in zip(got, self.Z_LIST):
            full = linalg.singular_values(Y - z * np.eye(N))
            assert np.all(np.diff(s) <= 0)
            if d == N:
                assert np.array_equal(s, full)
            else:
                scale = linalg.operator_norm(Y) + abs(z)
                assert np.max(np.abs(s - full)) <= 1e-13 * scale

    @pytest.mark.parametrize("n,N,k", [(40, 60, 20), (20, 20, 1)], ids=["core", "full"])
    def test_in_place_shift_matches_minus_identity(self, n, N, k):
        # Each row is s(minus_identity(M, z)) bit for bit, for the d x d core
        # M (with |z| for the rest) or for Y itself; shifting M in place
        # carries nothing from one z to the next, and X is left as it was.
        X = sample_entry_matrix(EnsembleSpec(n=n, N=N, k=k, master_seed=17), 0)
        before = X.copy()
        z_list = [0.5 + 0.25j, -1j, 0.5 + 0.25j]
        got = resolvent_singular_values(X, k, z_list)
        if n < N:  # k <= n - k, so C = X and d = n
            R = linalg.qr_triangular_factor(X)
            M = R[:, k:] @ R[:, : n - k].conj().T
        else:
            M = build_autocov(X, k)
        for row, z in zip(got, z_list):
            s = linalg.singular_values(linalg.minus_identity(M, z))
            want = np.sort(np.concatenate([s, np.full(N - len(M), abs(z))]))[::-1]
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(got[0].view(np.uint64), got[2].view(np.uint64))
        assert np.array_equal(X.view(np.uint64), before.view(np.uint64))

    def test_lag_out_of_range(self):
        with pytest.raises(ValueError):
            resolvent_singular_values(np.ones((4, 8), dtype=complex), 8, [1.0])


def one_shot_linearization(X, z, k):
    """Reference: H' from z I_N and I_m, and H from H' by a column index."""
    N, n = X.shape
    m = n - k
    H_prime = np.zeros((N + m, N + m), dtype=complex)
    H_prime[:N, :N] = z * np.eye(N)
    H_prime[:N, N:] = X[:, k:]
    H_prime[N:, :N] = X[:, :m].conj().T
    H_prime[N:, N:] = np.eye(m)
    if 2 * k + 1 > n:
        return H_prime, H_prime.copy()
    perm = np.concatenate([np.arange(m - k, m), np.arange(m - k)])
    H = H_prime.copy()
    H[:, N:] = H_prime[:, N:][:, perm]
    return H_prime, H


class TestLinearization:
    # array_equal takes -0.0 == 0.0: z * np.eye(N) writes -0.0 off the
    # diagonal when Re z < 0, where build_linearization leaves 0.0.
    @pytest.mark.parametrize("n,N,k", [(256, 256, 1), (64, 80, 5), (64, 48, 40),
                                       (30, 30, 14), (30, 30, 15), (3, 2, 1)])
    @pytest.mark.parametrize("z", [1.0, -0.5 + 0.25j, -2.0, 0.3j])
    def test_matches_one_shot(self, n, N, k, z):
        X = sample_entry_matrix(EnsembleSpec(n=n, N=N, k=k, master_seed=11), 0)
        for got, expected in zip(build_linearization(X, z, k),
                                 one_shot_linearization(X, z, k)):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("k,z", [(1, 1 + 0j), (5, 1j), (20, -0.5 + 0j), (40, 1 + 0j)])
    def test_structural_relations(self, k, z):
        spec = EnsembleSpec(n=64, N=64, k=k, master_seed=9)
        X = sample_entry_matrix(spec, 0)
        H_prime, H = build_linearization(X, z, k)
        s_Hp = linalg.singular_values(H_prime)
        s_H = linalg.singular_values(H)
        assert np.max(np.abs(s_H - s_Hp)) <= 1e-10 * s_Hp[0]
        Y = build_autocov(X, k)
        lsv_res = linalg.least_singular_value(Y - z * np.eye(64))
        assert s_Hp[-1] <= lsv_res + 1e-12
        assert s_H[0] <= abs(z) + 1 + linalg.operator_norm(X) + 1e-12

    def test_large_k_branch_is_identity(self):
        spec = EnsembleSpec(n=64, N=32, k=40, master_seed=10)
        X = sample_entry_matrix(spec, 0)
        H_prime, H = build_linearization(X, 1.0, 40)
        assert np.array_equal(H_prime, H)

    def test_z_zero_rejected(self):
        X = np.ones((3, 3), dtype=complex)
        with pytest.raises(ValueError):
            build_linearization(X, 0.0, 1)


class TestHermitize:
    def test_zero_offdiagonal(self):
        z = 2 - 1j
        out = hermitize(z * np.eye(3), z)
        assert np.allclose(out, 0)
        assert np.allclose(linalg.eigenvalues(out), 0)

    def test_hermitian_exact(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        out = hermitize(M, 0.3 + 0.7j)
        assert np.max(np.abs(out - out.conj().T)) == 0.0

    def test_spectrum_is_plus_minus_singular_values(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        z = 0.4 - 0.2j
        eigs = np.sort(np.linalg.eigvalsh(hermitize(M, z)))
        s = linalg.singular_values(M - z * np.eye(8))
        expected = np.sort(np.concatenate([s, -s]))
        assert eigs == pytest.approx(expected, abs=1e-9)


class TestMomentDiagnostics:
    def test_complex_gaussian(self):
        report = moment_diagnostics(EntryLaw("complex-gaussian"), n=50, seed=1)
        assert abs(report.mean) < 0.01
        assert report.n_var == pytest.approx(1.0, abs=0.05)
        assert report.abs_n_second_moment < 0.05
        assert report.n2_fourth_moment == pytest.approx(2.0, abs=0.1)
        assert not report.violates_c2

    def test_uniform_phase_modulus(self):
        report = moment_diagnostics(EntryLaw("uniform-phase-modulus"), n=50, seed=2)
        assert report.n_var == pytest.approx(1.0, abs=0.05)
        assert report.n2_fourth_moment == pytest.approx(1.0, abs=1e-9)
        assert not report.violates_c2

    def test_two_point_complex(self):
        report = moment_diagnostics(EntryLaw("two-point-complex"), n=50, seed=3)
        assert report.n_var == pytest.approx(1.0, abs=0.05)
        assert not report.violates_c2

    def test_real_gaussian_flagged(self):
        report = moment_diagnostics(EntryLaw("real-gaussian", declared_c0=0.5), n=50, seed=4)
        assert report.abs_n_second_moment == pytest.approx(1.0, abs=0.05)
        assert report.violates_c2

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            moment_diagnostics(EntryLaw(), n=10, sample_count=100)
