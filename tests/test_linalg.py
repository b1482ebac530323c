from dataclasses import dataclass, field

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from autocov_spectra import linalg

# Residual tolerance for the eigen/SVD backend at desk scale (dim <= 2048).
TOL_EIG = 1e-9

# Singular values below RANK_TOL * s_1 count as zero.
RANK_TOL = 1e-8


@dataclass
class InterlacingReport:
    """Outcome of an interlacing check with per-index slack."""

    passed: bool
    margins: np.ndarray = field(repr=False)
    worst_margin: float = 0.0


def perturbation_interlacing_check(M1, M2, r: int, tol: float = 1e-10) -> InterlacingReport:
    """Check the rank-r perturbation interlacing s_i(M1) >= s_{i+r}(M2).

    The inequality (and its swap) follows from s_{i+j-1}(A+B) <= s_i(A) + s_j(B)
    when rank(M1 - M2) <= r; that rank precondition is verified numerically
    before asserting.
    """
    M1, M2 = linalg._as_matrix(M1), linalg._as_matrix(M2)
    if M1.shape != M2.shape:
        raise ValueError(f"shape mismatch: {M1.shape} vs {M2.shape}")
    diff_s = linalg.singular_values(M1 - M2)
    scale = max(linalg.operator_norm(M1), linalg.operator_norm(M2), 1.0)
    if diff_s.size > r and diff_s[r] > RANK_TOL * scale:
        raise ValueError(f"rank(M1 - M2) exceeds {r} (s_{r + 1} = {diff_s[r]:.3e})")
    s1 = linalg.singular_values(M1)
    s2 = linalg.singular_values(M2)
    m = s1.size
    margins = []
    for i in range(m - r):
        margins.append(s1[i] - s2[i + r])
        margins.append(s2[i] - s1[i + r])
    margins = np.array(margins) if margins else np.zeros(0)
    worst = float(margins.min()) if margins.size else 0.0
    return InterlacingReport(passed=bool(worst >= -tol * scale), margins=margins, worst_margin=worst)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestEigenvalues:
    def test_identity(self):
        vals = linalg.eigenvalues(np.eye(3))
        assert np.allclose(sorted(vals.real), [1, 1, 1])
        assert np.allclose(vals.imag, 0)

    def test_diagonal(self):
        vals = linalg.eigenvalues(np.diag([2j, -1]))
        assert sorted(vals, key=lambda v: v.real) == pytest.approx([-1, 2j])

    def test_companion_matrix_golden_ratio(self):
        # Roots of x^2 - x - 1 via the quadratic formula oracle.
        companion = np.array([[1.0, 1.0], [1.0, 0.0]])
        phi = (1 + np.sqrt(5)) / 2
        vals = np.sort(linalg.eigenvalues(companion).real)
        assert vals == pytest.approx([1 - phi, phi], abs=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.eigenvalues(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            linalg.eigenvalues(np.array([[np.nan, 0], [0, 1]]))

    def test_residual_contract(self):
        rng = np.random.default_rng(0)
        M = random_complex(rng, (12, 12))
        norm = linalg.operator_norm(M)
        for lam in linalg.eigenvalues(M):
            assert linalg.least_singular_value(M - lam * np.eye(12)) <= TOL_EIG * norm * 12


class TestSingularValues:
    def test_identity(self):
        assert linalg.singular_values(np.eye(2)) == pytest.approx([1, 1])

    def test_rank_one_norm_product(self):
        u = np.array([2.0, 0, 0])
        v = np.array([0, 3.0, 0, 0])
        s = linalg.singular_values(np.outer(u, v.conj()))
        assert s[0] == pytest.approx(6.0)
        assert np.all(s[1:] < 1e-12)

    def test_matches_hermitian_eigen_oracle(self):
        rng = np.random.default_rng(1)
        M = random_complex(rng, (5, 4))
        gram_eigs = np.linalg.eigvalsh(M.conj().T @ M)[::-1]
        oracle = np.sqrt(np.clip(gram_eigs, 0, None))
        assert linalg.singular_values(M) == pytest.approx(oracle, abs=1e-10)

    def test_adjoint_invariance(self):
        rng = np.random.default_rng(2)
        M = random_complex(rng, (6, 3))
        assert linalg.singular_values(M) == pytest.approx(
            linalg.singular_values(M.conj().T), abs=1e-10)


class TestBackendOracle:
    """numpy.linalg runs the eigensolves and SVDs; scipy.linalg, which calls
    the same LAPACK drivers (zgeev, zgesdd), is the oracle."""

    @staticmethod
    def tolerance(M):
        return 1e-13 * np.linalg.norm(M, 2)

    @pytest.mark.parametrize("n", [1, 7, 48, 128])
    def test_eigenvalues_match_scipy(self, n):
        M = random_complex(np.random.default_rng(n), (n, n))
        ours = np.sort_complex(linalg.eigenvalues(M))
        oracle = np.sort_complex(scipy.linalg.eigvals(M))
        assert np.max(np.abs(ours - oracle)) <= self.tolerance(M)

    @pytest.mark.parametrize("shape", [(48, 48), (20, 48), (48, 20), (128, 128)])
    def test_singular_values_match_scipy(self, shape):
        M = random_complex(np.random.default_rng(shape[0] + shape[1]), shape)
        ours = linalg.singular_values(M)
        assert ours.shape == (min(shape),)
        assert np.max(np.abs(ours - scipy.linalg.svdvals(M))) <= self.tolerance(M)


class TestLeastSingularValue:
    def test_diagonal(self):
        assert linalg.least_singular_value(np.diag([3.0, 0.5])) == pytest.approx(0.5)

    def test_rank_deficient(self):
        M = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert linalg.least_singular_value(M) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_norm_identity(self):
        rng = np.random.default_rng(3)
        M = random_complex(rng, (6, 6)) + 3 * np.eye(6)
        lsv = linalg.least_singular_value(M)
        inv_norm = linalg.operator_norm(np.linalg.inv(M))
        assert lsv * inv_norm == pytest.approx(1.0, rel=1e-8)


class TestQrTriangularFactor:
    @pytest.mark.parametrize("shape", [(30, 12), (12, 12), (8, 20)])
    def test_economic_factor_keeps_column_products(self, shape):
        rng = np.random.default_rng(5)
        M = random_complex(rng, shape)
        R = linalg.qr_triangular_factor(M)
        assert R.shape == (min(shape), shape[1])
        assert np.array_equal(R, np.triu(R))
        # M = QR with Q* Q = I, so M* M = R* R.
        assert np.max(np.abs(R.conj().T @ R - M.conj().T @ M)) <= 1e-12


class TestMinusIdentity:
    @pytest.mark.parametrize("N", [1, 7, 64])
    @pytest.mark.parametrize("z", [0.5, 1 + 1j, -0.3j, -2.0, 0j])
    def test_equals_subtracting_z_times_the_identity(self, N, z):
        M = random_complex(np.random.default_rng(N), (N, N))
        before = M.copy()
        assert np.array_equal(linalg.minus_identity(M, z), M - z * np.eye(N))
        assert np.array_equal(M, before)

    def test_requires_a_square_matrix(self):
        with pytest.raises(ValueError):
            linalg.minus_identity(np.ones((2, 3), dtype=complex), 1.0)


class TestOneBlasThread:
    @pytest.fixture
    def two_threads(self):
        """Every loaded OpenBLAS at two threads; the original counts restored after."""
        controls = linalg._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded")
        original = linalg.blas_thread_counts()
        for _, set_threads in controls.values():
            set_threads(2)
        yield {name: 2 for name in controls}
        for name, (_, set_threads) in controls.items():
            set_threads(original[name])

    def test_one_thread_inside_and_previous_count_after(self, two_threads):
        assert linalg.blas_thread_counts() == two_threads
        with linalg.one_blas_thread():
            assert linalg.blas_thread_counts() == {name: 1 for name in two_threads}
        assert linalg.blas_thread_counts() == two_threads

    def test_previous_count_restored_after_an_exception(self, two_threads):
        with pytest.raises(KeyError):
            with linalg.one_blas_thread():
                raise KeyError("boom")
        assert linalg.blas_thread_counts() == two_threads

    def test_no_op_when_discovery_finds_nothing(self, two_threads, monkeypatch):
        discover = linalg._openblas_thread_controls

        def real_counts():
            return {name: get() for name, (get, _) in discover().items()}

        monkeypatch.setattr(linalg, "_openblas_thread_controls", dict)
        with linalg.one_blas_thread():
            assert linalg.blas_thread_counts() == {}
            assert real_counts() == two_threads
        assert real_counts() == two_threads


class TestInterlacing:
    def test_identical_matrices(self):
        M = np.diag([3.0, 2.0, 1.0])
        rep = perturbation_interlacing_check(M, M, r=0)
        assert rep.passed and rep.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_rank_one_perturbation(self):
        rng = np.random.default_rng(7)
        M1 = random_complex(rng, (6, 6))
        u, v = random_complex(rng, 6), random_complex(rng, 6)
        M2 = M1 + np.outer(u, v.conj())
        assert perturbation_interlacing_check(M1, M2, r=1).passed

    def test_rank_precondition_enforced(self):
        rng = np.random.default_rng(8)
        M1 = random_complex(rng, (5, 5))
        M2 = random_complex(rng, (5, 5))
        with pytest.raises(ValueError, match="rank"):
            perturbation_interlacing_check(M1, M2, r=1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            perturbation_interlacing_check(np.eye(2), np.eye(3), r=0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_rank_one_interlacing_property(self, seed):
        rng = np.random.default_rng(seed)
        M1 = random_complex(rng, (6, 6))
        M2 = M1 + np.outer(random_complex(rng, 6), random_complex(rng, 6).conj())
        s1 = linalg.singular_values(M1)
        s2 = linalg.singular_values(M2)
        scale = max(s1[0], s2[0], 1.0)
        for i in range(5):
            assert s1[i] >= s2[i + 1] - 1e-10 * scale
            assert s2[i] >= s1[i + 1] - 1e-10 * scale


class TestNorms:
    def test_identity(self):
        n = 7
        assert linalg.operator_norm(np.eye(n)) == pytest.approx(1.0)

    def test_rank_one(self):
        rng = np.random.default_rng(10)
        u, v = random_complex(rng, 4), random_complex(rng, 5)
        M = np.outer(u, v.conj())
        expected = np.linalg.norm(u) * np.linalg.norm(v)
        assert linalg.operator_norm(M) == pytest.approx(expected)

    def test_norm_inequality_chain(self):
        rng = np.random.default_rng(11)
        M = random_complex(rng, (5, 5))
        op, hs = linalg.operator_norm(M), np.linalg.norm(M)
        assert op <= hs <= np.sqrt(5) * op + 1e-12
