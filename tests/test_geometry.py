import itertools

import numpy as np
import pytest
from scipy.spatial import cKDTree

from autocov_spectra import geometry
from autocov_spectra import linalg
from autocov_spectra.geometry import (
    CompressibilityParams,
    SmallBallEstimate,
    berry_esseen_bound,
    compressibility_distance,
    is_compressible,
    joint_spread_set,
    log_potential,
    sample_incompressible,
    small_ball_estimate,
    spread_set,
)


def exhaustive_distance(u, theta):
    """Minimum over all support sets of size floor(theta n)."""
    n = u.size
    m = int(np.floor(theta * n))
    best = 2.0
    for support in itertools.combinations(range(n), m):
        norm = np.linalg.norm(u[list(support)])
        best = min(best, np.sqrt(max(0.0, 2.0 - 2.0 * norm)))
    return best


def random_unit(rng, n):
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return u / np.linalg.norm(u)


class TestCompressibilityDistance:
    def test_sparse_input_is_at_distance_zero(self):
        e1 = np.zeros(8, dtype=complex)
        e1[0] = 1.0
        assert compressibility_distance(e1, 1 / 8) == pytest.approx(0.0, abs=1e-12)

    def test_flat_vector(self):
        n = 8
        u = np.ones(n, dtype=complex) / np.sqrt(n)
        assert compressibility_distance(u, 0.25) == pytest.approx(1.0)

    def test_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(4, 9))
            u = random_unit(rng, n)
            for theta in (0.25, 0.5):
                if int(np.floor(theta * n)) < 1:
                    continue
                assert compressibility_distance(u, theta) == pytest.approx(
                    exhaustive_distance(u, theta), abs=1e-12)

    def test_permutation_and_phase_invariance(self):
        rng = np.random.default_rng(1)
        u = random_unit(rng, 10)
        d = compressibility_distance(u, 0.3)
        perm = rng.permutation(10)
        assert compressibility_distance(u[perm], 0.3) == pytest.approx(d, abs=1e-12)
        assert compressibility_distance(np.exp(0.7j) * u, 0.3) == pytest.approx(d, abs=1e-12)

    def test_zero_support_rejected(self):
        u = np.zeros(4, dtype=complex)
        u[0] = 1.0
        with pytest.raises(ValueError):
            compressibility_distance(u, 0.1)


class TestSpreadSets:
    def test_flat_vector_all_qualify(self):
        n = 16
        u = np.ones(n, dtype=complex) / np.sqrt(n)
        J = spread_set(u, CompressibilityParams(theta=0.5, rho=0.5))
        assert J.size == n

    def test_spike_is_compressible_no_bound_claim(self):
        e1 = np.zeros(16, dtype=complex)
        e1[0] = 1.0
        params = CompressibilityParams(theta=0.25, rho=0.5)
        assert is_compressible(e1, params)
        # Bound only claimed for incompressible vectors; call must not raise.
        spread_set(e1, params)

    def test_monte_carlo_bounds(self):
        params = CompressibilityParams(theta=0.1, rho=0.1)
        rng = np.random.default_rng(2)
        n = 64
        for _ in range(1000):
            u = sample_incompressible(n, params, rng)
            u_tilde = random_unit(rng, n)
            J = spread_set(u, params)
            J_prime = joint_spread_set(u, u_tilde, params)
            assert J.size >= 0.75 * params.theta * n
            assert J_prime.size >= 0.5 * params.theta * n

    def test_joint_removes_at_most_spike(self):
        n = 16
        u = np.ones(n, dtype=complex) / np.sqrt(n)
        spike = np.zeros(n, dtype=complex)
        spike[0] = 1.0
        params = CompressibilityParams(theta=0.5, rho=0.5)
        J = spread_set(u, params)
        J_prime = joint_spread_set(u, spike, params)
        assert J.size - J_prime.size <= 1

    def test_identical_vectors(self):
        n = 16
        u = np.ones(n, dtype=complex) / np.sqrt(n)
        params = CompressibilityParams(theta=0.5, rho=0.5)
        assert np.array_equal(spread_set(u, params), joint_spread_set(u, u, params))

    def test_dimension_mismatch(self):
        params = CompressibilityParams(theta=0.5, rho=0.5)
        u = np.ones(4, dtype=complex) / 2
        v = np.ones(9, dtype=complex) / 3
        with pytest.raises(ValueError):
            joint_spread_set(u, v, params)


def kdtree_small_ball_estimate(samples, r, pitch_factor=0.25):
    """Reference: the grid of small_ball_estimate as a list of centres,
    x-major, with each ball counted by a k-d tree query."""
    samples = np.asarray(samples, dtype=complex).ravel()
    pts = np.column_stack([samples.real, samples.imag])
    pitch = r * pitch_factor
    lo = np.quantile(pts, 0.005, axis=0) - r
    hi = np.quantile(pts, 0.995, axis=0) + r
    xs = np.arange(lo[0], hi[0] + pitch, pitch)
    ys = np.arange(lo[1], hi[1] + pitch, pitch)
    centers = np.array([[x, y] for x in xs for y in ys])
    counts = cKDTree(pts).query_ball_point(centers, r, return_length=True)
    i = int(np.argmax(counts))
    return SmallBallEstimate(
        probability=float(counts[i] / samples.size),
        center=complex(centers[i, 0], centers[i, 1]),
        grid_pitch=float(pitch),
        grid_size=len(centers),
    )


def gaussian_sums(count, n, seed):
    """count sums of n centered complex Gaussians, each with E|Z|^2 = 1/n."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))).sum(
        axis=1) / np.sqrt(2.0 * n)


def half_point_mass():
    rng = np.random.default_rng(7)
    spread = 0.3 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
    return np.concatenate([spread, np.full(1000, 0.25 + 0.1j)])


# Centres at pitch r/4 from a lattice of spacing 0.1 (or 0.25, each point
# three times): many sample-centre distances equal r up to rounding, so the
# d^2 <= r^2 test meets boundary ties.
LATTICE = (np.arange(-10, 11)[:, None] * 0.1 + 1j * np.arange(-10, 11)[None, :] * 0.1).ravel()
COARSE_LATTICE = np.repeat(
    (np.arange(-4, 5)[:, None] * 0.25 + 1j * np.arange(-4, 5)[None, :] * 0.25).ravel(), 3)


class TestSmallBall:
    @pytest.mark.parametrize("samples,r,pitch_factor", [
        (gaussian_sums(20000, 64, 4), 0.1, 0.25),
        (gaussian_sums(2000, 8, 5), 0.3, 0.25),
        (half_point_mass(), 0.1, 0.25),
        (np.full(2000, 1.5 - 0.5j), 0.2, 0.25),
        (LATTICE, 0.1, 0.25),
        (LATTICE, 0.2, 0.25),
        (LATTICE, 0.25, 0.25),
        (COARSE_LATTICE, 0.5, 0.25),
        (gaussian_sums(500, 8, 6), 0.1, 0.1),
        (gaussian_sums(500, 8, 6), 0.1, 0.3),
        (gaussian_sums(500, 8, 6), 0.1, 2.0),
        (np.round(5 * gaussian_sums(3000, 4, 8)) / 5, 0.2, 0.25),
    ], ids=["criterion-6", "gaussian-r0.3", "half-point-mass", "point-mass", "lattice-r0.1",
            "lattice-r0.2", "lattice-r0.25", "coarse-lattice-r0.5", "pitch-factor-0.1",
            "pitch-factor-0.3", "pitch-factor-2", "quantized-ties"])
    def test_matches_kdtree_reference(self, samples, r, pitch_factor):
        assert small_ball_estimate(samples, r, pitch_factor) == kdtree_small_ball_estimate(
            samples, r, pitch_factor)

    def test_rademacher(self):
        rng = np.random.default_rng(3)
        samples = np.where(rng.uniform(size=5000) < 0.5, 1.0, -1.0).astype(complex)
        est = small_ball_estimate(samples, 0.1)
        assert est.probability == pytest.approx(0.5, abs=0.03)

    def test_point_mass(self):
        samples = np.full(2000, 1.5 - 0.5j)
        est = small_ball_estimate(samples, 0.2)
        assert est.probability == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            small_ball_estimate([], 0.1)

    def test_gaussian_berry_esseen_form(self):
        rng = np.random.default_rng(4)
        n = 64
        # Sum of n centered complex Gaussians each with E|Z|^2 = 1/n.
        terms_var = np.full(n, 1.0 / n)
        # Rayleigh third moment at sigma = 1/sqrt(2n).
        sigma = 1.0 / np.sqrt(2.0 * n)
        third = sigma**3 * 2**1.5 * 1.3293403881791372  # Gamma(2.5)
        sums = (rng.standard_normal((20000, n)) + 1j * rng.standard_normal((20000, n))).sum(
            axis=1) / np.sqrt(2.0 * n)
        est = small_ball_estimate(sums, 0.1)
        bound = berry_esseen_bound(0.1, terms_var, np.full(n, third), c_prime=4.0)
        assert est.probability <= bound


class TestLogPotential:
    def test_single_point_at_unit_distance(self):
        assert log_potential([0.0], 1.0) == pytest.approx(0.0)

    def test_single_point(self):
        assert log_potential([2.0], 0.0) == pytest.approx(-np.log(2.0))

    def test_singular_evaluation_rejected(self):
        with pytest.raises(ValueError, match="coincides"):
            log_potential([1.0 + 1j, 2.0], 1.0 + 1j)

    def test_determinant_identity(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        eigs = linalg.eigenvalues(M)
        for _ in range(20):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            s = linalg.singular_values(M - z * np.eye(16))
            via_singular = -float(np.mean(np.log(s)))
            assert log_potential(eigs, z) == pytest.approx(via_singular, rel=1e-8, abs=1e-10)
