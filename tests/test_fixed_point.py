import itertools

import numpy as np
import pytest
from scipy.optimize import brentq

from autocov_spectra import fixed_point
from autocov_spectra.ensembles import EnsembleSpec, build_autocov, hermitize, sample_entry_matrix
from autocov_spectra.fixed_point import (
    SOLVER_TOL,
    ResolventParams,
    empirical_resolvent_trace,
    large_t_asymptote,
    master_relation,
    predicted_stieltjes,
    solve_s,
)
from autocov_spectra import linalg


def resolvent_blocks(M, z: complex, eta: complex):
    """Blocks of ((dilation of M - zI) - eta I)^(-1) for Im eta > 0.

    G11 = eta (B B* - eta^2 I)^-1, G12 = (B B* - eta^2 I)^-1 B,
    G21 = B* (B B* - eta^2 I)^-1, G22 = eta (B* B - eta^2 I)^-1,
    with B = M - zI.
    """
    M = linalg._as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("resolvent_blocks requires a square matrix")
    if eta.imag <= 0:
        raise ValueError("eta must have positive imaginary part")
    N = M.shape[0]
    B = M - z * np.eye(N)
    core = np.linalg.inv(B @ B.conj().T - eta**2 * np.eye(N))
    core2 = np.linalg.inv(B.conj().T @ B - eta**2 * np.eye(N))
    G11 = eta * core
    G12 = core @ B
    G21 = B.conj().T @ core
    G22 = eta * core2
    return G11, G12, G21, G22


class TestResolventBlocks:
    def test_zero_offdiagonal_case(self):
        # M = zI makes the dilation zero, so G = (0 - i I)^-1 = i I.
        z = 0.7 - 0.2j
        G11, G12, G21, G22 = resolvent_blocks(z * np.eye(3), z, 1j)
        G = np.block([[G11, G12], [G21, G22]])
        assert np.allclose(G, 1j * np.eye(6))

    def test_assembly_residual(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        z, eta = 0.5 + 0.3j, 0.4j
        G11, G12, G21, G22 = resolvent_blocks(M, z, eta)
        G = np.block([[G11, G12], [G21, G22]])
        Sigma = hermitize(M, z)
        residual = (Sigma - eta * np.eye(24)) @ G - np.eye(24)
        assert np.max(np.abs(residual)) <= 1e-8

    def test_trace_purely_imaginary_at_it(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        G11, G12, G21, G22 = resolvent_blocks(M, 1.0, 0.5j)
        G = np.block([[G11, G12], [G21, G22]])
        assert abs(np.trace(G).real) <= 1e-10 * abs(np.trace(G))

    def test_g11_g22_trace_symmetry(self):
        # The two diagonal blocks have equal traces through the shared
        # singular spectrum of M - zI.
        rng = np.random.default_rng(2)
        M = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        G11, _, _, G22 = resolvent_blocks(M, 0.8, 0.6j)
        assert np.trace(G11) == pytest.approx(np.trace(G22), abs=1e-10)

    def test_eta_in_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            resolvent_blocks(np.eye(2), 1.0, -1j)


class TestSolveS:
    def test_large_t_asymptote(self):
        params = ResolventParams(z=1.0 + 0j, t=10.0, gamma0=1.0, a=0.5)
        sol = solve_s(params)
        assert sol.s == pytest.approx(10.0 / 101.0, rel=0.05)

    def test_negative_at_zero_guarantees_root(self):
        params = ResolventParams(z=1.0 + 0j, t=0.5, gamma0=1.0, a=0.5)
        assert master_relation(0.0, params) < 0
        sol = solve_s(params)
        assert sol.s > 0

    def test_residual(self):
        for z in (0.5 + 0j, 1.0 + 0j, 1.0 + 1j):
            for t in (0.3, 0.5, 1.0):
                sol = solve_s(ResolventParams(z=z, t=t, gamma0=1.0, a=0.5))
                assert sol.residual <= 1e-12

    def test_continuation_is_continuous_in_t(self):
        t_grid = np.geomspace(2.0, 0.2, 30)
        prev = None
        for t in t_grid:
            s = solve_s(ResolventParams(z=1.0 + 0j, t=float(t), gamma0=1.0, a=0.5)).s
            if prev is not None:
                assert abs(s - prev) <= 5.0 * abs(t_grid[1] - t_grid[0]) + 0.2
            prev = s

    def test_monte_carlo_agreement(self):
        spec = EnsembleSpec(n=400, N=400, k=200, master_seed=11)
        X = sample_entry_matrix(spec, 0)
        Y = build_autocov(X, 200)
        B = Y - np.eye(400)
        eta = 0.5j
        G11 = eta * np.linalg.inv(B @ B.conj().T - eta**2 * np.eye(400))
        empirical_s = (np.trace(G11) / 400).imag
        sol = solve_s(ResolventParams(z=1.0 + 0j, t=0.5, gamma0=1.0, a=0.5))
        assert abs(empirical_s - sol.s) <= 0.05


# 7 z x 7 t x 3 gamma0 x 3 a = 441 points, t from well below to well above |z|.
REFINE_GRID = list(itertools.product(
    (0.3, 0.7 + 0.2j, 1.0, 1.0 + 1.0j, 1.5j, 2.0 - 0.5j, 3.0),
    (0.05, 0.1, 0.3, 0.5, 1.0, 3.0, 10.0),
    (0.5, 1.0, 2.0),
    (0.1, 0.3, 0.5)))


def _bracket(s):
    return s * (1.0 - 1e-6), s * (1.0 + 1e-6)


class TestRefine:
    def test_bisection_matches_brentq_on_the_same_bracket(self, monkeypatch):
        # brentq is the oracle: on the bracket _refine receives from the
        # continuation, both must find the same root to float64 resolution.
        starts = []
        refine = fixed_point._refine

        def spy(s, params):
            starts.append(s)
            return refine(s, params)

        monkeypatch.setattr(fixed_point, "_refine", spy)
        for z, t, gamma0, a in REFINE_GRID:
            params = ResolventParams(z=z, t=t, gamma0=gamma0, a=a)
            sol = solve_s(params)
            oracle = brentq(master_relation, *_bracket(starts[-1]), args=(params,),
                            xtol=1e-15, rtol=8.881784197001252e-16)
            assert abs(sol.s - oracle) <= 1e-14 * oracle
            assert sol.residual <= SOLVER_TOL

    def test_newton_fallback_without_sign_change(self):
        # A start 1e-3 off the root puts the root outside the 2e-6 bracket.
        params = ResolventParams(z=1.0 + 0j, t=0.5, gamma0=1.0, a=0.5)
        root = solve_s(params).s
        start = root * (1.0 + 1e-3)
        lo, hi = _bracket(start)
        assert master_relation(lo, params) * master_relation(hi, params) > 0
        s = fixed_point._refine(start, params)
        assert abs(master_relation(s, params)) <= SOLVER_TOL
        assert s == pytest.approx(root, rel=1e-10)


class TestG12:
    def test_real_z_gives_real_g12(self):
        params = ResolventParams(z=1.0 + 0j, t=0.5, gamma0=1.0, a=0.5)
        sol = solve_s(params)
        assert sol.g12.imag == pytest.approx(0.0, abs=1e-12)

    def test_t_minus_two_scaling(self):
        # |g12| <= C t^-2 along a t-grid.
        vals = []
        for t in np.geomspace(0.2, 2.0, 12):
            sol = solve_s(ResolventParams(z=1.0 + 0j, t=float(t), gamma0=1.0, a=0.5))
            vals.append(abs(sol.g12) * t * t)
        assert max(vals) <= 10.0

    def test_simulation_match(self):
        spec = EnsembleSpec(n=400, N=400, k=200, master_seed=12)
        X = sample_entry_matrix(spec, 0)
        Y = build_autocov(X, 200)
        _, G12, _, _ = resolvent_blocks(Y, 1.0, 0.5j)
        empirical = np.trace(G12) / 400
        sol = solve_s(ResolventParams(z=1.0 + 0j, t=0.5, gamma0=1.0, a=0.5))
        assert abs(empirical - sol.g12) <= 0.05


class TestPredictedStieltjes:
    def test_purely_imaginary_positive(self):
        params = ResolventParams(z=1.0 + 1j, t=0.4, gamma0=1.0, a=0.5)
        m = predicted_stieltjes(params)
        assert m.real == pytest.approx(0.0, abs=1e-12)
        assert m.imag > 0

    def test_symmetrized_trace_closed_form(self):
        # (1/2N) sum_{+-} 1/(+-s_i - it) = (it/N) sum 1/(s_i^2 + t^2).
        rng = np.random.default_rng(3)
        s = np.abs(rng.standard_normal(7))
        t = 0.6
        direct = np.sum(1.0 / (s - 1j * t) + 1.0 / (-s - 1j * t)) / (2 * s.size)
        closed = 1j * t / s.size * np.sum(1.0 / (s**2 + t**2))
        assert direct == pytest.approx(closed, abs=1e-12)

    def test_wegner_bound(self):
        # -i (2/gamma0) s stays bounded by C (1 + t^-16 n^-3/2) in the limit
        # (the n-dependent term vanishes); C calibrated from gamma0 / |z|^2.
        for t in (0.1, 0.2, 0.4):
            sol = solve_s(ResolventParams(z=1.0 + 0j, t=t, gamma0=1.0, a=0.5))
            assert 2.0 * sol.s <= 4.0 * (1.0 + 1.0)


class TestEmpiricalResolventTrace:
    def test_single_singular_value(self):
        # N = 1, s = 1, t = 1: (i * 1 / 1) * 1/(1+1) = i/2.
        M = np.array([[2.0 + 0j]])  # M - zI has singular value 1 at z = 1
        assert empirical_resolvent_trace(M, 1.0, 1.0) == pytest.approx(0.5j)

    def test_matches_dilation_oracle(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        z, t = 0.3 - 0.4j, 0.7
        eigs = np.linalg.eigvalsh(hermitize(M, z))
        oracle = np.mean(1.0 / (eigs - 1j * t))
        assert empirical_resolvent_trace(M, z, t) == pytest.approx(oracle, abs=1e-8)

    def test_decay_like_i_over_t(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        for t in (10.0, 100.0, 1000.0):
            val = empirical_resolvent_trace(M, 1.0, t)
            assert val == pytest.approx(1j / t, rel=0.1)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            empirical_resolvent_trace(np.eye(2), 1.0, 0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ResolventParams(z=0j, t=0.5, gamma0=1.0, a=0.5)
    with pytest.raises(ValueError):
        ResolventParams(z=1.0, t=-1.0, gamma0=1.0, a=0.5)
    with pytest.raises(ValueError):
        ResolventParams(z=1.0, t=0.5, gamma0=1.0, a=0.9)
