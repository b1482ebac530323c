import cmath
import dataclasses
import functools
import itertools
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from scipy.optimize import brentq

from autocov_spectra import fixed_point
from autocov_spectra.ensembles import EnsembleSpec, build_autocov, hermitize, sample_entry_matrix
from autocov_spectra.fixed_point import (
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
            assert sol.residual <= 1e-12

    def test_no_sign_change_raises_naming_the_point(self):
        # A start 1e-3 off the root puts the root outside the 2e-6 bracket.
        params = ResolventParams(z=1.0 + 0j, t=0.5, gamma0=1.0, a=0.5)
        start = solve_s(params).s * (1.0 + 1e-3)
        lo, hi = _bracket(start)
        assert master_relation(lo, params) * master_relation(hi, params) > 0
        message = (f"the master relation does not change sign within 1e-6 of the "
                   f"continuation's root s={start} at ResolventParams(z=(1+0j), t=0.5, "
                   f"gamma0=1.0, a=0.5)")
        with pytest.raises(np.linalg.LinAlgError, match="^" + re.escape(message) + "$"):
            fixed_point._refine(start, params)

    @pytest.mark.parametrize("gamma0,gamma1,z,t", [
        (1.459, 0.56, 3.46, 2.159016143435955e-28),
        (1e-30, 0.5, 1.0, 0.5),
    ], ids=["tiny-t", "tiny-gamma0"])
    def test_unresolved_roots_raise(self, gamma0, gamma1, z, t):
        # A Newton fallback once stopped on |f| <= 1e-12 at once here, and
        # returned the continuation's root: s off by 6.0e-4 and by 55 %.
        params = ResolventParams(z=z, t=t, gamma0=gamma0, a=1.0 - gamma1)
        with pytest.raises(np.linalg.LinAlgError, match="does not change sign") as info:
            solve_s(params)
        assert str(info.value).endswith(f" at {params}")

    def test_sign_test_survives_underflow(self):
        # The root is near gamma0 / 2 = 5e-201, where the relation is about
        # 1e-206 at both ends of the bracket and their product underflows
        # to 0. (solve_s itself loses a root this small: its companion
        # eigensolve finds no positive root.)
        params = ResolventParams(z=1.0 + 0j, t=1.0, gamma0=1e-200, a=0.5)
        lo, hi = _bracket(5e-201)
        assert master_relation(lo, params) * master_relation(hi, params) == 0
        assert master_relation(lo, params) < 0 < master_relation(hi, params)
        s = fixed_point._refine(5e-201, params)
        assert master_relation(s * (1 - 1e-10), params) < 0 < master_relation(s * (1 + 1e-10), params)


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0 ** e)


def _solves_or_names_the_point(z, t, gamma0, a):
    """A one-line error that names the point, or a root across which the
    master relation changes sign within 1e-10 of it; warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            params = ResolventParams(z=z, t=t, gamma0=gamma0, a=a)
        except ValueError as exc:
            message = str(exc)
            assert "\n" not in message
            assert any(f"{value:g}" in message for value in (abs(z), t, gamma0))
            return
        try:
            s = solve_s(params).s
        except np.linalg.LinAlgError as exc:
            assert "\n" not in str(exc) and str(exc).endswith(str(params))
            return
        lo, hi = master_relation(s * (1 - 1e-10), params), master_relation(s * (1 + 1e-10), params)
    assert lo < 0 < hi or hi < 0 < lo


@settings(max_examples=60, deadline=None)
@given(modulus=_log_uniform(1e-300, fixed_point.MAX_ABS_Z),
       phase=st.floats(-math.pi, math.pi),
       t=_log_uniform(1e-300, 10 * fixed_point.MAX_ABS_Z),
       gamma0=_log_uniform(1e-300, 1e308),
       a=st.floats(0.0, 0.5, exclude_min=True))
def test_admitted_domain_solves_or_names_the_point(modulus, phase, t, gamma0, a):
    # The whole domain ResolventParams admits, and a little past its |z|
    # and t bounds where 10 ** e rounds up.
    _solves_or_names_the_point(cmath.rect(modulus, phase), t, gamma0, a)


@settings(max_examples=100, deadline=None)
@given(modulus=_log_uniform(1e-6, 1e6), phase=st.floats(-math.pi, math.pi),
       t=_log_uniform(1e-30, 1e-6), gamma0=_log_uniform(0.1, 10.0),
       a=st.floats(0.0, 0.5, exclude_min=True))
def test_small_t_solves_or_names_the_point(modulus, phase, t, gamma0, a):
    # The corner where _refine's bracket can lack a sign change, as in the
    # tiny-t case of TestRefine: 26 of 3000 uniform draws over it.
    _solves_or_names_the_point(cmath.rect(modulus, phase), t, gamma0, a)


# Wider than REFINE_GRID: small and large |z|, t, gamma0 and a.
ROOT_SWEEP = list(itertools.product(
    (0.05, 0.5 + 0.5j, 2.0j, 5.0 + 5.0j),
    (0.01, 0.2, 2.0, 50.0),
    (0.25, 1.5, 3.0),
    (0.05, 0.25, 0.5)))


@functools.cache
def _polyroots(z, t, gamma0, a):
    """Roots of master_relation * (1+s^2)^2 as numpy.polynomial finds them.
    Cached, so TestPathRoots' two oracle tests share each step's roots; the
    shared array is read-only."""
    poly = P.polyadd(P.polymul([t, a, t], [-gamma0, t, a - gamma0, t]),
                     abs(z) ** 2 * np.array([0.0, 1.0, 0.0, 2.0, 0.0, 1.0]))
    roots = P.polyroots(poly)
    roots.flags.writeable = False
    return roots


def _continuation_path(params):
    t_start = max(10.0, 10.0 * abs(params.z))
    if params.t >= t_start:
        return [params.t]
    count = max(2, int(np.ceil(np.log10(t_start / params.t) * fixed_point.STEPS_PER_DECADE)) + 1)
    return np.geomspace(t_start, params.t, count).tolist()


class TestPathRoots:
    """solve_s's one stacked companion eigensolve against numpy.polynomial's
    per-step polyroots, the slow path it replaced."""

    @pytest.mark.parametrize("grid", [REFINE_GRID, ROOT_SWEEP], ids=["refine-grid", "sweep"])
    def test_rows_are_polyroots_bit_for_bit(self, grid):
        for z, t, gamma0, a in grid:
            params = ResolventParams(z=z, t=t, gamma0=gamma0, a=a)
            assert params.path == _continuation_path(params)
            rows = fixed_point._path_roots(params)
            assert rows.shape == (len(params.path), 5)
            for t_step, row in zip(params.path, rows):
                oracle = _polyroots(z, t_step, gamma0, a).astype(complex)
                np.testing.assert_array_equal(np.sort(row), oracle)

    @pytest.mark.parametrize("grid", [REFINE_GRID, ROOT_SWEEP], ids=["refine-grid", "sweep"])
    def test_solve_s_matches_per_step_polyroots(self, grid):
        # Reference: the continuation with one polyroots call per step.
        for z, t, gamma0, a in grid:
            params = ResolventParams(z=z, t=t, gamma0=gamma0, a=a)
            path = _continuation_path(params)
            s_prev = large_t_asymptote(ResolventParams(z, path[0], gamma0, a))
            for t_step in path:
                roots = _polyroots(z, t_step, gamma0, a)
                real = roots[np.abs(roots.imag) < 1e-9 * (1.0 + np.abs(roots.real))].real
                positive = np.unique(real[real > 0.0])
                s_prev = float(positive[np.argmin(np.abs(positive - s_prev))])
            assert solve_s(params).s == fixed_point._refine(s_prev, params)

    @pytest.mark.parametrize("t", [0.05, 1.0, 20.0], ids=["long-path", "path", "no-path"])
    def test_one_eigensolve_per_solve(self, monkeypatch, t):
        calls = []
        eigvals = np.linalg.eigvals

        def counted(M):
            calls.append(np.shape(M))
            return eigvals(M)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        params = ResolventParams(z=1.0 + 0.5j, t=t, gamma0=1.5, a=0.4)
        solve_s(params)
        assert calls == [(len(_continuation_path(params)), 5, 5)]

    @pytest.mark.parametrize("t", [0.05, 1.0, 20.0], ids=["long-path", "path", "no-path"])
    def test_one_coefficient_build_per_point(self, monkeypatch, t):
        # One row per t of the path, built when the point is; the extra call
        # is solve_s's one-step point at path[0] for the asymptote.
        calls = []
        master_poly = fixed_point._master_poly

        def counted(params, t_step):
            calls.append(t_step)
            return master_poly(params, t_step)

        monkeypatch.setattr(fixed_point, "_master_poly", counted)
        params = ResolventParams(z=1.0 + 0.5j, t=t, gamma0=1.5, a=0.4)
        solve_s(params)
        assert len(calls) == len(params.path) + 1


class TestPointIdentity:
    """path and monic are derived from (z, t, gamma0, a) and take no part in
    equality, hashing or repr, which the exit-4 messages print."""

    def test_equal_points_compare_and_hash_alike(self):
        p, q = (ResolventParams(z=1.0 + 0.5j, t=0.05, gamma0=1.5, a=0.4) for _ in range(2))
        assert p == q and hash(p) == hash(q)
        assert p != ResolventParams(z=1.0 + 0.5j, t=0.06, gamma0=1.5, a=0.4)

    def test_repr_shows_only_the_parameters(self):
        p = ResolventParams(z=1.0 + 0.5j, t=0.05, gamma0=1.5, a=0.4)
        assert repr(p) == "ResolventParams(z=(1+0.5j), t=0.05, gamma0=1.5, a=0.4)"

    @pytest.mark.parametrize("t2", [0.001, 1.0, 20.0])
    def test_replace_rebuilds_the_path(self, t2):
        p = ResolventParams(z=1.0 + 0.5j, t=0.05, gamma0=1.5, a=0.4)
        fresh = ResolventParams(z=1.0 + 0.5j, t=t2, gamma0=1.5, a=0.4)
        moved = dataclasses.replace(p, t=t2)
        assert moved.path == fresh.path == _continuation_path(fresh)
        np.testing.assert_array_equal(moved.monic, fresh.monic)

    def test_pickle_round_trip(self):
        p = ResolventParams(z=1.0 + 0.5j, t=0.05, gamma0=1.5, a=0.4)
        q = pickle.loads(pickle.dumps(p))
        assert q == p and q.path == p.path
        np.testing.assert_array_equal(q.monic, p.monic)


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


@pytest.mark.parametrize("z,t,message", [
    (1e151, 0.5, r"^\|z\| must be at most 1e\+150, got 1e\+151$"),
    (1e300j, 0.5, r"^\|z\| must be at most 1e\+150, got 1e\+300$"),
    (1.0, 1e152, r"^t must be at most 1e\+151, got 1e\+152$"),
    (3.0, 1e-307, r"^t = 1e-307 is too small for \|z\| = 3: "),
])
def test_params_out_of_range_magnitude_names_the_parameter(z, t, message):
    # Each of these once overflowed inside solve_s, with a message that
    # named no parameter.
    with pytest.raises(ValueError, match=message):
        ResolventParams(z=z, t=t, gamma0=1.0, a=0.5)


def test_params_with_non_finite_path_coefficients_name_the_values():
    # gamma0 t / (t^2 + |z|^2) peaks at t = |z|, inside solve_s's path, so
    # it overflows there while both ends of the path stay finite. This once
    # reached numpy's eigvals, which raised "Array must not contain infs or
    # NaNs" after RuntimeWarnings.
    message = "|z| = 1e-10, t = 1e-20 and gamma0 = 1e+300 are out of range: "
    with np.errstate(all="raise"), pytest.raises(ValueError, match="^" + re.escape(message)):
        ResolventParams(z=1e-10, t=1e-20, gamma0=1e300, a=0.5)


def test_params_accept_magnitudes_at_the_bounds():
    # solve_s's path starts at t = 10 |z|, so the largest |z| rebuilds its
    # params at t = 10 * MAX_ABS_Z.
    ResolventParams(z=fixed_point.MAX_ABS_Z, t=10 * fixed_point.MAX_ABS_Z, gamma0=1.0, a=0.5)
    # t = 1e-307 still solves at gamma0 = 10: max(10, 10|z|) / t is finite.
    assert solve_s(ResolventParams(z=1.0, t=1e-307, gamma0=10.0, a=0.5)).s > 0
