"""Large-lag limiting resolvent: block formulas and the scalar fixed point.

At spectral parameter eta = i t the averaged diagonal resolvent trace of the
Hermitian dilation of Y - zI is purely imaginary, g11 = i s with s > 0. In
the limit s solves the scalar master relation

    (t + a s/(1+s^2)) (t s + a s^2/(1+s^2) - gamma0) + s |z|^2 = 0,

with a = lim (n-k)/n. The relation is polynomial after clearing (1+s^2)^2;
roots are tracked by continuation from the large-t asymptote
s ~ gamma0 t / (t^2 + |z|^2), which selects the resolvent branch when more
than one positive root exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from autocov_spectra.linalg import _as_matrix, singular_values

SOLVER_TOL = 1e-12
# Halvings of the 2e-6 relative bracket in _refine; 64 reach float64
# resolution long before the count runs out.
BISECTION_STEPS = 64
# Points per decade of solve_s's geometric t-continuation grid.
STEPS_PER_DECADE = 40


@dataclass(frozen=True)
class ResolventParams:
    """Point (z, t) and limit shape (gamma0, a = 1 - gamma1) for the solver."""

    z: complex
    t: float
    gamma0: float
    a: float

    def __post_init__(self):
        if self.z == 0:
            raise ValueError("z = 0 is excluded")
        if not 0 < self.t < np.inf:
            raise ValueError("t must be positive and finite")
        if not 0 < self.gamma0 < np.inf:
            raise ValueError("gamma0 must be positive and finite")
        if not 0.0 < self.a <= 0.5:
            raise ValueError("a must lie in (0, 1/2] (the large-lag regime)")


@dataclass
class FixedPointSolution:
    """g11 = i s; the off-diagonal limit g12 = -z s / (t + a s / (1 + s^2)),
    g21 its conjugate; residual = |master_relation(s)|."""

    s: float
    g12: complex
    residual: float


def master_relation(s: float, params: ResolventParams) -> float:
    t, a, g0 = params.t, params.a, params.gamma0
    w = a * s / (1.0 + s * s)
    return (t + w) * (t * s + w * s - g0) + s * abs(params.z) ** 2


def _master_poly(params: ResolventParams) -> np.ndarray:
    """Ascending coefficients of master_relation * (1+s^2)^2."""
    t, a, g0 = params.t, params.a, params.gamma0
    z2 = abs(params.z) ** 2
    p1 = np.array([t, a, t])
    p2 = np.array([-g0, t, a - g0, t])
    p3 = z2 * np.array([0.0, 1.0, 0.0, 2.0, 0.0, 1.0])
    poly = P.polyadd(P.polymul(p1, p2), p3)
    return poly


def _positive_roots(params: ResolventParams) -> np.ndarray:
    roots = P.polyroots(_master_poly(params))
    real = roots[np.abs(roots.imag) < 1e-9 * (1.0 + np.abs(roots.real))].real
    pos = np.unique(real[real > 0.0])
    return pos


def _refine(s: float, params: ResolventParams) -> float:
    """Polish a root of the master relation to residual <= SOLVER_TOL."""
    lo, hi = s * (1.0 - 1e-6), s * (1.0 + 1e-6)
    f_lo, f_hi = master_relation(lo, params), master_relation(hi, params)
    if f_lo * f_hi < 0:
        # Bisection keeps the end whose sign matches f_lo and stops once the
        # midpoint rounds to an end.
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if (master_relation(mid, params) < 0) == (f_lo < 0):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    # Newton fallback with a numeric derivative.
    for _ in range(50):
        f = master_relation(s, params)
        if abs(f) <= SOLVER_TOL:
            break
        h = max(1e-9, 1e-9 * s)
        df = (master_relation(s + h, params) - master_relation(s - h, params)) / (2 * h)
        if df == 0:
            break
        s -= f / df
    return s


def large_t_asymptote(params: ResolventParams) -> float:
    """Leading behaviour t (t s - gamma0) + s|z|^2 = 0 for t >> 1."""
    t = params.t
    return params.gamma0 * t / (t * t + abs(params.z) ** 2)


def solve_s(params: ResolventParams) -> FixedPointSolution:
    """Positive solution of the master relation, selected by t-continuation.

    Starts at t_start = max(10, 10 |z|) where the asymptote is accurate and
    walks a geometric t-grid down to the target, at each step keeping the
    positive root closest to the previous one.
    """
    t_target = params.t
    t_start = max(10.0, 10.0 * abs(params.z))
    if t_target >= t_start:
        path = [t_target]
    else:
        decades = np.log10(t_start / t_target)
        count = max(2, int(np.ceil(decades * STEPS_PER_DECADE)) + 1)
        path = list(np.geomspace(t_start, t_target, count))
    s_prev = large_t_asymptote(ResolventParams(params.z, path[0], params.gamma0, params.a))
    for t in path:
        p_t = ResolventParams(params.z, float(t), params.gamma0, params.a)
        roots = _positive_roots(p_t)
        if roots.size == 0:
            raise np.linalg.LinAlgError(
                f"no positive root of the master relation at t={t} "
                f"(previous s={s_prev}); relation at 0 is {master_relation(0.0, p_t)}")
        s_prev = float(roots[np.argmin(np.abs(roots - s_prev))])
    s = _refine(s_prev, params)
    g12 = -params.z * s / (params.t + params.a * s / (1.0 + s * s))
    return FixedPointSolution(s=s, g12=g12, residual=abs(master_relation(s, params)))


def predicted_stieltjes(params: ResolventParams,
                        solution: FixedPointSolution | None = None) -> complex:
    """Limiting Stieltjes transform of the symmetrized singular law at i t.

    The dilation trace averages the two diagonal blocks:
    (1/2N) Tr G = (n/N) g11, hence the value i s / gamma0.
    """
    if solution is None:
        solution = solve_s(params)
    return 1j * solution.s / params.gamma0


def empirical_resolvent_trace(M, z: complex, t: float) -> complex:
    """(1/2N) Tr of the dilation resolvent at i t, from singular values:
    (i t / N) sum_i 1 / (s_i(M - zI)^2 + t^2)."""
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("requires a square matrix")
    if t <= 0:
        raise ValueError("t must be positive")
    return resolvent_trace(singular_values(M - z * np.eye(M.shape[0])), t)


def resolvent_trace(s, t: float) -> complex:
    """(i t / N) sum_i 1 / (s_i^2 + t^2) for the N singular values s of
    M - zI: the dilation resolvent trace at i t. One SVD serves every t."""
    return 1j * t / s.size * float(np.sum(1.0 / (s**2 + t * t)))
