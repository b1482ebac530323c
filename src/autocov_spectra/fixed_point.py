"""Large-lag limiting resolvent: block formulas and the scalar fixed point.

At spectral parameter eta = i t the averaged diagonal resolvent trace of the
Hermitian dilation of Y - zI is purely imaginary, g11 = i s with s > 0. In
the limit s solves the scalar master relation

    (t + a s/(1+s^2)) (t s + a s^2/(1+s^2) - gamma0) + s |z|^2 = 0,

with a = lim (n-k)/n. The relation is a quintic after clearing (1+s^2)^2;
roots are tracked by continuation from the large-t asymptote
s ~ gamma0 t / (t^2 + |z|^2), which selects the resolvent branch when more
than one positive root exists. One stacked companion eigensolve gives the
roots at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from autocov_spectra.linalg import _as_matrix, singular_values

# Halvings of the 2e-6 relative bracket in _refine; 64 reach float64
# resolution long before the count runs out.
BISECTION_STEPS = 64
# Points per decade of solve_s's geometric t-continuation grid.
STEPS_PER_DECADE = 40
# Largest |z|. solve_s squares |z| and t and walks t down from max(10,
# 10|z|), so t may be 10 times this. No |z| or t above 1e20 was solved in
# scans; from about 1e153 on the arithmetic overflows.
MAX_ABS_Z = 1e150


@dataclass(frozen=True)
class ResolventParams:
    """Point (z, t) and limit shape (gamma0, a = 1 - gamma1) for the solver.

    path is solve_s's t-continuation: a geometric grid from max(10, 10|z|),
    where the asymptote is accurate, down to t, or t alone when t is at least
    that. monic holds the master quintic's lower coefficients over its
    leading one, t^2 + |z|^2, one row per t of path."""

    z: complex
    t: float
    gamma0: float
    a: float
    path: list[float] = field(init=False, repr=False, compare=False)
    monic: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.z == 0:
            raise ValueError("z = 0 is excluded")
        if not abs(self.z) <= MAX_ABS_Z:
            raise ValueError(f"|z| must be at most {MAX_ABS_Z:g}, got {abs(self.z):g}")
        if not 0 < self.t < np.inf:
            raise ValueError("t must be positive and finite")
        if not self.t <= 10 * MAX_ABS_Z:
            raise ValueError(f"t must be at most {10 * MAX_ABS_Z:g}, got {self.t:g}")
        t_start = max(10.0, 10.0 * abs(self.z))
        if t_start / self.t == np.inf:
            raise ValueError(f"t = {self.t:g} is too small for |z| = {abs(self.z):g}: "
                             "max(10, 10|z|) / t overflows")
        if not 0 < self.gamma0 < np.inf:
            raise ValueError("gamma0 must be positive and finite")
        if not 0.0 < self.a <= 0.5:
            raise ValueError("a must lie in (0, 1/2] (the large-lag regime)")
        path = [self.t]
        if self.t < t_start:
            count = max(2, int(np.ceil(np.log10(t_start / self.t) * STEPS_PER_DECADE)) + 1)
            path = np.geomspace(t_start, self.t, count).tolist()
        # solve_s's companion matrices would hold an inf or a nan, which
        # numpy rejects with a message that names no parameter.
        with np.errstate(all="ignore"):
            c = np.array([_master_poly(self, t) for t in path])
            monic = c[:, :-1] / c[:, -1:]
        if not np.isfinite(monic).all():
            raise ValueError(f"|z| = {abs(self.z):g}, t = {self.t:g} and gamma0 = {self.gamma0:g} "
                             "are out of range: the master quintic's coefficients over "
                             "t^2 + |z|^2 are not all finite on the solver's t-path")
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "monic", monic)


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


def _master_poly(params: ResolventParams, t: float) -> np.ndarray:
    """Ascending coefficients of master_relation * (1+s^2)^2 at t."""
    a, g0 = params.a, params.gamma0
    p3 = abs(params.z) ** 2 * np.array([0.0, 1.0, 0.0, 2.0, 0.0, 1.0])
    return np.convolve([t, a, t], [-g0, t, a - g0, t]) + p3


def _path_roots(params: ResolventParams) -> np.ndarray:
    """Roots of the master quintic at each t of params.path, one row each:
    the eigenvalues of numpy.polynomial's polycompanion matrices, stacked."""
    companion = np.zeros((len(params.path), 5, 5))
    companion[:, 1:, :-1] = np.eye(4)
    companion[:, :, -1] -= params.monic
    return np.linalg.eigvals(companion)


def _refine(s: float, params: ResolventParams) -> float:
    """Polish the continuation's root s of the master relation by bisection
    on [s(1 - 1e-6), s(1 + 1e-6)]; np.linalg.LinAlgError, naming the point,
    when the relation does not change sign across that bracket."""
    lo, hi = s * (1.0 - 1e-6), s * (1.0 + 1e-6)
    f_lo, f_hi = master_relation(lo, params), master_relation(hi, params)
    # Signs, not f_lo * f_hi, which underflows to 0 at tiny scales.
    if (f_lo < 0) == (f_hi < 0):
        raise np.linalg.LinAlgError(
            f"the master relation does not change sign within 1e-6 of the continuation's "
            f"root s={s} at {params}")
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


def large_t_asymptote(params: ResolventParams) -> float:
    """Leading behaviour t (t s - gamma0) + s|z|^2 = 0 for t >> 1."""
    t = params.t
    return params.gamma0 * t / (t * t + abs(params.z) ** 2)


def solve_s(params: ResolventParams) -> FixedPointSolution:
    """Positive solution of the master relation, selected by t-continuation.

    Walks params.path from its first t, where the asymptote is accurate, down
    to the target, at each step keeping the positive root closest to the
    previous one. np.linalg.LinAlgError, naming params, when a step has no
    positive root or _refine finds no sign change.
    """
    s_prev = large_t_asymptote(replace(params, t=params.path[0]))
    for t, roots in zip(params.path, _path_roots(params)):
        real = roots[np.abs(roots.imag) < 1e-9 * (1.0 + np.abs(roots.real))].real
        positive = np.unique(real[real > 0.0])
        if positive.size == 0:
            raise np.linalg.LinAlgError(
                f"no positive root of the master relation at t={t} (previous s={s_prev}); "
                f"relation at 0 is {master_relation(0.0, replace(params, t=t))}; "
                f"solving {params}")
        s_prev = float(positive[np.argmin(np.abs(positive - s_prev))])
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
    return complex(resolvent_trace(singular_values(M - z * np.eye(M.shape[0])), [t])[0])


def resolvent_trace(s, t) -> np.ndarray:
    """(i t / N) sum_i 1 / (s_i^2 + t^2), the dilation resolvent trace at i t,
    for each row s of N singular values of M - zI (axis -2) and each t of the
    array t (axis -1). One SVD serves every t."""
    t = np.asarray(t, dtype=float)
    sums = np.sum(1.0 / (s[..., None, :] ** 2 + (t * t)[:, None]), axis=-1)
    return 1j * (t / s.shape[-1] * sums)
