"""Seeded Monte Carlo drivers turning finite-n matrix inequalities and
convergence statements into reproducible pass/fail reports.

Finite-n inequality checks (linearization, norm bound, atom at zero) must
hold on every trial. Convergence checks use calibrated KS thresholds, since
the underlying statements are asymptotic with no finite-n rates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from autocov_spectra import linalg
from autocov_spectra.ensembles import (
    EnsembleSpec,
    SeededTrial,
    autocov_eigenvalues,
    build_autocov,
    build_linearization,
    default_c0_bound,
    resolvent_singular_values,
    sample_entry_matrix,
)
from autocov_spectra.fixed_point import (
    ResolventParams,
    predicted_stieltjes,
    resolvent_trace,
)
from autocov_spectra.limit_law import Gamma0Law

ZERO_EIGENVALUE_TOL = 1e-8

# rotation_invariance_test returns nan, inconclusive, on fewer nonzero
# eigenvalue angles than this.
ROTATION_MIN_COUNT = 100

# linearization_check's slack, relative to max(||H'||, 1), on its two
# inequalities and on the gap between the singular multisets of H and H'.
LINEARIZATION_TOL = 1e-10

# log_potential_grid takes a cell from the SVD of Y - zI when min |lambda - z|,
# an upper bound on s_min(Y - zI), is below this times S_FLOOR. On 84 grids at
# N = 8 to 128 the bound overshot s_min by at most a factor of 37, so every
# cell with s_min < S_FLOOR falls back and is flagged; cells kept on the
# eigenvalue path have s_min far above the eps ||Y|| rounding level, where the
# log-potential identity is accurate.
SVD_FALLBACK_FACTOR = 1e6

# hermitization_pipeline clamps singular values of Y - zI at S_FLOOR, and
# compares the recovered density with the eigenvalue histogram over
# TV_BLOCK x TV_BLOCK blocks of grid cells.
S_FLOOR = 1e-12
TV_BLOCK = 2

DEFAULT_THRESHOLDS = {
    "radial_ks": 0.08,
    "lsv_tail_freq": 0.05,
    "resolvent_abs_error": 0.05,
    "stability_ks": 0.08,
    "hermitization_tv": 0.15,
}


@dataclass
class ExperimentConfig:
    spec: EnsembleSpec
    trials: int = 1
    z_list: list[complex] = field(default_factory=lambda: [1.0 + 0j])
    t_list: list[float] = field(default_factory=lambda: [0.3, 0.5, 1.0])
    thresholds: dict = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # Checked here: a non-numeric threshold would otherwise fail only at
        # its comparison, after the whole experiment has run.
        if not isinstance(self.thresholds, dict):
            raise TypeError(f"thresholds must be a mapping, got {self.thresholds!r}")
        for key, value in self.thresholds.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"threshold {key!r} must be a number, got {value!r}")
        unknown = sorted(set(self.thresholds) - set(DEFAULT_THRESHOLDS))
        if unknown:
            raise ValueError(f"unknown thresholds {unknown}; "
                             f"known: {sorted(DEFAULT_THRESHOLDS)}")
        self.thresholds = {**DEFAULT_THRESHOLDS, **self.thresholds}


def ks_statistic(sample, cdf, cdf_left=None) -> float:
    """One-sample KS: sup |F_hat - F| with right-continuous empirical CDF.

    cdf is called once, on the sorted sample x as an array. Below x_i,
    F_hat is i/m and F rises to its left limit F(x_i-), so the lower
    deviation is F(x_i-) - i/m. cdf_left(x, F) gives those left limits from
    F = cdf(x); None means F has no jumps, so F(x_i-) = F(x_i).
    """
    x = np.sort(np.asarray(sample, dtype=float))
    m = x.size
    if m == 0:
        raise ValueError("empty sample")
    F = np.asarray(cdf(x), dtype=float)
    F_left = F if cdf_left is None else np.asarray(cdf_left(x, F), dtype=float)
    upper = np.arange(1, m + 1) / m - F
    lower = F_left - np.arange(0, m) / m
    return float(max(upper.max(), lower.max()))


def atom_radii(eigs) -> np.ndarray:
    """|eigs|, with radii inside the zero atom (<= ZERO_EIGENVALUE_TOL) set
    to 0, so rounding noise inside the atom does not enter a statistic."""
    r = np.abs(eigs)
    return np.where(r <= ZERO_EIGENVALUE_TOL, 0.0, r)


def ks_two_sample(a, b) -> float:
    """Two-sample KS distance between empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    Fa = np.searchsorted(a, grid, side="right") / a.size
    Fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(Fa - Fb)))


def rotation_invariance_test(eigs) -> float:
    """KS statistic of eigenvalue angles against uniform on [0, 2 pi).

    Eigenvalues inside the zero atom (|lambda| <= 1e-8) carry no angle and
    are excluded; fewer than ROTATION_MIN_COUNT remaining angles give nan.
    """
    eigs = np.asarray(eigs, dtype=complex).ravel()
    nz = eigs[np.abs(eigs) > ZERO_EIGENVALUE_TOL]
    if nz.size < ROTATION_MIN_COUNT:
        return float("nan")
    angles = np.mod(np.angle(nz), 2.0 * np.pi)
    return ks_statistic(angles, lambda a: a / (2.0 * np.pi))


@dataclass
class ConvergenceReport:
    radial_ks_per_trial: list[float]
    angular_ks_per_trial: list[float]
    mean_radial_ks: float
    mean_angular_ks: float
    seeds: list[int]
    passed: bool


def esd_experiment(config: ExperimentConfig) -> ConvergenceReport:
    """Sample Y, compare the empirical radial CDF of its eigenvalues to the
    small-lag limit law, and test angular uniformity.

    The radial KS scores atom_radii(eigs) with the law's left limit
    (Gamma0Law.radial_cdf_left), so when gamma0 > 1 the structural zeros of
    Y (rank <= n - k) fall in the law's atom at 0 instead of each scoring
    the atom's whole mass as a deviation."""
    spec = config.spec
    law = Gamma0Law(spec.gamma0)
    radial_ks, angular_ks, seeds = [], [], []
    for trial_index in range(config.trials):
        trial = SeededTrial.from_master(spec.master_seed, trial_index)
        seeds.append(trial.derived_seed)
        # X and Y are temporaries, so neither outlives its use.
        eigs = linalg.eigenvalues(build_autocov(sample_entry_matrix(spec, trial), spec.k))
        radial_ks.append(ks_statistic(atom_radii(eigs), law.radial_cdf,
                                      law.radial_cdf_left))
        angular_ks.append(rotation_invariance_test(eigs))
    mean_radial = float(np.mean(radial_ks))
    finite_ang = [a for a in angular_ks if np.isfinite(a)]
    mean_angular = float(np.mean(finite_ang)) if finite_ang else float("nan")
    passed = mean_radial <= config.thresholds["radial_ks"]
    return ConvergenceReport(
        radial_ks_per_trial=radial_ks,
        angular_ks_per_trial=angular_ks,
        mean_radial_ks=mean_radial,
        mean_angular_ks=mean_angular,
        seeds=seeds,
        passed=bool(passed),
    )


@dataclass
class TailReport:
    threshold: float
    c0_bound: float
    lsv_values: list[float]
    norm_ok_count: int
    event_count: int
    frequency: float
    passed: bool


def lsv_tail_experiment(config: ExperimentConfig, z: complex) -> TailReport:
    """Frequency of {s_N(Y - zI) <= n^(-37/22), ||X|| <= C0} over trials.

    The bound's leading constant is unspecified, so the check is one-sided
    smallness against the configured frequency threshold.
    """
    spec = config.spec
    if z == 0:
        raise ValueError("z = 0 is excluded")
    threshold = spec.n ** (-37.0 / 22.0)
    c0 = default_c0_bound(spec.N, spec.n)
    lsv_values, norm_ok, events = [], 0, 0
    for trial_index in range(config.trials):
        X = sample_entry_matrix(spec, trial_index)
        s_min = float(resolvent_singular_values(X, spec.k, [z]).min())
        lsv_values.append(s_min)
        if linalg.operator_norm(X) <= c0:
            norm_ok += 1
            if s_min <= threshold:
                events += 1
    freq = events / config.trials
    return TailReport(
        threshold=float(threshold),
        c0_bound=float(c0),
        lsv_values=lsv_values,
        norm_ok_count=norm_ok,
        event_count=events,
        frequency=float(freq),
        passed=bool(freq <= config.thresholds["lsv_tail_freq"]),
    )


@dataclass
class LinearizationReport:
    lsv_H_prime: float
    lsv_resolvent: float
    lower_bound_ok: bool
    multiset_max_gap: float
    multiset_ok: bool
    norm_H: float
    norm_budget: float
    norm_ok: bool
    passed: bool


def linearization_check(X, z: complex, k: int) -> LinearizationReport:
    """Verify the three linearization facts on one sample:
    s_min(H') <= s_min(Y - zI), identical singular multisets of H and H',
    and ||H|| <= |z| + 1 + ||X||."""
    X = np.asarray(X, dtype=complex)
    H_prime, H = build_linearization(X, z, k)
    s_Hp = linalg.singular_values(H_prime)
    s_H = s_Hp if H is H_prime else linalg.singular_values(H)
    lsv_Hp = float(s_Hp[-1])
    lsv_res = float(resolvent_singular_values(X, k, [z]).min())
    scale = max(float(s_Hp[0]), 1.0)
    lower_ok = lsv_Hp <= lsv_res + LINEARIZATION_TOL * scale
    gap = float(np.max(np.abs(s_H - s_Hp)))
    multiset_ok = gap <= LINEARIZATION_TOL * scale
    norm_H = float(s_H[0])
    budget = abs(z) + 1.0 + linalg.operator_norm(X)
    norm_ok = norm_H <= budget + LINEARIZATION_TOL * scale
    return LinearizationReport(
        lsv_H_prime=lsv_Hp,
        lsv_resolvent=float(lsv_res),
        lower_bound_ok=bool(lower_ok),
        multiset_max_gap=gap,
        multiset_ok=bool(multiset_ok),
        norm_H=norm_H,
        norm_budget=float(budget),
        norm_ok=bool(norm_ok),
        passed=bool(lower_ok and multiset_ok and norm_ok),
    )


@dataclass
class HermitizationReport:
    grid_spacing: float
    total_mass: float
    tv_distance: float
    flagged_cells: int
    passed: bool


def log_potential_grid(Y, lam, xs) -> tuple[np.ndarray, int]:
    """L(z) = -(1/N) sum ln s_i(Y - zI) at z = xs[i] + i xs[j], as L[i, j],
    and the number of flagged cells, where s_min(Y - zI) < S_FLOOR.

    lam holds the eigenvalues of Y (linalg.eigenvalues). Since
    sum ln s_i(Y - zI) = ln|det(Y - zI)| = sum ln|lambda_i - z|, L is
    evaluated a row of cells at a time. Near an eigenvalue that identity
    loses accuracy and the clamp at S_FLOOR changes L. An eigenpair
    (Y - zI)v = (lambda - z)v gives s_min(Y - zI) <= |lambda - z|, so a cell
    whose min |lambda_i - z| is below SVD_FALLBACK_FACTOR * S_FLOOR takes L
    from the singular values of Y - zI clamped at S_FLOOR instead. Y always
    has such a cell when a node sits on its structural zero eigenvalue
    (rank <= n - k).
    """
    guard = SVD_FALLBACK_FACTOR * S_FLOOR
    L = np.empty((xs.size, xs.size))
    flagged = 0
    for i, x in enumerate(xs):
        row = x + 1j * xs
        dist = np.abs(lam - row[:, None])
        with np.errstate(divide="ignore"):
            L[i] = -np.mean(np.log(dist), axis=1)
        for j in np.flatnonzero(dist.min(axis=1) < guard):
            s = linalg.singular_values(linalg.minus_identity(Y, row[j]))
            if s[-1] < S_FLOOR:
                flagged += 1
            L[i, j] = -float(np.mean(np.log(np.maximum(s, S_FLOOR))))
    return L, flagged


def hermitization_pipeline(config: ExperimentConfig, half_width: float | None = None,
                           h: float = 0.1) -> HermitizationReport:
    """Recover the eigenvalue density from log potentials on a z-grid.

    Evaluates L(z) = -(1/N) sum ln s_i(Y - zI) from one eigensolve of Y
    (log_potential_grid), applies the 5-point discrete Laplacian scaled by
    -1/(2 pi), clips negatives, normalizes, and compares with the histogram
    of those eigenvalues by total variation. The comparison aggregates
    TV_BLOCK x TV_BLOCK cells first: the Laplacian spreads each unit charge
    over the nodes adjacent to it while the histogram assigns it to one cell,
    so single-cell TV measures that sub-cell smearing rather than the
    recovery error.
    """
    spec = config.spec
    Y = build_autocov(sample_entry_matrix(spec, 0), spec.k)
    eigs = linalg.eigenvalues(Y)
    if half_width is None:
        half_width = Gamma0Law(spec.gamma0).support_radius + 2 * h
    xs = np.arange(-half_width, half_width + h / 2, h)
    L, flagged = log_potential_grid(Y, eigs, xs)
    lap = (L[:-2, 1:-1] + L[2:, 1:-1] + L[1:-1, :-2] + L[1:-1, 2:]
           - 4.0 * L[1:-1, 1:-1]) / (h * h)
    density = np.clip(-lap / (2.0 * np.pi), 0.0, None)
    total_mass = float(np.sum(density) * h * h)
    if total_mass > 0:
        density_norm = density / np.sum(density)
    else:
        density_norm = density
    # Histogram eigenvalues over the same interior cells.
    interior = xs[1:-1]
    edges = np.concatenate([interior - h / 2, [interior[-1] + h / 2]])
    hist, _, _ = np.histogram2d(eigs.real, eigs.imag, bins=[edges, edges])
    hist = hist / eigs.size
    b = TV_BLOCK
    m = (density_norm.shape[0] // b) * b
    coarse_dens = density_norm[:m, :m].reshape(m // b, b, m // b, b).sum(axis=(1, 3))
    coarse_hist = hist[:m, :m].reshape(m // b, b, m // b, b).sum(axis=(1, 3))
    tv = float(0.5 * np.sum(np.abs(coarse_dens - coarse_hist)))
    return HermitizationReport(
        grid_spacing=float(h),
        total_mass=total_mass,
        tv_distance=tv,
        flagged_cells=flagged,
        passed=bool(tv <= config.thresholds["hermitization_tv"]),
    )


@dataclass
class LargeKReport:
    stability_ks: float
    stability_ok: bool
    resolvent_errors: list[float]
    mean_resolvent_error: float
    resolvent_ok: bool
    zero_eigs: int
    zero_required: int
    atom_ok: bool
    passed: bool


def resolvent_trace_means(Xs, k: int, z_list, t_list) -> list:
    """Mean over the entry matrices Xs of empirical_resolvent_trace(Y, z, t),
    Y = build_autocov(X, k), at every (z, t), z-major. The singular values of
    Y - zI for each (X, z) come from resolvent_singular_values and serve
    every t; Xs may be a generator, so only one X need be held at a time."""
    per_point = [[] for _ in range(len(z_list) * len(t_list))]
    for X in Xs:
        for i, s in enumerate(resolvent_singular_values(X, k, z_list)):
            for j, t in enumerate(t_list):
                per_point[i * len(t_list) + j].append(resolvent_trace(s, t))
    return [np.mean(values) for values in per_point]


def stability_spec(spec: EnsembleSpec) -> EnsembleSpec:
    """The 2n-sample of large_k_experiment's stability check: spec with n, N
    and k doubled, drawn as trial 0 of master seed + 1."""
    return EnsembleSpec(n=2 * spec.n, N=2 * spec.N, k=2 * spec.k, law=spec.law,
                        master_seed=spec.master_seed + 1)


def large_k_experiment(config: ExperimentConfig) -> LargeKReport:
    """Large-lag regime (k >= n/2): ESD stability between n and 2n, resolvent
    match against the fixed-point prediction, and the zero atom: the count of
    |lambda| <= ZERO_EIGENVALUE_TOL, of which N > n requires at least N - n.

    Trial 0 of the resolvent average is also the stability check's n-sample
    and the sample whose zero atom is counted. Both it and the 2n-sample take
    their eigenvalues from autocov_eigenvalues: an (n-k) x (n-k) eigensolve
    plus N - (n-k) exact zeros when n - k < N. The stability KS compares
    the atom_radii of both samples. The 2n-sample, whose X is the run's
    largest array, is sampled and decomposed first, so trial 0's X is not
    held alongside it.
    """
    spec = config.spec
    if spec.k < spec.n / 2:
        raise ValueError(f"requires k >= n/2, got k={spec.k}, n={spec.n}")
    # An empty list would leave the resolvent check averaging nothing.
    if not config.z_list or not config.t_list:
        raise ValueError("z_list and t_list must be nonempty")
    a = 1.0 - spec.gamma1
    z_list = [complex(z) for z in config.z_list]
    t_list = [float(t) for t in config.t_list]
    predictions = [predicted_stieltjes(ResolventParams(z=z, t=t, gamma0=spec.gamma0, a=a))
                   for z in z_list for t in t_list]

    big = stability_spec(spec)
    big_eigs = autocov_eigenvalues(sample_entry_matrix(big, 0), big.k)
    X0 = sample_entry_matrix(spec, 0)
    eigs = autocov_eigenvalues(X0, spec.k)
    stability = ks_two_sample(atom_radii(eigs), atom_radii(big_eigs))
    stability_ok = stability <= config.thresholds["stability_ks"]

    later = (sample_entry_matrix(spec, i) for i in range(1, config.trials))
    means = resolvent_trace_means(itertools.chain([X0], later), spec.k, z_list, t_list)
    errors = [float(abs(emp - pred)) for emp, pred in zip(means, predictions)]
    mean_error = float(np.mean(errors))
    resolvent_ok = mean_error <= config.thresholds["resolvent_abs_error"]

    zero_required = max(0, spec.N - spec.n)
    zero_eigs = int(np.count_nonzero(np.abs(eigs) <= ZERO_EIGENVALUE_TOL))
    atom_ok = zero_eigs >= zero_required
    return LargeKReport(
        stability_ks=float(stability),
        stability_ok=bool(stability_ok),
        resolvent_errors=errors,
        mean_resolvent_error=mean_error,
        resolvent_ok=bool(resolvent_ok),
        zero_eigs=zero_eigs,
        zero_required=zero_required,
        atom_ok=bool(atom_ok),
        passed=bool(stability_ok and resolvent_ok and atom_ok),
    )
