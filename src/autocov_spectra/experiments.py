"""Seeded Monte Carlo drivers turning finite-n matrix inequalities and
convergence statements into reproducible pass/fail reports.

Finite-n inequality checks (linearization, norm bound, atom at zero) must
hold on every trial. Convergence checks use calibrated KS thresholds, since
the underlying statements are asymptotic with no finite-n rates.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from autocov_spectra import linalg
from autocov_spectra.ensembles import (
    EnsembleSpec,
    build_autocov,  # not called here; perfbench's tracer test patches this name
    build_linearization,
    companion_eigenvalues,
    companion_side,
    default_c0_bound,
    resolvent_singular_values,
    sample_entry_matrix,
    sampled_companion,
    trial_seeds,
)
from autocov_spectra.fixed_point import (
    FixedPointSolution,
    ResolventParams,
    predicted_stieltjes,
    resolvent_trace,
    solve_s,
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
# an upper bound on s_min(Y - zI), is below this times S_FLOOR. It overshot
# s_min by at most 37x on 84 grids at n = N = 8 to 128, k = 1, and 79x on 42 at
# gamma0 = 1 to 3, k up to 0.625 n, so every cell with s_min < S_FLOOR falls
# back and is flagged; cells kept on the eigenvalue path have s_min far above
# the eps ||Y|| rounding level, where the log-potential identity is accurate.
SVD_FALLBACK_FACTOR = 1e6

# hermitization_pipeline clamps singular values of Y - zI at S_FLOOR, and
# compares the recovered density with the eigenvalue histogram over
# TV_BLOCK x TV_BLOCK blocks of grid cells.
S_FLOOR = 1e-12
TV_BLOCK = 2
# Fewest TV blocks per side of the grid's interior. At 2 a point mass at 0
# is within TV 0.02 of the eigenvalues at n = N = 16 and 64, h = 3 (gamma0 = 1);
# at 3 (h = 0.7 and 1.0 there) a uniform disk of half the support radius is
# within TV 0.10-0.14, so it passes hermitization_tv. 4 blocks do not always
# tell that disk apart either (TV 0.07 at h = 0.62), but h = 0.5 at n = N = 8
# and 16, which the tests run, has exactly 4 (README).
TV_MIN_BLOCKS = 4

# esd_experiment runs its trials through map_trials when the matrix each
# trial eigensolves (companion_side) has at least this side; smaller trials
# run in this process. Scanned as forked against serial CLI runs at n = N =
# side, k = 1, 2 and 5 trials, 10 alternating pairs each, in two scans (2
# vCPU, one BLAS thread). Forked wins of 10 at (2, 5) trials: side 256 (1, 4)
# and (3, 4); 320 (1, 3) and (2, 10); 384 (3, 9) and (10, 10); 448 and 512
# (10, 10) in both, at -22 % to -31 % wall time. 448 is the smallest side
# that won 9 of 10 at both counts in both scans.
ESD_FORK_MIN_SIDE = 448

DEFAULT_THRESHOLDS = {
    "radial_ks": 0.08,
    "lsv_tail_freq": 0.05,
    "resolvent_abs_error": 0.05,
    "stability_ks": 0.08,
    "hermitization_tv": 0.15,
}


def merged_thresholds(overrides: dict) -> dict:
    """DEFAULT_THRESHOLDS with overrides applied, checked: a non-numeric one
    would otherwise fail only at its comparison, after the experiment ran."""
    if not isinstance(overrides, dict):
        raise TypeError(f"thresholds must be a mapping, got {overrides!r}")
    for key, value in overrides.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"threshold {key!r} must be a number, got {value!r}")
        # A NaN threshold fails every run and an infinite one passes it.
        if not math.isfinite(value):
            raise ValueError(f"threshold {key!r} must be finite, got {value!r}")
    unknown = sorted(set(overrides) - set(DEFAULT_THRESHOLDS))
    if unknown:
        raise ValueError(f"unknown thresholds {unknown}; known: {sorted(DEFAULT_THRESHOLDS)}")
    return {**DEFAULT_THRESHOLDS, **overrides}


@dataclass
class ExperimentConfig:
    spec: EnsembleSpec
    trials: int = 1
    thresholds: dict = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        self.thresholds = merged_thresholds(self.thresholds)


class TrialWorkerError(RuntimeError):
    """A map_trials worker process ended without sending back its results."""


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where os.sched_getaffinity is missing.

    Sharding is checked only where sched_getaffinity exists (Linux, whose
    OpenBLAS stops its threads before a fork). On macOS numpy may be linked
    to Accelerate, which is not fork-safe, so trials run serially there."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fork_chunk(per_trial, start: int, stop: int) -> tuple[int, int] | None:
    """(pid, read end of its pipe) of a forked child that pickles (True,
    results) of trials start .. stop-1, or (False, exception) of the first
    that raised, into the pipe and ends with os._exit; None if no pipe or
    child can be made. A payload that cannot be pickled raises in the child,
    which then sends nothing and exits with status 1."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, [per_trial(i) for i in range(start, stop)])
            except BaseException as exc:  # sent to map_trials, which raises it
                payload = (False, exc)
            with open(write_fd, "wb") as fh:
                fh.write(pickle.dumps(payload))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def map_trials(trials: int, per_trial) -> list:
    """[per_trial(i) for i in range(trials)], in trial order, on
    min(usable_cpus(), trials) processes.

    range(trials) is cut into that many contiguous chunks. This process runs
    the first chunk; every other chunk runs in an os.fork'ed child, which
    inherits this process's memory and pickles its results back through a
    pipe. When per_trial(i) depends on i alone, the result therefore equals
    the serial loop's. A failing trial raises the exception of the earliest
    failing trial, as the serial loop would; a child that ends without
    sending a result raises TrialWorkerError. No child outlives the call.
    Chunks left without a child, when no pipe or process can be made, run
    in this process; one loop takes every chunk in order, running or
    collecting it. A trial may be any independent task: large_k_experiment
    maps two unlike ones. All chunks run under linalg.one_blas_thread, and
    the caller's count comes back on return: at OpenBLAS's default count,
    forked chunks stalled a library caller's large_k_experiment up to 2.3 s.

    fork, not spawn: a spawned worker would import numpy afresh, about a
    third of an lsv-tail run, and could not receive per_trial, a closure.
    The only other threads in a CLI run are OpenBLAS's, and OpenBLAS stops
    them itself before a fork. Processes, not threads: at one BLAS thread,
    two threads decomposing 100 x 100 matrices ran slower than one.
    """
    workers = max(1, min(usable_cpus(), trials))
    bounds = [(w * trials // workers, (w + 1) * trials // workers) for w in range(workers)]
    children = {}  # chunk start: (pid, read end) of every child not yet reaped
    with linalg.one_blas_thread():
        try:
            for start, stop in bounds[1:]:
                child = _fork_chunk(per_trial, start, stop)
                if child is None:
                    break
                children[start] = child
            results = []
            for start, stop in bounds:
                if start not in children:
                    results.extend(per_trial(i) for i in range(start, stop))
                    continue
                pid, read_fd = children[start]
                data = b"".join(iter(lambda: os.read(read_fd, 1 << 16), b""))
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[start]  # reaped: the finally must not kill or wait it again
                os.close(read_fd)
                try:
                    ok, value = pickle.loads(data)
                except Exception:  # no result, a truncated one, or one not rebuilt
                    raise TrialWorkerError(f"the worker for trials {start}-{stop - 1} "
                                           f"ended with status {code} and no result") from None
                if not ok:
                    raise value
                results.extend(value)
            return results
        finally:
            for pid, read_fd in children.values():
                os.kill(pid, signal.SIGKILL)
                os.close(read_fd)
                os.waitpid(pid, 0)


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

    Eigenvalues inside the zero atom (atom_radii) carry no angle and are
    excluded; fewer than ROTATION_MIN_COUNT remaining angles give nan.
    """
    eigs = np.asarray(eigs, dtype=complex).ravel()
    nz = eigs[atom_radii(eigs) > 0]
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


def esd_experiment(config: ExperimentConfig) -> tuple[ConvergenceReport, np.ndarray]:
    """(report, eigs): take each trial's N eigenvalues of Y from
    sampled_companion (holding neither X nor Y when n - k < N - 1), compare
    their empirical radial CDF to the small-lag limit law, and test angular
    uniformity; eigs are trial 0's N eigenvalues, which the CLI writes out.

    The radial KS scores atom_radii(eigs) with the law's left limit
    (Gamma0Law.radial_cdf_left), so when gamma0 > 1 the structural zeros of
    Y (rank <= n - k) fall in the law's atom at 0 instead of each scoring
    the atom's whole mass as a deviation.

    The tasks are the trials and, last, trial 0's spectrum, eigensolved
    again. They are independent and run through map_trials when each
    eigensolves a matrix of side at least ESD_FORK_MIN_SIDE
    (companion_side), so trials + 1 solves split evenly over the CPUs; below
    it a forked worker costs more than it saves, and they run in this
    process, in task order. The results are the same either way."""
    spec = config.spec
    law = Gamma0Law(spec.gamma0)

    def task(index: int):
        # Task config.trials is trial 0's again, and returns its eigenvalues.
        eigs = companion_eigenvalues(*sampled_companion(spec, index % config.trials))
        if index == config.trials:
            return eigs
        return (ks_statistic(atom_radii(eigs), law.radial_cdf, law.radial_cdf_left),
                rotation_invariance_test(eigs))

    if companion_side(spec) >= ESD_FORK_MIN_SIDE:
        *results, eigs = map_trials(config.trials + 1, task)
    else:
        *results, eigs = [task(i) for i in range(config.trials + 1)]
    radial_ks, angular_ks = map(list, zip(*results))
    mean_radial = float(np.mean(radial_ks))
    finite_ang = [a for a in angular_ks if np.isfinite(a)]
    mean_angular = float(np.mean(finite_ang)) if finite_ang else float("nan")
    passed = mean_radial <= config.thresholds["radial_ks"]
    return ConvergenceReport(
        radial_ks_per_trial=radial_ks,
        angular_ks_per_trial=angular_ks,
        mean_radial_ks=mean_radial,
        mean_angular_ks=mean_angular,
        seeds=trial_seeds(spec.master_seed, config.trials),
        passed=bool(passed),
    ), eigs


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
    smallness against the configured frequency threshold. The trials are
    independent and run through map_trials; ||X|| <= C0 is decided by
    linalg.norm_at_most, a Cholesky factorization, not an SVD.
    """
    spec = config.spec
    if z == 0:
        raise ValueError("z = 0 is excluded")
    threshold = spec.n ** (-37.0 / 22.0)
    c0 = default_c0_bound(spec.N, spec.n)

    def trial(index: int) -> tuple[float, bool]:
        X = sample_entry_matrix(spec, index)
        s_min = float(resolvent_singular_values(X, spec.k, [z]).min())
        return s_min, linalg.norm_at_most(X, c0)

    results = map_trials(config.trials, trial)
    lsv_values = [s_min for s_min, _ in results]
    norm_ok = sum(ok for _, ok in results)
    events = sum(ok and s_min <= threshold for s_min, ok in results)
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


def log_potential_grid(spec: EnsembleSpec, lam, xs) -> tuple[np.ndarray, int]:
    """L(z) = -(1/N) sum ln s_i(Y - zI) at z = xs[i] + i xs[j], as L[i, j],
    and the number of flagged cells, where s_min(Y - zI) < S_FLOOR, for Y
    of trial 0 of spec, whose N eigenvalues lam holds. Since
    sum ln s_i(Y - zI) = ln|det(Y - zI)| = sum ln|lambda_i - z|, L is
    evaluated a row of cells at a time. Near an eigenvalue that identity
    loses accuracy and the clamp at S_FLOOR changes L. An eigenpair
    (Y - zI)v = (lambda - z)v gives s_min(Y - zI) <= |lambda - z|, so a cell
    whose min |lambda_i - z| is below SVD_FALLBACK_FACTOR * S_FLOOR takes L
    from the singular values of Y - zI clamped at S_FLOOR instead. Y always
    has such a cell when a node sits on its structural zero eigenvalue
    (rank <= n - k). All such cells take one resolvent_singular_values call.
    """
    guard = SVD_FALLBACK_FACTOR * S_FLOOR
    L = np.empty((xs.size, xs.size))
    near = np.empty(L.shape, dtype=bool)
    for i, x in enumerate(xs):
        dist = np.abs(lam - (x + 1j * xs)[:, None])
        with np.errstate(divide="ignore"):
            L[i] = -np.mean(np.log(dist), axis=1)
        near[i] = dist.min(axis=1) < guard
    if not near.any():
        return L, 0
    zs = (xs[:, None] + 1j * xs)[near]
    s = resolvent_singular_values(sample_entry_matrix(spec, 0), spec.k, zs)
    L[near] = -np.mean(np.log(np.maximum(s, S_FLOOR)), axis=1)
    return L, int(np.count_nonzero(s[:, -1] < S_FLOOR))


def bilinear_histogram(points, nodes, h: float) -> np.ndarray:
    """hist[i, j]: the share of the complex points at node nodes[i] + i
    nodes[j] of the square grid with spacing h, each point split over the
    four nodes around it with bilinear ("cloud-in-cell") weights. Weight
    that falls on a node outside the grid is dropped."""
    u, v = (np.real(points) - nodes[0]) / h, (np.imag(points) - nodes[0]) / h
    i0, j0 = np.floor(u), np.floor(v)
    hist = np.zeros((nodes.size, nodes.size))
    for i, wu in ((i0, i0 + 1 - u), (i0 + 1, u - i0)):
        for j, wv in ((j0, j0 + 1 - v), (j0 + 1, v - j0)):
            ok = (0 <= i) & (i < nodes.size) & (0 <= j) & (j < nodes.size)
            np.add.at(hist, (i[ok].astype(int), j[ok].astype(int)), (wu * wv)[ok])
    return hist / np.size(points)


def hermitization_pipeline(config: ExperimentConfig, h: float = 0.1) -> HermitizationReport:
    """Recover the eigenvalue density from log potentials on the z-grid of
    spacing h over [-w, w]^2, w = the limit law's support radius + 2h.

    Evaluates L(z) = -(1/N) sum ln s_i(Y - zI) from trial 0's eigenvalues
    (log_potential_grid), which sampled_companion takes from a companion,
    never forming Y, when n - k < N - 1. Applies the 5-point discrete
    Laplacian scaled by -1/(2 pi), clips negatives, normalizes, and compares
    with the histogram of those eigenvalues by total variation. The
    Laplacian spreads each unit charge over the nodes around it, so the
    histogram does too (bilinear_histogram): a one-cell histogram would put
    each eigenvalue, and the whole zero atom, in a single cell, and the TV
    would measure where the eigenvalues sit relative to the grid rather than
    the recovery error. The comparison aggregates TV_BLOCK x TV_BLOCK cells
    first. An h that is not positive and finite, or that leaves fewer than
    TV_MIN_BLOCKS blocks per side of the grid's interior, is a ValueError:
    so coarse a comparison passes a wrong density, and with one block the TV
    is about 0 by construction.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"grid spacing h must be positive and finite, got {h}")
    spec = config.spec
    half_width = Gamma0Law(spec.gamma0).support_radius + 2 * h
    xs = np.arange(-half_width, half_width + h / 2, h)
    if (xs.size - 2) // TV_BLOCK < TV_MIN_BLOCKS:
        raise ValueError(f"h={h} leaves fewer than {TV_MIN_BLOCKS} TV blocks per side "
                         "of the z-grid")
    eigs = companion_eigenvalues(*sampled_companion(spec, 0))
    L, flagged = log_potential_grid(spec, eigs, xs)
    lap = (L[:-2, 1:-1] + L[2:, 1:-1] + L[1:-1, :-2] + L[1:-1, 2:]
           - 4.0 * L[1:-1, 1:-1]) / (h * h)
    density = np.clip(-lap / (2.0 * np.pi), 0.0, None)
    total_mass = float(np.sum(density) * h * h)
    if total_mass > 0:
        density_norm = density / np.sum(density)
    else:
        density_norm = density
    hist = bilinear_histogram(eigs, xs[1:-1], h)
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


def resolvent_trace_means(spec: EnsembleSpec, trials: int, z_list, t_list) -> np.ndarray:
    """Mean over trials 0 .. trials-1 of spec of empirical_resolvent_trace(Y,
    z, t), Y = build_autocov(X, spec.k), at every (z, t), z-major. Each trial
    holds its X only for resolvent_singular_values, whose rows serve every t.
    The mean over a contiguous trial axis rounds as np.mean of 1-d trials."""
    per_trial = np.empty((len(z_list), len(t_list), trials), dtype=complex)
    for i in range(trials):
        s = resolvent_singular_values(sample_entry_matrix(spec, i), spec.k, z_list)
        per_trial[..., i] = resolvent_trace(s, t_list)
    return per_trial.mean(axis=-1).ravel()


def resolvent_check(spec: EnsembleSpec, trials: int, z_list, t_list,
                    points: list[ResolventParams]
                    ) -> tuple[list[FixedPointSolution], list[complex], list[float]]:
    """At every (z, t) of z_list x t_list, z-major, whose ResolventParams are
    points: solve_s's solution, the empirical mean of resolvent_trace_means
    and its error |empirical - predicted_stieltjes|. Every point is solved
    once, after the trials: solving first raised the peak RSS of large-k's
    forked task by 1.9 MB on a 2-vCPU VM (README)."""
    means = resolvent_trace_means(spec, trials, z_list, t_list)
    solutions = [solve_s(params) for params in points]
    errors = [float(abs(emp - predicted_stieltjes(params, sol)))
              for params, sol, emp in zip(points, solutions, means)]
    return solutions, means.tolist(), errors


def stability_spec(spec: EnsembleSpec) -> EnsembleSpec:
    """The 2n-sample of large_k_experiment's stability check: spec with n, N
    and k doubled, drawn as trial 0 of master seed + 1."""
    return EnsembleSpec(n=2 * spec.n, N=2 * spec.N, k=2 * spec.k, law=spec.law,
                        master_seed=spec.master_seed + 1)


def large_k_experiment(config: ExperimentConfig, z_list, t_list) -> LargeKReport:
    """Large-lag regime (k >= n/2): ESD stability between n and 2n, resolvent
    match against the fixed-point prediction at every (z, t) of z_list x
    t_list, and the zero atom.

    Trial 0 of the resolvent average is also the stability check's n-sample
    and the sample whose zero atom is counted. Both it and the 2n-sample take
    their eigenvalues from sampled_companion: an (n-k) x (n-k) eigensolve
    plus N - (n-k) exact zeros when n - k < N - 1, summed over row blocks of
    X, which is never held. The stability KS compares the atom_radii of both
    samples. Y has rank at most n - k, so its atom, the count of eigenvalues
    atom_radii puts at 0, is at least max(0, N - (n-k)), which N > n makes at
    least N - n (zero_required).
    The atom passes when it is exactly the rank defect max(0, N - (n-k)), so
    a singular companion, or a Y (decomposed itself when n - k >= N - 1) of
    lower rank than n - k, fails it.

    Task 0 takes both spectra, the 2n-sample's first, and task 1 the
    resolvent check (its means, then its solves): on two CPUs map_trials(2, ...)
    forks task 1, so every eigensolve is in this process and every resolvent
    SVD in the child; on one they run in that order. Trial 0's X is drawn
    twice, streamed for its companion and whole for its resolvent trial.
    """
    spec = config.spec
    if spec.k < spec.n / 2:
        raise ValueError(f"requires k >= n/2, got k={spec.k}, n={spec.n}")
    # An empty list would leave the resolvent check averaging nothing.
    if not z_list or not t_list:
        raise ValueError("z_list and t_list must be nonempty")
    a = 1.0 - spec.gamma1
    z_list = [complex(z) for z in z_list]
    t_list = [float(t) for t in t_list]
    # Built first, so a point the solver rejects fails before any trial runs.
    points = [ResolventParams(z=z, t=t, gamma0=spec.gamma0, a=a) for z in z_list for t in t_list]

    def spectra():
        return [companion_eigenvalues(*sampled_companion(s, 0))
                for s in (stability_spec(spec), spec)]

    def resolvent():
        return resolvent_check(spec, config.trials, z_list, t_list, points)[2]

    tasks = (spectra, resolvent)
    (big_eigs, eigs), errors = map_trials(2, lambda i: tasks[i]())
    stability = ks_two_sample(atom_radii(eigs), atom_radii(big_eigs))
    stability_ok = stability <= config.thresholds["stability_ks"]
    mean_error = float(np.mean(errors))
    resolvent_ok = mean_error <= config.thresholds["resolvent_abs_error"]

    zero_required = max(0, spec.N - spec.n)
    zero_eigs = int(np.count_nonzero(atom_radii(eigs) == 0))
    atom_ok = zero_eigs == max(0, spec.N - (spec.n - spec.k))
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
