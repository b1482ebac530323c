import csv
import json
import os
import tracemalloc
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from test_linalg import RANK_TOL, perturbation_interlacing_check

from autocov_spectra import cli, ensembles, experiments, linalg
from autocov_spectra.ensembles import (
    EnsembleSpec,
    build_autocov,
    build_circular,
    sample_entry_matrix,
)
from autocov_spectra.experiments import (
    DEFAULT_THRESHOLDS,
    ExperimentConfig,
    esd_experiment,
    hermitization_pipeline,
    log_potential_grid,
    ks_statistic,
    ks_two_sample,
    large_k_experiment,
    linearization_check,
    lsv_tail_experiment,
    rotation_invariance_test,
)
from autocov_spectra.fixed_point import (
    ResolventParams,
    empirical_resolvent_trace,
    predicted_stieltjes,
)
from autocov_spectra.limit_law import Gamma0Law


@dataclass
class RankPerturbationReport:
    interlacing_ok: bool
    worst_margin: float
    diff_rank_one: bool
    log_mass_Y: float
    log_mass_Z: float
    log_mass_bound: float
    log_mass_ok: bool
    passed: bool


def _small_log_mass(s: np.ndarray, delta: float) -> float:
    """|integral_0^delta ln(lambda) d nu| = (1/N) sum_{s_i < delta} |ln s_i|."""
    small = s[s < delta]
    if small.size == 0:
        return 0.0
    return float(np.sum(np.abs(np.log(small))) / s.size)


def rank_perturbation_experiment(X, z: complex, delta: float = 0.1) -> RankPerturbationReport:
    """Compare Y and its circular variant Z built from the same X (k = 1):
    the shifted singular values interlace across the rank-one difference, and
    the small-singular-value log mass of Y - zI is dominated by its least
    term plus the Z log mass."""
    X = np.asarray(X, dtype=complex)
    N = X.shape[0]
    Y = build_autocov(X, 1)
    Z = build_circular(X)
    I = np.eye(N)
    report = perturbation_interlacing_check(Y - z * I, Z - z * I, r=1)
    diff_s = linalg.singular_values(Z - Y)
    scale = max(float(diff_s[0]), 1.0)
    rank_one = bool(diff_s.size < 2 or diff_s[1] <= RANK_TOL * scale)
    s_Y = linalg.singular_values(Y - z * I)
    s_Z = linalg.singular_values(Z - z * I)
    mass_Y = _small_log_mass(s_Y, delta)
    mass_Z = _small_log_mass(s_Z, delta)
    bound = float(np.abs(np.log(s_Y[-1])) / N + mass_Z)
    mass_ok = mass_Y <= bound + 1e-12
    return RankPerturbationReport(
        interlacing_ok=report.passed,
        worst_margin=report.worst_margin,
        diff_rank_one=rank_one,
        log_mass_Y=mass_Y,
        log_mass_Z=mass_Z,
        log_mass_bound=bound,
        log_mass_ok=bool(mass_ok),
        passed=bool(report.passed and rank_one and mass_ok),
    )


class TestKsHelpers:
    def test_one_sample_exact_uniform_grid(self):
        # Points at i/m against U(0,1): sup gap is 1/m at the left of each jump.
        m = 10
        sample = np.arange(1, m + 1) / m
        assert ks_statistic(sample, lambda x: x) == pytest.approx(1.0 / m)

    def test_one_sample_point_mass(self):
        assert ks_statistic([0.5], lambda x: (x >= 1.0).astype(float)) == pytest.approx(1.0)

    def test_cdf_called_once_on_the_sorted_sample(self):
        calls = []

        def cdf(x):
            calls.append(x.copy())
            return x

        # Against U(0,1) the largest gap is 1 - 0.7 at the last jump.
        assert ks_statistic([0.7, 0.1, 0.4], cdf) == pytest.approx(0.3)
        assert len(calls) == 1
        assert calls[0].tolist() == [0.1, 0.4, 0.7]

    def test_one_sample_left_limit_at_an_atom(self):
        # F = 0.5 at 0, then U(0,1) mass 0.5 above: F(x-) = 0 at x = 0 only.
        def cdf(x):
            return np.where(x >= 0, 0.5 + 0.5 * x, 0.0)

        def cdf_left(x, F):
            return np.where(x > 0, F, 0.0)

        sample = np.concatenate([np.zeros(5), (np.arange(1, 6) - 0.5) / 5])
        # Continuous-F formula: F(0) - 0/m = 0.5 at the first point.
        assert ks_statistic(sample, cdf) == pytest.approx(0.5)
        assert ks_statistic(sample, cdf, cdf_left) == pytest.approx(0.05)

    def test_two_sample_identical(self):
        a = np.array([0.1, 0.4, 0.9])
        assert ks_two_sample(a, a) == 0.0

    def test_two_sample_disjoint(self):
        assert ks_two_sample([0.0, 0.1], [1.0, 1.1]) == pytest.approx(1.0)

    def test_two_sample_half_shift(self):
        a = [0.0, 1.0]
        b = [0.0, 1.0, 2.0, 3.0]
        # F_a jumps to 1 at x=1; F_b there is 1/2.
        assert ks_two_sample(a, b) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], lambda x: x)


class TestRotationInvariance:
    def test_uniform_angles_pass(self):
        rng = np.random.default_rng(0)
        eigs = np.exp(2j * np.pi * rng.uniform(size=2000))
        assert rotation_invariance_test(eigs) <= 0.05

    def test_degenerate_angles_large_ks(self):
        eigs = np.full(500, 1.0 + 0j)
        assert rotation_invariance_test(eigs) > 0.9

    def test_zero_atom_excluded(self):
        eigs = np.zeros(500, dtype=complex)
        assert np.isnan(rotation_invariance_test(eigs))


class TestEsdExperiment:
    def test_determinism_and_fields(self):
        config = ExperimentConfig(
            spec=EnsembleSpec(n=64, N=64, k=1, master_seed=3), trials=2)
        rep1 = esd_experiment(config)
        rep2 = esd_experiment(config)
        assert rep1.radial_ks_per_trial == rep2.radial_ks_per_trial
        assert len(rep1.seeds) == 2 and rep1.seeds[0] != rep1.seeds[1]
        assert rep1.mean_radial_ks == pytest.approx(
            np.mean(rep1.radial_ks_per_trial))

    def test_moderate_size_passes_threshold(self):
        config = ExperimentConfig(
            spec=EnsembleSpec(n=128, N=128, k=1, master_seed=4), trials=2)
        rep = esd_experiment(config)
        assert rep.passed
        assert rep.mean_radial_ks <= DEFAULT_THRESHOLDS["radial_ks"]

    def test_structural_zeros_score_exactly_their_mass(self):
        # gamma0 = 1 has no atom, so Y's k structural zeros, snapped to 0,
        # put the sup at their upper edge: exactly k/N, free of the
        # eigensolver's rounding noise inside the atom.
        config = ExperimentConfig(
            spec=EnsembleSpec(n=64, N=64, k=20, master_seed=1), trials=2)
        assert esd_experiment(config).radial_ks_per_trial == [20 / 64, 20 / 64]

    @pytest.mark.parametrize("N", [192, 256])
    def test_wide_sample_passes_with_its_zero_atom(self, N):
        # gamma0 > 1: N - n of Y's eigenvalues sit in the law's atom at 0.
        config = ExperimentConfig(
            spec=EnsembleSpec(n=128, N=N, k=1, master_seed=4), trials=2)
        rep = esd_experiment(config)
        assert rep.passed
        assert max(rep.radial_ks_per_trial) <= DEFAULT_THRESHOLDS["radial_ks"]


class TestTrialMemory:
    """X is dropped once Y is built: at each eigensolve of Y, tracemalloc
    (which sees numpy's buffers) finds Y held but not X, as large as Y here."""

    N = 256

    def run_esd_cli(self, tmp_path):
        cfg = tmp_path / "esd.json"
        cfg.write_text(json.dumps({"n": self.N, "N": self.N, "k": 1, "seed": 3,
                                   "trials": 2}))
        cli.main(["esd", str(cfg), "--output-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize("caller", ["esd_experiment", "hermitization_pipeline", "cli-esd"])
    def test_eigensolve_holds_y_without_x(self, caller, monkeypatch, tmp_path):
        config = ExperimentConfig(spec=EnsembleSpec(n=self.N, N=self.N, k=1, master_seed=3),
                                  trials=2)
        run = {"esd_experiment": lambda: esd_experiment(config),
               "hermitization_pipeline": lambda: hermitization_pipeline(config, h=0.2),
               "cli-esd": lambda: self.run_esd_cli(tmp_path)}[caller]
        held, original = [], linalg.eigenvalues

        def recording(M):
            held.append(tracemalloc.get_traced_memory()[0] - base)
            return original(M)

        monkeypatch.setattr(linalg, "eigenvalues", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
        finally:
            tracemalloc.stop()
        y_bytes = self.N * self.N * 16
        assert held and max(held) <= y_bytes * 5 // 4

    def test_large_k_2n_eigensolve_holds_no_trial_0_x(self, monkeypatch):
        # At the 2n-sample's eigensolve only its X and its 2m x 2m product
        # X_0* X_k are held, not trial 0's X (a quarter of the 2n X).
        n, N, k = 128, 192, 64
        config = ExperimentConfig(spec=EnsembleSpec(n=n, N=N, k=k, master_seed=3),
                                  trials=2, z_list=[1.0 + 0j], t_list=[0.5])
        held, original = {}, linalg.eigenvalues

        def recording(M):
            held[np.shape(M)] = tracemalloc.get_traced_memory()[0] - base
            return original(M)

        large_k_experiment(config)  # first-call imports and caches stay untraced
        monkeypatch.setattr(ensembles, "eigenvalues", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            large_k_experiment(config)
        finally:
            tracemalloc.stop()
        m = n - k
        big_x_bytes = 2 * N * 2 * n * 16
        big_product_bytes = 2 * m * 2 * m * 16
        x0_bytes = N * n * 16
        assert held[(2 * m, 2 * m)] <= big_x_bytes + big_product_bytes + x0_bytes // 4

    @pytest.mark.parametrize("n,N,k", [(128, 192, 64), (64, 16, 32)],
                             ids=["companion", "full"])
    def test_large_k_2n_eigensolve_holds_no_x(self, n, N, k, monkeypatch):
        # A weak reference to the 2n-sample's X is dead inside the eigensolve
        # of its companion (of its Y, when n - k >= N): no frame holds X.
        config = ExperimentConfig(spec=EnsembleSpec(n=n, N=N, k=k, master_seed=3),
                                  trials=2, z_list=[1.0 + 0j], t_list=[0.5])
        refs, freed = [], {}
        sample, original = experiments.sample_entry_matrix, linalg.eigenvalues

        def sampler(spec, i):
            X = sample(spec, i)
            if spec.n == 2 * n:
                refs.append(weakref.ref(X))
            return X

        def recording(M):
            freed[np.shape(M)] = [ref() is None for ref in refs]
            return original(M)

        monkeypatch.setattr(experiments, "sample_entry_matrix", sampler)
        monkeypatch.setattr(ensembles, "eigenvalues", recording)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
        large_k_experiment(config)
        size = 2 * min(n - k, N)
        assert freed[(size, size)] == [True]

    def test_large_k_2n_eigensolve_holds_the_product_alone(self, monkeypatch):
        # Of the 2n-sample, only its 2m x 2m product X_0* X_k is held at its
        # eigensolve: not its X, six times as large here.
        n, N, k = 128, 192, 64
        config = ExperimentConfig(spec=EnsembleSpec(n=n, N=N, k=k, master_seed=3),
                                  trials=2, z_list=[1.0 + 0j], t_list=[0.5])
        held, original = {}, linalg.eigenvalues

        def recording(M):
            held[np.shape(M)] = tracemalloc.get_traced_memory()[0] - base
            return original(M)

        monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
        large_k_experiment(config)  # first-call imports and caches stay untraced
        monkeypatch.setattr(ensembles, "eigenvalues", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            large_k_experiment(config)
        finally:
            tracemalloc.stop()
        m = n - k
        big_product_bytes = 2 * m * 2 * m * 16
        assert held[(2 * m, 2 * m)] <= big_product_bytes + 32 * 1024

    def test_large_k_resolvent_svds_hold_one_x(self, monkeypatch):
        # At each resolvent SVD of the trial task, the current trial's X and
        # the d x d matrix being decomposed are held: not trial 0's X in a
        # later trial, nor the QR factor R or a shifted copy per z.
        n, N, k = 128, 192, 64
        config = ExperimentConfig(spec=EnsembleSpec(n=n, N=N, k=k, master_seed=3),
                                  trials=3, z_list=[0.5 + 0j, 1.0 + 1j], t_list=[0.5])
        held, original = [], ensembles.singular_values

        def recording(M):
            held.append((len(M), tracemalloc.get_traced_memory()[0] - base))
            return original(M)

        monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
        large_k_experiment(config)  # first-call imports and caches stay untraced
        monkeypatch.setattr(ensembles, "singular_values", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            large_k_experiment(config)
        finally:
            tracemalloc.stop()
        assert len(held) == config.trials * len(config.z_list)
        x_bytes = N * n * 16
        for d, nbytes in held:
            assert nbytes <= x_bytes + d * d * 16 + 64 * 1024


class TestLsvTail:
    def test_small_run(self):
        config = ExperimentConfig(
            spec=EnsembleSpec(n=50, N=50, k=1, master_seed=5), trials=20)
        rep = lsv_tail_experiment(config, z=1.0 + 0j)
        assert len(rep.lsv_values) == 20
        assert 0 <= rep.event_count <= rep.norm_ok_count <= 20
        assert rep.frequency == rep.event_count / 20

    def test_z_zero_rejected(self):
        config = ExperimentConfig(spec=EnsembleSpec(n=20, N=20, k=1), trials=1)
        with pytest.raises(ValueError):
            lsv_tail_experiment(config, z=0.0)

    def test_wide_minimum_matches_full_svd(self):
        # N = 48 > d = 16: the SVD is of a 16 x 16 core, and |z| fills the
        # other 32 singular values. Y is singular, so s_min(Y - zI) <= |z|;
        # here it is strictly smaller, so the fill is not the minimum.
        spec = EnsembleSpec(n=16, N=48, k=1, master_seed=15)
        z = 0.8 + 0.2j
        rep = lsv_tail_experiment(ExperimentConfig(spec=spec, trials=4), z)
        for i, got in enumerate(rep.lsv_values):
            Y = build_autocov(sample_entry_matrix(spec, i), spec.k)
            full = linalg.singular_values(Y - z * np.eye(spec.N))
            assert abs(got - full[-1]) <= 1e-13 * (full[0] + abs(z))
            assert got < abs(z) - 1e-6


class TestMapTrials:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("trials", [1, 2, 7, 9])
    def test_results_in_trial_order(self, monkeypatch, workers, trials):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: workers)
        got = experiments.map_trials(trials, lambda i: (i, float(i) ** 0.5, {"i": [i]}))
        assert got == [(i, float(i) ** 0.5, {"i": [i]}) for i in range(trials)]

    def test_chunks_run_in_one_process_each(self, monkeypatch):
        # 7 trials on 3 workers: trials 0-1 here, 2-3 and 4-6 in two children.
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 3)
        pids = experiments.map_trials(7, lambda i: os.getpid())
        assert pids[:2] == [os.getpid()] * 2
        assert pids[2] == pids[3] and pids[4] == pids[5] == pids[6]
        assert len(set(pids)) == 3

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("failing,first", [({2, 6}, 2), ({4, 7}, 4), ({8}, 8)])
    def test_earliest_failing_trial_raises(self, monkeypatch, workers, failing, first):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: workers)

        def trial(i):
            if i in failing:
                raise np.linalg.LinAlgError(f"trial {i} failed")
            return i

        with pytest.raises(np.linalg.LinAlgError, match=f"^trial {first} failed$"):
            experiments.map_trials(9, trial)

    def test_worker_without_result_raises(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        parent = os.getpid()

        def trial(i):
            if os.getpid() != parent:
                os._exit(1)
            return i

        with pytest.raises(experiments.TrialWorkerError,
                           match="trials 2-3 ended with status 1 and no result"):
            experiments.map_trials(4, trial)

    def test_unpicklable_result_raises(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        with pytest.raises(experiments.TrialWorkerError,
                           match="trials 1-1 ended with status 1 and no result"):
            experiments.map_trials(2, lambda i: lambda: i)

    def test_runs_here_when_no_child_can_be_made(self, monkeypatch):
        def no_fork():
            raise OSError("no process to spare")

        monkeypatch.setattr(experiments, "usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", no_fork)
        assert experiments.map_trials(7, lambda i: (i, os.getpid())) == [
            (i, os.getpid()) for i in range(7)]

    def test_worker_sees_one_blas_thread(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        with linalg.one_blas_thread():
            counts = experiments.map_trials(2, lambda i: (os.getpid(), linalg.blas_thread_counts()))
        assert counts[1][0] != os.getpid()
        assert [c for _, c in counts] == [{name: 1 for name in counts[0][1]}] * 2

    def test_lsv_tail_norm_gate_counts_operator_norms(self, monkeypatch):
        # C0 at the median norm, so the gate goes both ways.
        spec = EnsembleSpec(n=20, N=20, k=1, master_seed=3)
        norms = [linalg.operator_norm(sample_entry_matrix(spec, i)) for i in range(40)]
        c0 = float(np.median(norms))
        monkeypatch.setattr(experiments, "default_c0_bound", lambda N, n: c0)
        rep = lsv_tail_experiment(ExperimentConfig(spec=spec, trials=40), 1.0 + 0j)
        assert rep.norm_ok_count == sum(norm <= c0 for norm in norms) == 20


class TestLinearizationCheck:
    @pytest.mark.parametrize("k,z", [(1, 1 + 0j), (5, 1j), (40, -0.5 + 0j)])
    def test_branches(self, k, z):
        spec = EnsembleSpec(n=64, N=64, k=k, master_seed=6)
        X = sample_entry_matrix(spec, 0)
        rep = linearization_check(X, z, k)
        assert rep.passed
        assert rep.lsv_H_prime <= rep.lsv_resolvent + 1e-9
        assert rep.norm_H <= rep.norm_budget + 1e-9


class TestRankPerturbation:
    def test_trials(self):
        spec = EnsembleSpec(n=48, N=48, k=1, master_seed=7)
        for trial in range(5):
            X = sample_entry_matrix(spec, trial)
            rep = rank_perturbation_experiment(X, z=1.0 + 0j)
            assert rep.passed
            assert rep.diff_rank_one and rep.interlacing_ok
            assert rep.log_mass_Y <= rep.log_mass_bound + 1e-12


class TestHermitization:
    SPEC = EnsembleSpec(n=96, N=96, k=1, master_seed=8)

    def test_small_run(self):
        # At the defaults: h = 0.1 and the 0.15 TV threshold.
        rep = hermitization_pipeline(ExperimentConfig(spec=self.SPEC))
        assert rep.grid_spacing == 0.1
        assert 0.7 <= rep.total_mass <= 1.3
        assert 0.0 <= rep.tv_distance <= DEFAULT_THRESHOLDS["hermitization_tv"]
        assert rep.flagged_cells == 0
        assert rep.passed

    @pytest.mark.parametrize("mutation", ["another-seed", "scaled-by-1.1"])
    def test_wrong_eigenvalues_fail(self, monkeypatch, mutation):
        # The histogram is fed wrong eigenvalues while the log potential
        # still comes from Y: the TV check must catch it.
        other_spec = EnsembleSpec(n=96, N=96, k=1, master_seed=9)
        other = linalg.eigenvalues(build_autocov(sample_entry_matrix(other_spec, 0), 1))
        wrong = {"another-seed": lambda eigs: other,
                 "scaled-by-1.1": lambda eigs: 1.1 * eigs}[mutation]
        histogram = experiments.bilinear_histogram
        monkeypatch.setattr(experiments, "bilinear_histogram",
                            lambda eigs, nodes, h: histogram(wrong(eigs), nodes, h))
        rep = hermitization_pipeline(ExperimentConfig(spec=self.SPEC))
        assert rep.tv_distance > DEFAULT_THRESHOLDS["hermitization_tv"]
        assert not rep.passed

    def test_bilinear_histogram_keeps_mass_and_mean(self):
        # Points inside the grid keep their total weight and their mean: the
        # four weights of a point average the nodes to the point itself.
        rng = np.random.default_rng(3)
        nodes = np.arange(-1.0, 1.05, 0.1)
        points = rng.uniform(-0.95, 0.95, 50) + 1j * rng.uniform(-0.95, 0.95, 50)
        hist = experiments.bilinear_histogram(points, nodes, 0.1)
        assert hist.min() >= 0.0
        assert hist.sum() == pytest.approx(1.0, abs=1e-12)
        mean = np.sum(hist * (nodes[:, None] + 1j * nodes[None, :]))
        assert mean == pytest.approx(points.mean(), abs=1e-12)


def svd_log_potential_grid(Y, xs, s_floor=1e-12):
    """Reference: one SVD of Y - zI per cell, clamped at s_floor. Returns L,
    the number of cells with s_min(Y - zI) < s_floor, and s_min per cell."""
    L = np.empty((xs.size, xs.size))
    s_min = np.empty_like(L)
    I = np.eye(Y.shape[0])
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            s = linalg.singular_values(Y - complex(x, y) * I)
            s_min[i, j] = s[-1]
            L[i, j] = -float(np.mean(np.log(np.maximum(s, s_floor))))
    return L, int(np.sum(s_min < s_floor)), s_min


def reference_tv(L, eigs, xs, h, tv_block=2):
    """Reference TV between the density recovered from the grid L and the
    histogram of eigs, as hermitization_pipeline computed it over SVDs."""
    lap = (L[:-2, 1:-1] + L[2:, 1:-1] + L[1:-1, :-2] + L[1:-1, 2:]
           - 4.0 * L[1:-1, 1:-1]) / (h * h)
    density = np.clip(-lap / (2.0 * np.pi), 0.0, None)
    density = density / np.sum(density)
    # Each eigenvalue's weight at an interior node is the product of two tent
    # functions, max(0, 1 - |distance| / h) along each axis.
    interior = xs[1:-1]
    hist = np.zeros((interior.size, interior.size))
    for lam in eigs:
        tent_x = np.maximum(0.0, 1.0 - np.abs(lam.real - interior) / h)
        tent_y = np.maximum(0.0, 1.0 - np.abs(lam.imag - interior) / h)
        hist += np.outer(tent_x, tent_y)
    hist = hist / eigs.size
    m = (density.shape[0] // tv_block) * tv_block
    blocks = (m // tv_block, tv_block, m // tv_block, tv_block)
    coarse_dens = density[:m, :m].reshape(blocks).sum(axis=(1, 3))
    coarse_hist = hist[:m, :m].reshape(blocks).sum(axis=(1, 3))
    return float(0.5 * np.sum(np.abs(coarse_dens - coarse_hist)))


class TestLogPotentialGrid:
    """The eigenvalue grid against the per-cell SVD reference. A node at
    half_width=1.0, h=0.1 sits within 1e-15 of the structural zero eigenvalue
    of Y (rank <= n - k), so that grid has one flagged cell."""

    @pytest.mark.parametrize("N", [32, 64])
    @pytest.mark.parametrize("half_width,flagged", [(None, 0), (1.0, 1)])
    def test_matches_svd_reference(self, N, half_width, flagged):
        spec = EnsembleSpec(n=N, N=N, k=1, master_seed=3)
        config = ExperimentConfig(spec=spec)
        h = 0.1
        if half_width is None:
            half_width = Gamma0Law(spec.gamma0).support_radius + 2 * h
        xs = np.arange(-half_width, half_width + h / 2, h)
        Y = build_autocov(sample_entry_matrix(spec, 0), spec.k)
        eigs = linalg.eigenvalues(Y)
        L_ref, flagged_ref, s_min = svd_log_potential_grid(Y, xs)
        L, flagged_new = log_potential_grid(Y, eigs, xs)
        assert flagged_ref == flagged_new == flagged
        assert np.max(np.abs(L - L_ref)) <= 1e-10
        # The SVD fallback guard: min |lambda - z| bounds s_min(Y - zI) from
        # above, up to the SVD's own eps ||Y|| error, and overshoots it by far
        # less than SVD_FALLBACK_FACTOR = 1e6.
        z = xs[:, None] + 1j * xs[None, :]
        dist = np.min(np.abs(eigs - z[..., None]), axis=-1)
        assert np.all(s_min <= dist + 1e-13 * linalg.operator_norm(Y))
        assert np.max(dist / s_min) <= 1e3
        rep = hermitization_pipeline(config, half_width=half_width, h=h)
        assert rep.flagged_cells == flagged
        tv_ref = reference_tv(L_ref, eigs, xs, h)
        assert abs(rep.tv_distance - tv_ref) <= 1e-9


class TestLargeK:
    def test_small_scale(self):
        config = ExperimentConfig(
            spec=EnsembleSpec(n=64, N=64, k=32, master_seed=9),
            trials=2, z_list=[1.0 + 0j], t_list=[0.5],
            thresholds={"stability_ks": 0.2, "resolvent_abs_error": 0.1})
        rep = large_k_experiment(config)
        assert rep.passed
        assert rep.zero_required == 0

    def test_atom_when_wide(self):
        config = ExperimentConfig(
            spec=EnsembleSpec(n=32, N=64, k=16, master_seed=10),
            trials=1, z_list=[1.0 + 0j], t_list=[0.5],
            thresholds={"stability_ks": 1.0, "resolvent_abs_error": 10.0})
        rep = large_k_experiment(config)
        assert rep.zero_required == 32
        assert rep.zero_eigs >= 32
        assert rep.atom_ok

    def test_zeros_counted_when_not_wide(self):
        # N = n still leaves N - (n - k) = 32 zero eigenvalues; none are required.
        config = ExperimentConfig(
            spec=EnsembleSpec(n=64, N=64, k=32, master_seed=4),
            trials=1, z_list=[1.0 + 0j], t_list=[0.5])
        rep = large_k_experiment(config)
        assert rep.zero_eigs == 32
        assert rep.zero_required == 0
        assert rep.atom_ok

    @pytest.mark.parametrize("n,N,k", [(32, 64, 16), (64, 16, 32)],
                             ids=["companion", "full"])
    def test_atom_fails_when_the_decomposed_matrix_is_singular(self, n, N, k, monkeypatch):
        # Trial 0's X with a zeroed column (in X_0) and row: the companion
        # X_0* X_k gets a zero row, and so does Y when n - k >= N, where Y
        # itself is decomposed. The atom is then one more than the rank
        # defect max(0, N - (n - k)).
        sample = experiments.sample_entry_matrix

        def sampler(spec, i):
            X = sample(spec, i)
            if spec.n == n and i == 0:
                X[:, 0] = X[0] = 0
            return X

        monkeypatch.setattr(experiments, "sample_entry_matrix", sampler)
        config = ExperimentConfig(
            spec=EnsembleSpec(n=n, N=N, k=k, master_seed=10),
            trials=1, z_list=[1.0 + 0j], t_list=[0.5],
            thresholds={"stability_ks": 1.0, "resolvent_abs_error": 10.0})
        rep = large_k_experiment(config)
        assert rep.zero_eigs == max(0, N - (n - k)) + 1
        assert rep.zero_required == max(0, N - n)
        assert rep.stability_ok and rep.resolvent_ok
        assert not rep.atom_ok and not rep.passed

    def test_small_lag_rejected(self):
        config = ExperimentConfig(spec=EnsembleSpec(n=64, N=64, k=1))
        with pytest.raises(ValueError, match="k >= n/2"):
            large_k_experiment(config)

    @pytest.mark.parametrize("z_list,t_list", [([], [0.5]), ([1.0 + 0j], [])],
                             ids=["empty-z", "empty-t"])
    def test_empty_grid_rejected_before_sampling(self, z_list, t_list, monkeypatch):
        def sample(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(experiments, "sample_entry_matrix", sample)
        config = ExperimentConfig(spec=EnsembleSpec(n=8, N=8, k=4), z_list=z_list,
                                  t_list=t_list)
        with pytest.raises(ValueError, match="nonempty"):
            large_k_experiment(config)

    @pytest.mark.parametrize("N", [48, 32], ids=["compressed", "square"])
    def test_resolvent_errors_match_per_point_loop(self, N):
        spec = EnsembleSpec(n=32, N=N, k=16, master_seed=12)
        config = ExperimentConfig(spec=spec, trials=3, z_list=[0.5 + 0j, 1.0 + 1j],
                                  t_list=[0.3, 1.0])
        # Reference: X re-sampled and Y - zI decomposed for every (z, t, trial).
        errors = []
        for z in config.z_list:
            for t in config.t_list:
                pred = predicted_stieltjes(ResolventParams(z=z, t=t, gamma0=spec.gamma0,
                                                           a=1.0 - spec.gamma1))
                per_trial = [empirical_resolvent_trace(
                    build_autocov(sample_entry_matrix(spec, i), spec.k), z, t)
                    for i in range(config.trials)]
                errors.append(float(abs(np.mean(per_trial) - pred)))
        got = large_k_experiment(config).resolvent_errors
        if N > spec.n:
            # d = n < N: the SVD is of the d x d core, which moves the last bit.
            assert len(got) == len(errors)
            assert np.max(np.abs(np.subtract(got, errors))) <= 1e-14
        else:
            assert got == errors

    @pytest.mark.parametrize("n,N,k", [(32, 48, 16), (32, 32, 16), (64, 16, 32),
                                       (64, 64, 32), (48, 96, 40)])
    def test_stability_ks_is_ks_of_snapped_full_eigensolves(self, n, N, k):
        # Oracle: the full N x N eigensolves of Y for both samples, and the
        # zero atom counted on trial 0's.
        spec = EnsembleSpec(n=n, N=N, k=k, master_seed=13)
        config = ExperimentConfig(spec=spec, trials=1, z_list=[1.0 + 0j], t_list=[0.5])

        def snapped_radii(n, N, k, seed):
            X = sample_entry_matrix(EnsembleSpec(n=n, N=N, k=k, master_seed=seed), 0)
            r = np.abs(linalg.eigenvalues(build_autocov(X, k)))
            return np.where(r <= 1e-8, 0.0, r)

        radii = snapped_radii(n, N, k, 13)
        expected = ks_two_sample(radii, snapped_radii(2 * n, 2 * N, 2 * k, 14))
        rep = large_k_experiment(config)
        assert rep.stability_ks == expected
        assert rep.zero_eigs == np.count_nonzero(radii == 0.0)
        assert rep.zero_eigs >= N - (n - k)

    @pytest.mark.parametrize("n,N,k", [(32, 48, 16), (64, 64, 32), (48, 96, 40),
                                       (64, 16, 32)])
    def test_eigensolves_take_the_smallest_exact_size(self, n, N, k, monkeypatch, tmp_path):
        # Each solve appends "pid rows cols" to a file, so a forked task's
        # solve is recorded as well as this process's.
        log, original = tmp_path / "eigensolves", linalg.eigenvalues

        def recording(M):
            with open(log, "a") as fh:
                fh.write("%d %d %d\n" % (os.getpid(), *np.shape(M)))
            return original(M)

        monkeypatch.setattr(ensembles, "eigenvalues", recording)
        monkeypatch.setattr(linalg, "eigenvalues", recording)
        config = ExperimentConfig(spec=EnsembleSpec(n=n, N=N, k=k, master_seed=15),
                                  trials=2, z_list=[1.0 + 0j], t_list=[0.5])
        m = min(n - k, N)
        here = os.getpid()
        for workers in (1, 2):
            monkeypatch.setattr(experiments, "usable_cpus", lambda: workers)
            log.write_text("")
            large_k_experiment(config)
            solves = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
            if workers == 1:
                # The 2n-sample, then trial 0, each at min(n - k, N).
                assert solves == [(here, 2 * m, 2 * m), (here, m, m)]
            else:
                # The 2n-sample here, trial 0 in the forked task.
                assert len(solves) == 2
                assert (here, 2 * m, 2 * m) in solves
                (pid, rows, cols), = [s for s in solves if s != (here, 2 * m, 2 * m)]
                assert (rows, cols) == (m, m) and pid != here


class TestConfig:
    def test_threshold_merge(self):
        config = ExperimentConfig(
            spec=EnsembleSpec(n=8, N=8, k=1), thresholds={"radial_ks": 0.5})
        assert config.thresholds["radial_ks"] == 0.5
        assert config.thresholds["lsv_tail_freq"] == DEFAULT_THRESHOLDS["lsv_tail_freq"]

    def test_unknown_threshold_rejected(self):
        with pytest.raises(ValueError, match="radial_kss"):
            ExperimentConfig(spec=EnsembleSpec(n=8, N=8, k=1),
                             thresholds={"radial_kss": 0.5})

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(spec=EnsembleSpec(n=8, N=8, k=1), trials=0)

    @pytest.mark.parametrize("thresholds", [{"radial_ks": "0.1"}, {"radial_ks": True},
                                            [0.1]],
                             ids=["string-threshold", "bool-threshold", "list-thresholds"])
    def test_malformed_thresholds_rejected_at_construction(self, thresholds):
        with pytest.raises(TypeError):
            ExperimentConfig(spec=EnsembleSpec(n=8, N=8, k=1), thresholds=thresholds)


class TestOutputs:
    def test_eigenvalue_csv(self, tmp_path):
        path = tmp_path / "eigs.csv"
        cli._write_csv(path, ["re_lambda", "im_lambda"], [(1.0, 2.0), (-0.5, 0.0)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "re_lambda,im_lambda"
        assert len(lines) == 3

    def test_eigenvalue_csv_fields_are_exact_floats(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"n": 16, "N": 16, "k": 1, "seed": 12, "trials": 1}))
        assert cli.run("esd", str(cfg), output_dir=str(tmp_path)) in (
            cli.EXIT_OK, cli.EXIT_ASSERTION)
        spec = EnsembleSpec(n=16, N=16, k=1, master_seed=12)
        with linalg.one_blas_thread():
            eigs = linalg.eigenvalues(build_autocov(sample_entry_matrix(spec, 0), 1))
        with open(tmp_path / "eigenvalues.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        parsed = np.array([complex(float(re), float(im)) for re, im in rows])
        assert np.array_equal(parsed, eigs)

    def test_radial_cdf_csv(self, tmp_path):
        path = tmp_path / "cdf.csv"
        cli._write_csv(path, ["r", "empirical_cdf"], [(0.0, 0.0), (1.0, 1.0)])
        assert path.read_text().splitlines()[0] == "r,empirical_cdf"

    def test_report_json_roundtrip(self, tmp_path):
        spec = EnsembleSpec(n=32, N=32, k=1, master_seed=11)
        X = sample_entry_matrix(spec, 0)
        rep = linearization_check(X, 1.0 + 0j, 1)
        path = tmp_path / "report.json"
        cli._write_json(path, rep)
        data = json.loads(path.read_text())
        assert data["passed"] is True
        assert set(data) == set(rep.__dataclass_fields__)
