import csv
import json
import math
import os
import time
import tracemalloc
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from test_linalg import RANK_TOL, perturbation_interlacing_check

from autocov_spectra import cli, ensembles, experiments, linalg
from autocov_spectra.ensembles import (
    BLOCK,
    EnsembleSpec,
    build_autocov,
    build_circular,
    resolvent_singular_values,
    sample_entry_matrix,
)
from autocov_spectra.experiments import (
    DEFAULT_THRESHOLDS,
    ExperimentConfig,
    atom_radii,
    esd_experiment,
    hermitization_pipeline,
    log_potential_grid,
    ks_statistic,
    ks_two_sample,
    large_k_experiment,
    linearization_check,
    lsv_tail_experiment,
    resolvent_trace_means,
    rotation_invariance_test,
)
from autocov_spectra.fixed_point import (
    ResolventParams,
    empirical_resolvent_trace,
    predicted_stieltjes,
)
from autocov_spectra.limit_law import Gamma0Law

# (z_list, t_list) of a large-k run at one resolvent point.
ONE_POINT = ([1.0 + 0j], [0.5])


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
        rep1, eigs1 = esd_experiment(config)
        rep2, eigs2 = esd_experiment(config)
        assert rep1.radial_ks_per_trial == rep2.radial_ks_per_trial
        # eigs: trial 0's spectrum, as the CLI's CSVs take it.
        trial_0 = ensembles.companion_eigenvalues(*ensembles.sampled_companion(config.spec, 0))
        assert eigs1.tobytes() == eigs2.tobytes() == trial_0.tobytes()
        assert len(rep1.seeds) == 2 and rep1.seeds[0] != rep1.seeds[1]
        assert rep1.mean_radial_ks == pytest.approx(
            np.mean(rep1.radial_ks_per_trial))

    def test_moderate_size_passes_threshold(self):
        config = ExperimentConfig(
            spec=EnsembleSpec(n=128, N=128, k=1, master_seed=4), trials=2)
        rep, _ = esd_experiment(config)
        assert rep.passed
        assert rep.mean_radial_ks <= DEFAULT_THRESHOLDS["radial_ks"]

    def test_structural_zeros_score_exactly_their_mass(self):
        # gamma0 = 1 has no atom, so Y's k structural zeros, snapped to 0,
        # put the sup at their upper edge: exactly k/N, free of the
        # eigensolver's rounding noise inside the atom.
        config = ExperimentConfig(
            spec=EnsembleSpec(n=64, N=64, k=20, master_seed=1), trials=2)
        assert esd_experiment(config)[0].radial_ks_per_trial == [20 / 64, 20 / 64]

    @pytest.mark.parametrize("N", [192, 256])
    def test_wide_sample_passes_with_its_zero_atom(self, N):
        # gamma0 > 1: N - n of Y's eigenvalues sit in the law's atom at 0.
        config = ExperimentConfig(
            spec=EnsembleSpec(n=128, N=N, k=1, master_seed=4), trials=2)
        rep, _ = esd_experiment(config)
        assert rep.passed
        assert max(rep.radial_ks_per_trial) <= DEFAULT_THRESHOLDS["radial_ks"]

    @pytest.mark.parametrize("n,N,k", [(128, 256, 1), (128, 128, 64)],
                             ids=["gamma0-2", "half-lag"])
    def test_eigensolves_take_the_companion(self, n, N, k, monkeypatch, tmp_path):
        # n - k < N - 1: each trial decomposes the (n-k) x (n-k) companion
        # once, and trial 0's is decomposed once more for the CLI's CSVs.
        solved, original = [], linalg.eigenvalues

        def recording(M):
            solved.append(np.shape(M))
            return original(M)

        monkeypatch.setattr(ensembles, "eigenvalues", recording)
        monkeypatch.setattr(linalg, "eigenvalues", recording)
        m, trials = n - k, 3
        esd_experiment(ExperimentConfig(spec=EnsembleSpec(n=n, N=N, k=k, master_seed=5),
                                        trials=trials))
        assert solved == [(m, m)] * (trials + 1)
        solved.clear()
        cfg = tmp_path / "esd.json"
        cfg.write_text(json.dumps({"n": n, "N": N, "k": k, "seed": 5, "trials": trials}))
        cli.run("esd", str(cfg), output_dir=str(tmp_path / "out"))
        assert solved == [(m, m)] * (trials + 1)

    @staticmethod
    def cli_solves(monkeypatch, tmp_path, side, trials):
        """(pid, side) of each eigensolve of a CLI esd run at n = N = side
        on 2 usable CPUs. Each solve appends a line to a file, so a forked
        task's solve is recorded as well as this process's; the order of
        lines from different processes is a race."""
        log, original = tmp_path / "solves", linalg.eigenvalues

        def recording(M):
            with open(log, "a") as fh:
                fh.write("%d %d\n" % (os.getpid(), len(M)))
            return original(M)

        monkeypatch.setattr(ensembles, "eigenvalues", recording)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        cfg = tmp_path / "esd.json"
        cfg.write_text(json.dumps({"n": side, "N": side, "k": 1, "seed": 6, "trials": trials}))
        status = cli.run("esd", str(cfg), output_dir=str(tmp_path / "out"))
        assert status in (cli.EXIT_OK, cli.EXIT_ASSERTION)
        return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]

    @pytest.mark.parametrize("side", [0, -1], ids=["at-the-gate", "below-the-gate"])
    def test_cli_eigensolves_fork_only_at_the_gate(self, side, monkeypatch, tmp_path):
        # On 2 workers, the 4 tasks of 3 trials of side ESD_FORK_MIN_SIDE
        # split 2 and 2: trials 0-1 here, trial 2 and trial 0's spectrum for
        # the CSVs in the worker. One side less, every solve is here, as
        # perfbench's small esd run sees it.
        side += experiments.ESD_FORK_MIN_SIDE
        trials = 3
        solves = self.cli_solves(monkeypatch, tmp_path, side, trials)
        pids = [pid for pid, _ in solves]
        here = os.getpid()
        assert [size for _, size in solves] == [side] * (trials + 1)
        if side < experiments.ESD_FORK_MIN_SIDE:
            assert pids == [here] * (trials + 1)
        else:
            assert pids.count(here) == 2
            assert len(set(pids)) == 2

    def test_odd_trial_count_splits_the_solves_evenly(self, monkeypatch, tmp_path):
        # 5 trials and trial 0's spectrum are 6 eigensolves: trials 0-2 here
        # and, in one worker, trials 3-4 and trial 0 again, so neither CPU
        # waits on the other for a whole solve. Each task samples through
        # experiments.sampled_companion, which logs "pid trial".
        log, sampled = tmp_path / "samples", experiments.sampled_companion

        def recording(spec, i):
            with open(log, "a") as fh:
                fh.write("%d %d\n" % (os.getpid(), i))
            return sampled(spec, i)

        monkeypatch.setattr(experiments, "sampled_companion", recording)
        monkeypatch.setattr(experiments, "ESD_FORK_MIN_SIDE", 1)
        pids = [pid for pid, _ in self.cli_solves(monkeypatch, tmp_path, 16, 5)]
        here = os.getpid()
        (worker,) = set(pids) - {here}
        assert len(pids) == 6 and pids.count(here) == pids.count(worker) == 3
        samples = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert sorted(i for pid, i in samples if pid == here) == [0, 1, 2]
        assert sorted(i for pid, i in samples if pid == worker) == [0, 3, 4]

    @pytest.mark.parametrize("n,N,k", [(128, 256, 1), (128, 128, 64)],
                             ids=["gamma0-2", "half-lag"])
    def test_radial_ks_matches_the_full_eigensolve(self, n, N, k):
        # Oracle: the eigensolve of Y itself. The companion moves the nonzero
        # eigenvalues in the last bits and makes the atom exact zeros, which
        # atom_radii gives the full solve's atom too; the verdicts agree (the
        # half lag fails: gamma0 = 1 has no atom for Y's n - k zeros).
        for seed in range(5):
            spec = EnsembleSpec(n=n, N=N, k=k, master_seed=40 + seed)
            law = Gamma0Law(spec.gamma0)
            full = [ks_statistic(atom_radii(linalg.eigenvalues(
                        build_autocov(sample_entry_matrix(spec, i), k))),
                        law.radial_cdf, law.radial_cdf_left) for i in range(2)]
            rep, _ = esd_experiment(ExperimentConfig(spec=spec, trials=2))
            assert np.max(np.abs(np.subtract(rep.radial_ks_per_trial, full))) <= 1e-12
            assert rep.passed == (np.mean(full) <= DEFAULT_THRESHOLDS["radial_ks"])
            assert rep.passed == (k == 1)


class TestTrialMemory:
    """X is dropped once Y is built: at each eigensolve of Y, tracemalloc
    (which sees numpy's buffers) finds Y held but not X, as large as Y here.
    Where esd and hermitize decompose the companion, neither X nor Y is
    ever held."""

    N = 256

    def run_esd_cli(self, tmp_path, n=N, N=N):
        cfg = tmp_path / "esd.json"
        cfg.write_text(json.dumps({"n": n, "N": N, "k": 1, "seed": 3, "trials": 2}))
        cli.main(["esd", str(cfg), "--output-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize("caller", ["esd_experiment", "hermitization_pipeline", "cli-esd"])
    def test_eigensolve_holds_y_without_x(self, caller, monkeypatch, tmp_path):
        config = ExperimentConfig(spec=EnsembleSpec(n=self.N, N=self.N, k=1, master_seed=3),
                                  trials=2)
        run = {"esd_experiment": lambda: esd_experiment(config),
               "hermitization_pipeline": lambda: hermitization_pipeline(config, h=0.2),
               "cli-esd": lambda: self.run_esd_cli(tmp_path)}[caller]
        held, original = [], ensembles.eigenvalues

        def recording(M):
            held.append(tracemalloc.get_traced_memory()[0] - base)
            return original(M)

        # Every caller eigensolves through companion_eigenvalues, which calls
        # the name ensembles imported.
        monkeypatch.setattr(ensembles, "eigenvalues", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
        finally:
            tracemalloc.stop()
        y_bytes = self.N * self.N * 16
        assert len(held) == {"esd_experiment": 3, "hermitization_pipeline": 1,
                             "cli-esd": 3}[caller]
        assert max(held) <= y_bytes * 5 // 4

    @pytest.mark.parametrize("caller", ["esd_experiment", "hermitization_pipeline", "cli-esd"])
    def test_esd_companion_eigensolve_holds_neither_x_nor_y(self, caller, monkeypatch,
                                                            tmp_path):
        # gamma0 = 2: each eigensolve holds the (n-1) x (n-1) companion, and
        # neither X (half of Y) nor Y, which are never formed.
        n = self.N // 2
        config = ExperimentConfig(spec=EnsembleSpec(n=n, N=self.N, k=1, master_seed=3),
                                  trials=2)
        run = {"esd_experiment": lambda: esd_experiment(config),
               "hermitization_pipeline": lambda: hermitization_pipeline(config, h=0.2),
               "cli-esd": lambda: self.run_esd_cli(tmp_path, n=n)}[caller]
        held, original = [], ensembles.eigenvalues

        def recording(M):
            held.append((np.shape(M), tracemalloc.get_traced_memory()[0] - base))
            return original(M)

        run()  # first-call imports and caches stay untraced
        monkeypatch.setattr(ensembles, "eigenvalues", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
        finally:
            tracemalloc.stop()
        m = n - 1
        bound = m * m * 16 + 64 * 1024
        assert bound < self.N * n * 16  # below X alone
        calls = {"esd_experiment": 3, "hermitization_pipeline": 1, "cli-esd": 3}[caller]
        assert [shape for shape, _ in held] == [(m, m)] * calls
        assert max(nbytes for _, nbytes in held) <= bound

    def test_large_k_2n_eigensolve_holds_no_trial_0_x(self, monkeypatch):
        # At the 2n-sample's eigensolve only its X and its 2m x 2m product
        # X_0* X_k are held, not trial 0's X (a quarter of the 2n X).
        n, N, k = 128, 192, 64
        config = ExperimentConfig(spec=EnsembleSpec(n=n, N=N, k=k, master_seed=3),
                                  trials=2)
        held, original = {}, linalg.eigenvalues

        def recording(M):
            held[np.shape(M)] = tracemalloc.get_traced_memory()[0] - base
            return original(M)

        large_k_experiment(config, *ONE_POINT)  # first-call imports and caches stay untraced
        monkeypatch.setattr(ensembles, "eigenvalues", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            large_k_experiment(config, *ONE_POINT)
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
        # When n - k >= N, a weak reference to the 2n-sample's X is dead
        # inside the eigensolve of its Y: no frame holds X. Otherwise
        # sampled_companion sums the companion over row blocks, and X is
        # never sampled whole.
        config = ExperimentConfig(spec=EnsembleSpec(n=n, N=N, k=k, master_seed=3),
                                  trials=2)
        refs, freed = [], {}
        sample, original = ensembles.sample_entry_matrix, linalg.eigenvalues

        def sampler(spec, i):
            X = sample(spec, i)
            if spec.n == 2 * n:
                refs.append(weakref.ref(X))
            return X

        def recording(M):
            freed[np.shape(M)] = [ref() is None for ref in refs]
            return original(M)

        monkeypatch.setattr(experiments, "sample_entry_matrix", sampler)
        monkeypatch.setattr(ensembles, "sample_entry_matrix", sampler)
        monkeypatch.setattr(ensembles, "eigenvalues", recording)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
        large_k_experiment(config, *ONE_POINT)
        size = 2 * min(n - k, N)
        assert freed[(size, size)] == ([True] if n - k >= N else [])

    @pytest.mark.parametrize("n,N,k", [(128, 192, 64), (64, 16, 32)],
                             ids=["companion", "full"])
    def test_large_k_trial_0_eigensolve_holds_no_x(self, n, N, k, monkeypatch):
        # Trial 0's companion streams X's rows (or, when n - k >= N,
        # decomposes a Y whose X is dropped once Y is built): at trial 0's
        # eigensolve, a weak reference to every X of the n-sample sampled so
        # far is dead. The resolvent trials sample one X each after it.
        config = ExperimentConfig(spec=EnsembleSpec(n=n, N=N, k=k, master_seed=3),
                                  trials=2)
        refs, alive = [], {}
        sample, original = ensembles.sample_entry_matrix, linalg.eigenvalues

        def sampler(spec, i):
            X = sample(spec, i)
            if spec.n == n:
                refs.append(weakref.ref(X))
            return X

        def recording(M):
            alive[np.shape(M)] = [ref() is not None for ref in refs]
            return original(M)

        monkeypatch.setattr(experiments, "sample_entry_matrix", sampler)
        monkeypatch.setattr(ensembles, "sample_entry_matrix", sampler)
        monkeypatch.setattr(ensembles, "eigenvalues", recording)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
        large_k_experiment(config, *ONE_POINT)
        m = min(n - k, N)
        assert len(refs) == config.trials + (n - k >= N)
        assert alive[(m, m)] == [False] * (n - k >= N)

    def test_large_k_2n_sample_peaks_without_its_x(self, monkeypatch):
        # Up to the 2n-sample's eigensolve, which task 0 reaches first on one
        # CPU, the peak is the 2m x 2m companion, one product of that size,
        # a row block of X with its float draws and its conjugated first 2m
        # columns: not the 2n-sample's X, alone larger than that bound here.
        n, N, k = 128, 192, 64
        config = ExperimentConfig(spec=EnsembleSpec(n=n, N=N, k=k, master_seed=3),
                                  trials=2)
        peaks, original = {}, linalg.eigenvalues

        def recording(M):
            peaks[np.shape(M)] = tracemalloc.get_traced_memory()[1] - base
            return original(M)

        monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
        large_k_experiment(config, *ONE_POINT)  # first-call imports and caches stay untraced
        monkeypatch.setattr(ensembles, "eigenvalues", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            large_k_experiment(config, *ONE_POINT)
        finally:
            tracemalloc.stop()
        m, big_n = n - k, 2 * n
        product_bytes = 2 * m * 2 * m * 16
        block_bytes = BLOCK * (big_n * 16 + big_n * 8 + 2 * m * 16)
        assert peaks[(2 * m, 2 * m)] <= 2 * product_bytes + block_bytes + 64 * 1024

    def test_large_k_2n_eigensolve_holds_the_product_alone(self, monkeypatch):
        # Of the 2n-sample, only its 2m x 2m product X_0* X_k is held at its
        # eigensolve: not its X, six times as large here.
        n, N, k = 128, 192, 64
        config = ExperimentConfig(spec=EnsembleSpec(n=n, N=N, k=k, master_seed=3),
                                  trials=2)
        held, original = {}, linalg.eigenvalues

        def recording(M):
            held[np.shape(M)] = tracemalloc.get_traced_memory()[0] - base
            return original(M)

        monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
        large_k_experiment(config, *ONE_POINT)  # first-call imports and caches stay untraced
        monkeypatch.setattr(ensembles, "eigenvalues", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            large_k_experiment(config, *ONE_POINT)
        finally:
            tracemalloc.stop()
        m = n - k
        big_product_bytes = 2 * m * 2 * m * 16
        assert held[(2 * m, 2 * m)] <= big_product_bytes + 32 * 1024

    def test_large_k_resolvent_svds_hold_one_x(self, monkeypatch):
        # At each resolvent SVD of the resolvent task, the current trial's X and
        # the d x d matrix being decomposed are held: not trial 0's X in a
        # later trial, nor the QR factor R or a shifted copy per z.
        n, N, k = 128, 192, 64
        config = ExperimentConfig(spec=EnsembleSpec(n=n, N=N, k=k, master_seed=3),
                                  trials=3)
        z_list = [0.5 + 0j, 1.0 + 1j]
        held, original = [], ensembles.singular_values

        def recording(M):
            held.append((len(M), tracemalloc.get_traced_memory()[0] - base))
            return original(M)

        monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
        large_k_experiment(config, z_list, [0.5])  # first-call imports and caches stay untraced
        monkeypatch.setattr(ensembles, "singular_values", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            large_k_experiment(config, z_list, [0.5])
        finally:
            tracemalloc.stop()
        assert len(held) == config.trials * len(z_list)
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

    def test_chunks_after_a_failed_fork_run_here(self, monkeypatch):
        # 7 trials on 3 workers, and the second fork fails: trials 0-1 and
        # 4-6 run here, 2-3 in the one child, and come back in trial order.
        real_fork, forks = os.fork, []

        def second_fork_fails():
            forks.append(None)
            if len(forks) == 2:
                raise OSError("no process to spare")
            return real_fork()

        monkeypatch.setattr(experiments, "usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", second_fork_fails)
        got = experiments.map_trials(7, lambda i: (i, os.getpid()))
        here = os.getpid()
        assert [i for i, _ in got] == list(range(7))
        pids = [pid for _, pid in got]
        assert pids[:2] + pids[4:] == [here] * 5
        assert pids[2] == pids[3] != here
        assert len(forks) == 2

    def test_failing_trial_here_leaves_no_child(self, monkeypatch):
        # Trial 0 fails in this process while both children sleep: its error
        # is raised, and the children are killed and reaped, not waited out.
        real_fork, forked = os.fork, []
        parent = os.getpid()

        def recording_fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        def trial(i):
            if os.getpid() != parent:
                time.sleep(60)
            if i == 0:
                raise np.linalg.LinAlgError("trial 0 failed")
            return i

        monkeypatch.setattr(experiments, "usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", recording_fork)
        started = time.monotonic()
        with pytest.raises(np.linalg.LinAlgError, match="^trial 0 failed$"):
            experiments.map_trials(9, trial)
        assert time.monotonic() - started < 30
        assert len(forked) == 2
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_worker_sees_one_blas_thread(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        with linalg.one_blas_thread():
            counts = experiments.map_trials(2, lambda i: (os.getpid(), linalg.blas_thread_counts()))
        assert counts[1][0] != os.getpid()
        assert [c for _, c in counts] == [{name: 1 for name in counts[0][1]}] * 2

    def test_pins_one_blas_thread_for_a_caller_at_two(self, monkeypatch):
        # A library caller left at two BLAS threads: this chunk and the
        # forked one run at one, and the caller's count comes back.
        controls = linalg._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded")
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        original = linalg.blas_thread_counts()
        for _, set_threads in controls.values():
            set_threads(2)
        try:
            before = linalg.blas_thread_counts()
            counts = experiments.map_trials(2, lambda i: (os.getpid(), linalg.blas_thread_counts()))
            after = linalg.blas_thread_counts()
        finally:
            for name, (_, set_threads) in controls.items():
                set_threads(original[name])
        assert counts[1][0] != os.getpid()
        assert [c for _, c in counts] == [{name: 1 for name in controls}] * 2
        assert before == after == {name: 2 for name in controls}

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

    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
    def test_grid_spacing_must_be_positive_and_finite(self, h):
        # Unchecked, h = 0 raised ZeroDivisionError, and nan or inf an error
        # from np.arange.
        with pytest.raises(ValueError, match="grid spacing h must be positive and finite"):
            hermitization_pipeline(ExperimentConfig(spec=self.SPEC), h=h)

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
    """The eigenvalue grid against the per-cell SVD reference. The grid
    spans the support radius plus 2h on each side, so at h = support radius
    / 14 its 17th node sits within 4e-15 of the structural zero eigenvalue of
    Y (rank <= n - k), and that grid has one flagged cell. At gamma0 = 2 and
    at the large lag, the grid takes lambda from the companion with its exact
    zeros, and its fallback cells from resolvent_singular_values."""

    @pytest.mark.parametrize("n,N,k", [(32, 32, 1), (64, 64, 1), (32, 64, 1), (64, 64, 40)],
                             ids=["32", "64", "gamma0-2", "large-lag"])
    @pytest.mark.parametrize("radius_steps,flagged", [(None, 0), (14, 1)],
                             ids=["h-0.1", "node-at-0"])
    def test_matches_svd_reference(self, n, N, k, radius_steps, flagged):
        spec = EnsembleSpec(n=n, N=N, k=k, master_seed=3)
        config = ExperimentConfig(spec=spec)
        radius = Gamma0Law(spec.gamma0).support_radius
        h = 0.1 if radius_steps is None else radius / radius_steps
        half_width = radius + 2 * h
        xs = np.arange(-half_width, half_width + h / 2, h)
        Y = build_autocov(sample_entry_matrix(spec, 0), spec.k)
        eigs = linalg.eigenvalues(Y)
        L_ref, flagged_ref, s_min = svd_log_potential_grid(Y, xs)
        lam = ensembles.companion_eigenvalues(*ensembles.sampled_companion(spec, 0))
        L, flagged_new = log_potential_grid(spec, lam, xs)
        assert flagged_ref == flagged_new == flagged
        assert np.max(np.abs(L - L_ref)) <= 1e-10
        # The SVD fallback guard: min |lambda - z| bounds s_min(Y - zI) from
        # above, up to the SVD's own eps ||Y|| error, and overshoots it by far
        # less than SVD_FALLBACK_FACTOR = 1e6.
        z = xs[:, None] + 1j * xs[None, :]
        dist = np.min(np.abs(eigs - z[..., None]), axis=-1)
        assert np.all(s_min <= dist + 1e-13 * linalg.operator_norm(Y))
        assert np.max(dist / s_min) <= 1e3
        rep = hermitization_pipeline(config, h=h)
        assert rep.flagged_cells == flagged
        tv_ref = reference_tv(L_ref, eigs, xs, h)
        assert abs(rep.tv_distance - tv_ref) <= 1e-9


class TestLargeK:
    def test_small_scale(self):
        config = ExperimentConfig(
            spec=EnsembleSpec(n=64, N=64, k=32, master_seed=9),
            trials=2,
            thresholds={"stability_ks": 0.2, "resolvent_abs_error": 0.1})
        rep = large_k_experiment(config, *ONE_POINT)
        assert rep.passed
        assert rep.zero_required == 0

    def test_atom_when_wide(self):
        config = ExperimentConfig(
            spec=EnsembleSpec(n=32, N=64, k=16, master_seed=10),
            trials=1,
            thresholds={"stability_ks": 1.0, "resolvent_abs_error": 10.0})
        rep = large_k_experiment(config, *ONE_POINT)
        assert rep.zero_required == 32
        assert rep.zero_eigs >= 32
        assert rep.atom_ok

    def test_zeros_counted_when_not_wide(self):
        # N = n still leaves N - (n - k) = 32 zero eigenvalues; none are required.
        config = ExperimentConfig(
            spec=EnsembleSpec(n=64, N=64, k=32, master_seed=4),
            trials=1)
        rep = large_k_experiment(config, *ONE_POINT)
        assert rep.zero_eigs == 32
        assert rep.zero_required == 0
        assert rep.atom_ok

    @pytest.mark.parametrize("n,N,k", [(32, 64, 16), (64, 16, 32)],
                             ids=["companion", "full"])
    def test_atom_fails_when_the_decomposed_matrix_is_singular(self, n, N, k, monkeypatch):
        # Trial 0's X with a zeroed column (in X_0) and row: the companion
        # X_0* X_k gets a zero row, and so does Y when n - k >= N, where Y
        # itself is decomposed. The atom is then one more than the rank
        # defect max(0, N - (n - k)). The companion is summed over a stream
        # of X's row blocks, or built from a whole X when n - k >= N, so
        # both are zeroed, and so is the resolvent trial's X.
        sample, row_blocks = ensembles.sample_entry_matrix, ensembles.sample_row_blocks

        def sampler(spec, i):
            X = sample(spec, i)
            if spec.n == n and i == 0:
                X[:, 0] = X[0] = 0
            return X

        def zeroed_row_blocks(spec, i):
            for b, block in enumerate(row_blocks(spec, i)):
                if spec.n == n and i == 0:
                    block[:, 0] = 0
                    if b == 0:
                        block[0] = 0
                yield block

        monkeypatch.setattr(experiments, "sample_entry_matrix", sampler)
        monkeypatch.setattr(ensembles, "sample_entry_matrix", sampler)
        monkeypatch.setattr(ensembles, "sample_row_blocks", zeroed_row_blocks)
        config = ExperimentConfig(
            spec=EnsembleSpec(n=n, N=N, k=k, master_seed=10),
            trials=1,
            thresholds={"stability_ks": 1.0, "resolvent_abs_error": 10.0})
        rep = large_k_experiment(config, *ONE_POINT)
        assert rep.zero_eigs == max(0, N - (n - k)) + 1
        assert rep.zero_required == max(0, N - n)
        assert rep.stability_ok and rep.resolvent_ok
        assert not rep.atom_ok and not rep.passed

    def test_small_lag_rejected(self):
        config = ExperimentConfig(spec=EnsembleSpec(n=64, N=64, k=1))
        with pytest.raises(ValueError, match="k >= n/2"):
            large_k_experiment(config, *ONE_POINT)

    @pytest.mark.parametrize("z_list,t_list", [([], [0.5]), ([1.0 + 0j], [])],
                             ids=["empty-z", "empty-t"])
    def test_empty_grid_rejected_before_sampling(self, z_list, t_list, monkeypatch):
        def sample(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(experiments, "sample_entry_matrix", sample)
        monkeypatch.setattr(experiments, "sampled_companion", sample)
        config = ExperimentConfig(spec=EnsembleSpec(n=8, N=8, k=4))
        with pytest.raises(ValueError, match="nonempty"):
            large_k_experiment(config, z_list, t_list)

    @pytest.mark.parametrize("trials", [1, 2, 11])
    @pytest.mark.parametrize("N", [48, 32], ids=["compressed", "square"])
    def test_resolvent_trace_means_match_per_point_loop(self, N, trials):
        # Reference: one scalar trace per (X, z, t), and np.mean over each
        # point's list of trials. At 11 trials numpy sums pairwise, and a
        # mean over a non-contiguous trial axis rounds 5-7 of these 36 points
        # differently.
        spec = EnsembleSpec(n=16, N=N // 2, k=8, master_seed=14)
        z_list, t_list = [0.5 + 0j, 1.0 + 1j, 2.0j], np.geomspace(0.05, 5.0, 12).tolist()
        per_point = [[] for _ in range(len(z_list) * len(t_list))]
        for i in range(trials):
            X = sample_entry_matrix(spec, i)
            for i_z, s in enumerate(resolvent_singular_values(X, spec.k, z_list)):
                for j, t in enumerate(t_list):
                    trace = 1j * t / s.size * float(np.sum(1.0 / (s**2 + t * t)))
                    per_point[i_z * len(t_list) + j].append(trace)
        expected = [np.mean(values) for values in per_point]
        got = resolvent_trace_means(spec, trials, z_list, t_list)
        assert got.shape == (len(expected),)
        assert got.tolist() == expected
        assert np.array_equal(np.signbit(got.real), np.signbit(np.real(expected)))

    @pytest.mark.parametrize("N", [48, 32], ids=["compressed", "square"])
    def test_resolvent_errors_match_per_point_loop(self, N):
        spec = EnsembleSpec(n=32, N=N, k=16, master_seed=12)
        config = ExperimentConfig(spec=spec, trials=3)
        z_list, t_list = [0.5 + 0j, 1.0 + 1j], [0.3, 1.0]
        # Reference: X re-sampled and Y - zI decomposed for every (z, t, trial).
        errors = []
        for z in z_list:
            for t in t_list:
                pred = predicted_stieltjes(ResolventParams(z=z, t=t, gamma0=spec.gamma0,
                                                           a=1.0 - spec.gamma1))
                per_trial = [empirical_resolvent_trace(
                    build_autocov(sample_entry_matrix(spec, i), spec.k), z, t)
                    for i in range(config.trials)]
                errors.append(float(abs(np.mean(per_trial) - pred)))
        got = large_k_experiment(config, z_list, t_list).resolvent_errors
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
        config = ExperimentConfig(spec=spec, trials=1)

        def snapped_radii(n, N, k, seed):
            X = sample_entry_matrix(EnsembleSpec(n=n, N=N, k=k, master_seed=seed), 0)
            r = np.abs(linalg.eigenvalues(build_autocov(X, k)))
            return np.where(r <= 1e-8, 0.0, r)

        radii = snapped_radii(n, N, k, 13)
        expected = ks_two_sample(radii, snapped_radii(2 * n, 2 * N, 2 * k, 14))
        rep = large_k_experiment(config, *ONE_POINT)
        assert rep.stability_ks == expected
        assert rep.zero_eigs == np.count_nonzero(radii == 0.0)
        assert rep.zero_eigs >= N - (n - k)

    @pytest.mark.parametrize("n,N,k", [(32, 48, 16), (64, 64, 32), (48, 96, 40),
                                       (64, 16, 32)])
    def test_eigensolves_take_the_smallest_exact_size(self, n, N, k, monkeypatch, tmp_path):
        # Each solve appends "name pid rows cols" to a file, so a forked
        # task's solve is recorded as well as this process's.
        log = tmp_path / "solves"

        def recording(name, original):
            def solve(M):
                with open(log, "a") as fh:
                    fh.write("%s %d %d %d\n" % (name, os.getpid(), *np.shape(M)))
                return original(M)
            return solve

        eigensolve = recording("eig", linalg.eigenvalues)
        monkeypatch.setattr(ensembles, "eigenvalues", eigensolve)
        monkeypatch.setattr(linalg, "eigenvalues", eigensolve)
        monkeypatch.setattr(ensembles, "singular_values",
                            recording("svd", linalg.singular_values))
        config = ExperimentConfig(spec=EnsembleSpec(n=n, N=N, k=k, master_seed=15),
                                  trials=2)
        m = min(n - k, N)
        here = os.getpid()
        for workers in (1, 2):
            monkeypatch.setattr(experiments, "usable_cpus", lambda: workers)
            log.write_text("")
            large_k_experiment(config, *ONE_POINT)
            solves = [line.split() for line in log.read_text().splitlines()]
            # The 2n-sample, then trial 0, each at min(n - k, N), in this
            # process whatever the worker count.
            assert [(int(p), int(r), int(c)) for name, p, r, c in solves
                    if name == "eig"] == [(here, 2 * m, 2 * m), (here, m, m)]
            # One SVD per trial and z, in the forked task on two CPUs.
            svd_pids = [int(p) for name, p, r, c in solves if name == "svd"]
            assert len(svd_pids) == config.trials * len(ONE_POINT[0])
            assert all((pid == here) == (workers == 1) for pid in svd_pids)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_thresholds_rejected_at_construction(self, value):
        # A NaN threshold would fail every run, an infinite one pass it.
        with pytest.raises(ValueError, match="radial_ks.*finite"):
            ExperimentConfig(spec=EnsembleSpec(n=8, N=8, k=1), thresholds={"radial_ks": value})


class TestOutputs:
    def test_eigenvalue_csv(self):
        text = cli._csv_file(["re_lambda", "im_lambda"], [(1.0, 2.0), (-0.5, 0.0)])
        lines = text.strip().splitlines()
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

    def test_radial_cdf_csv(self):
        text = cli._csv_file(["r", "empirical_cdf"], [(0.0, 0.0), (1.0, 1.0)])
        assert text.splitlines()[0] == "r,empirical_cdf"

    def test_report_json_roundtrip(self):
        spec = EnsembleSpec(n=32, N=32, k=1, master_seed=11)
        X = sample_entry_matrix(spec, 0)
        rep = linearization_check(X, 1.0 + 0j, 1)
        data = json.loads(cli._json_file(rep))
        assert data["passed"] is True
        assert set(data) == set(rep.__dataclass_fields__)
