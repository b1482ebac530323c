"""Command-line entry point.

Runs one subcommand per invocation against a JSON config file, writes CSV and
JSON outputs plus a manifest sufficient to reproduce the run, and reports
through the exit status: 0 success, 2 scientific-assertion failure, 3
configuration error, 4 numeric backend failure.

Config values can be overridden by ``--set key=value`` (dotted keys, JSON
values) and by environment variables ``AUTOCOV_<KEY>`` with ``__`` as the
nesting separator; explicit --set wins over the environment.

Every run calls BLAS on one thread (linalg.one_blas_thread), so outputs do
not depend on the caller's BLAS thread setting; the manifest records the
count together with the library versions.
"""

from __future__ import annotations

import argparse
import cmath
import datetime
import json
import math
import os
import platform
import sys
import tempfile

import numpy as np
import scipy

import autocov_spectra
from autocov_spectra import experiments, linalg
from autocov_spectra.ensembles import (
    EnsembleSpec,
    EntryLaw,
    build_autocov,
    moment_diagnostics,
    sample_entry_matrix,
)
from autocov_spectra.experiments import ExperimentConfig
from autocov_spectra.fixed_point import (
    ResolventParams,
    solve_s,
    write_comparison_csv,
)
from autocov_spectra.limit_law import Gamma0Law, write_cdf_csv

ENV_PREFIX = "AUTOCOV_"

EXIT_OK = 0
EXIT_ASSERTION = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

SUBCOMMANDS = (
    "esd",
    "lsv-tail",
    "linearize-check",
    "hermitize",
    "fixed-point",
    "large-k",
    "limit-law-table",
    "law-diagnostics",
)

REQUIRED_KEYS = {
    "esd": ["n", "N", "k", "seed", "trials"],
    "lsv-tail": ["n", "N", "k", "seed", "trials", "z"],
    "linearize-check": ["n", "N", "k", "seed", "trials", "z"],
    "hermitize": ["n", "N", "k", "seed"],
    "fixed-point": ["gamma0", "gamma1", "z_list", "t_list"],
    "large-k": ["n", "N", "k", "seed", "trials", "z_list", "t_list"],
    "limit-law-table": ["gamma0", "grid"],
    "law-diagnostics": ["law", "n", "seed"],
}


class ConfigError(ValueError):
    pass


def _parse_complex(v) -> complex:
    z = None
    try:
        if isinstance(v, (int, float)):
            z = complex(v)
        elif isinstance(v, (list, tuple)) and len(v) == 2:
            z = complex(float(v[0]), float(v[1]))
        elif isinstance(v, str):
            z = complex(v.replace("i", "j"))
    except (TypeError, ValueError, OverflowError):
        pass
    if z is None or not cmath.isfinite(z):
        raise ConfigError(f"cannot parse finite complex value {v!r}")
    return z


def _set_nested(cfg: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = cfg
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override non-mapping key {dotted!r}")
    node[keys[-1]] = value


def load_config(path: str, overrides: list[str] | None = None,
                env: dict | None = None) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    env = os.environ if env is None else env
    for name, raw in sorted(env.items()):
        if name.startswith(ENV_PREFIX):
            dotted = name[len(ENV_PREFIX):].lower().replace("__", ".")
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            _set_nested(cfg, dotted, value)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_nested(cfg, dotted, value)
    return cfg


def validate_keys(subcommand: str, cfg: dict) -> None:
    missing = [k for k in REQUIRED_KEYS[subcommand] if k not in cfg]
    if missing:
        raise ConfigError(
            f"{subcommand}: missing required config keys: {', '.join(missing)}")


def _spec_from(cfg: dict) -> EnsembleSpec:
    try:
        law = EntryLaw(kind=cfg.get("law", "complex-gaussian"))
        return EnsembleSpec(n=int(cfg["n"]), N=int(cfg["N"]), k=int(cfg["k"]),
                            law=law, master_seed=int(cfg["seed"]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc))


def _experiment_config(cfg: dict, spec: EnsembleSpec) -> ExperimentConfig:
    # Checked before the run: a non-numeric threshold would otherwise fail
    # only at its comparison, after the whole experiment has run.
    thresholds = cfg.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise ConfigError(f"thresholds must be a mapping, got {thresholds!r}")
    for key, value in thresholds.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"threshold {key!r} must be a number, got {value!r}")
    try:
        return ExperimentConfig(
            spec=spec,
            trials=int(cfg.get("trials", 1)),
            z_list=[_parse_complex(z) for z in cfg.get("z_list", [1.0])],
            t_list=[float(t) for t in cfg.get("t_list", [0.3, 0.5, 1.0])],
            thresholds=thresholds,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc))


def _atomic_write_json(path: str, payload: dict) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _blas_build(module) -> dict:
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def _environment() -> dict:
    """Library versions, BLAS builds, CPU count and the BLAS thread count in
    force where this is called."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(np),
        "scipy_blas": _blas_build(scipy),
        "blas_threads": linalg.blas_thread_counts(),
        "cpu_count": os.cpu_count(),
    }


class RunManifest:
    """Records everything needed to reproduce a run."""

    def __init__(self, subcommand: str, cfg: dict, out_dir: str):
        self.subcommand = subcommand
        self.cfg = cfg
        self.out_dir = out_dir
        self.outputs: list[str] = []
        self.seeds: list[int] = []
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def register(self, path: str) -> str:
        self.outputs.append(os.path.basename(path))
        return path

    def write(self) -> None:
        payload = {
            "artifact_version": autocov_spectra.__version__,
            "subcommand": self.subcommand,
            "config": self.cfg,
            "resolved_seeds": self.seeds,
            "outputs": sorted(self.outputs),
            "started": self.started,
            "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "environment": _environment(),
        }
        _atomic_write_json(os.path.join(self.out_dir, "manifest.json"), payload)


def _run_esd(cfg: dict, manifest: RunManifest) -> int:
    spec = _spec_from(cfg)
    config = _experiment_config(cfg, spec)
    report = experiments.esd_experiment(config)
    manifest.seeds = report.seeds
    experiments.write_report_json(
        manifest.register(os.path.join(manifest.out_dir, "esd_report.json")), report)
    X = sample_entry_matrix(spec, 0)
    eigs = linalg.eigenvalues(build_autocov(X, spec.k))
    experiments.write_eigenvalue_csv(
        manifest.register(os.path.join(manifest.out_dir, "eigenvalues.csv")), eigs)
    radii = np.sort(np.abs(eigs))
    cdf = np.arange(1, radii.size + 1) / radii.size
    experiments.write_radial_cdf_csv(
        manifest.register(os.path.join(manifest.out_dir, "radial_cdf.csv")), radii, cdf)
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _run_lsv_tail(cfg: dict, manifest: RunManifest) -> int:
    spec = _spec_from(cfg)
    config = _experiment_config(cfg, spec)
    z = _parse_complex(cfg["z"])
    if z == 0:
        raise ConfigError("lsv-tail: z = 0 is excluded")
    report = experiments.lsv_tail_experiment(config, z)
    experiments.write_report_json(
        manifest.register(os.path.join(manifest.out_dir, "lsv_tail_report.json")), report)
    path = manifest.register(os.path.join(manifest.out_dir, "lsv_values.csv"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trial,least_singular_value\n")
        for i, v in enumerate(report.lsv_values):
            fh.write(f"{i},{v!r}\n")
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _run_linearize_check(cfg: dict, manifest: RunManifest) -> int:
    spec = _spec_from(cfg)
    z = _parse_complex(cfg["z"])
    if z == 0:
        raise ConfigError("linearize-check: z = 0 is excluded")
    trials = _experiment_config(cfg, spec).trials
    all_ok = True
    reports = []
    for trial_index in range(trials):
        X = sample_entry_matrix(spec, trial_index)
        rep = experiments.linearization_check(X, z, spec.k)
        reports.append(experiments._report_dict(rep))
        all_ok = all_ok and rep.passed
    _atomic_write_json(
        manifest.register(os.path.join(manifest.out_dir, "linearization_report.json")),
        {"trials": reports, "passed": all_ok})
    return EXIT_OK if all_ok else EXIT_ASSERTION


def _run_hermitize(cfg: dict, manifest: RunManifest) -> int:
    spec = _spec_from(cfg)
    config = _experiment_config(cfg, spec)
    try:
        h = float(cfg.get("h", 0.1))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"hermitize: {exc}")
    if not 0 < h < math.inf:
        raise ConfigError(f"hermitize: grid spacing h must be positive and finite, got {h}")
    report = experiments.hermitization_pipeline(config, h=h)
    experiments.write_report_json(
        manifest.register(os.path.join(manifest.out_dir, "hermitization_report.json")),
        report)
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _run_fixed_point(cfg: dict, manifest: RunManifest) -> int:
    try:
        gamma0 = float(cfg["gamma0"])
        gamma1 = float(cfg["gamma1"])
        z_list = [_parse_complex(z) for z in cfg["z_list"]]
        t_list = [float(t) for t in cfg["t_list"]]
        points = [ResolventParams(z=z, t=t, gamma0=gamma0, a=1.0 - gamma1)
                  for z in z_list for t in t_list]
        spec = None
        if "n" in cfg and "seed" in cfg:
            spec = EnsembleSpec(
                n=int(cfg["n"]), N=int(round(gamma0 * int(cfg["n"]))),
                k=int(round(gamma1 * int(cfg["n"]))),
                law=EntryLaw(kind=cfg.get("law", "complex-gaussian")),
                master_seed=int(cfg["seed"]))
            trials = int(cfg.get("trials", 1))
            if trials < 1:
                raise ValueError("trials must be >= 1")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"fixed-point: {exc}")
    solutions = [solve_s(params) for params in points]
    means = [None] * len(points)
    if spec is not None:
        means = experiments.resolvent_trace_means(
            (build_autocov(sample_entry_matrix(spec, i), spec.k) for i in range(trials)),
            z_list, t_list)
    rows = []
    for params, sol, mean in zip(points, solutions, means):
        emp = 0j
        err = float("nan")
        if mean is not None:
            emp = complex(mean)
            err = abs(emp - 1j * sol.s / gamma0)
        rows.append((params.z, params.t, sol.s, sol.g12, emp, err))
    write_comparison_csv(
        manifest.register(os.path.join(manifest.out_dir, "fixed_point.csv")), rows)
    return EXIT_OK


def _run_large_k(cfg: dict, manifest: RunManifest) -> int:
    spec = _spec_from(cfg)
    if spec.k < spec.n / 2:
        raise ConfigError(f"large-k: requires k >= n/2, got k={spec.k}, n={spec.n}")
    config = _experiment_config(cfg, spec)
    if not config.z_list or not config.t_list:
        # The resolvent check would average no errors and report NaN.
        raise ConfigError("large-k: z_list and t_list must be nonempty")
    try:
        for z in config.z_list:
            for t in config.t_list:
                ResolventParams(z=z, t=t, gamma0=spec.gamma0, a=1.0 - spec.gamma1)
    except ValueError as exc:
        raise ConfigError(f"large-k: {exc}")
    report = experiments.large_k_experiment(config)
    experiments.write_report_json(
        manifest.register(os.path.join(manifest.out_dir, "large_k_report.json")), report)
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _run_limit_law_table(cfg: dict, manifest: RunManifest) -> int:
    grid = cfg["grid"]
    if not isinstance(grid, dict):
        raise ConfigError(f"limit-law-table: grid must be a mapping, got {grid!r}")
    for key in ("start", "stop", "step"):
        if key not in grid:
            raise ConfigError(f"limit-law-table: grid missing key {key!r}")
    try:
        law = Gamma0Law(float(cfg["gamma0"]))
        start, stop, step = (float(grid[k]) for k in ("start", "stop", "step"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"limit-law-table: {exc}")
    if not step > 0:
        raise ConfigError(f"limit-law-table: grid step must be positive, got {step}")
    if not 0 <= start <= stop < math.inf:
        raise ConfigError(
            f"limit-law-table: grid needs finite 0 <= start <= stop, got {start}, {stop}")
    r_grid = np.arange(start, stop, step)
    # Snap the final point to the exact stop value so the table closes at the
    # CDF endpoint.
    if r_grid.size and stop - r_grid[-1] < step / 2:
        r_grid = r_grid[:-1]
    r_grid = np.append(r_grid, stop)
    write_cdf_csv(
        manifest.register(os.path.join(manifest.out_dir, "limit_law_cdf.csv")),
        law, r_grid)
    return EXIT_OK


def _run_law_diagnostics(cfg: dict, manifest: RunManifest) -> int:
    try:
        law = EntryLaw(kind=cfg["law"])
        # moment_diagnostics raises ValueError only for a too-small
        # sample_count or n.
        report = moment_diagnostics(law, n=int(cfg["n"]),
                                    sample_count=int(cfg.get("sample_count", 100_000)),
                                    seed=int(cfg["seed"]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"law-diagnostics: {exc}")
    experiments.write_report_json(
        manifest.register(os.path.join(manifest.out_dir, "law_diagnostics.json")), report)
    return EXIT_OK if not report.violates_c2 else EXIT_ASSERTION


RUNNERS = {
    "esd": _run_esd,
    "lsv-tail": _run_lsv_tail,
    "linearize-check": _run_linearize_check,
    "hermitize": _run_hermitize,
    "fixed-point": _run_fixed_point,
    "large-k": _run_large_k,
    "limit-law-table": _run_limit_law_table,
    "law-diagnostics": _run_law_diagnostics,
}


def run(subcommand: str, config_file: str, overrides: list[str] | None = None,
        output_dir: str | None = None) -> int:
    try:
        cfg = load_config(config_file, overrides)
        if subcommand not in RUNNERS:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        validate_keys(subcommand, cfg)
        out_dir = output_dir or cfg.get("output_dir", ".")
        os.makedirs(out_dir, exist_ok=True)
        manifest = RunManifest(subcommand, cfg, out_dir)
        with linalg.one_blas_thread():
            status = RUNNERS[subcommand](cfg, manifest)
            manifest.write()
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (linalg.NumericBackendError, np.linalg.LinAlgError) as exc:
        print(f"numeric backend failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="autocov-spectra",
        description="Spectral simulation of lag-k auto-covariance ensembles.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("config", help="path to JSON config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config key (dotted path, JSON value)")
    parser.add_argument("--output-dir", default=None,
                        help="output directory (overrides config output_dir)")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.overrides, args.output_dir)


if __name__ == "__main__":
    sys.exit(main())
