"""Command-line entry point.

Runs one subcommand per invocation against a JSON config file, writes CSV and
JSON outputs plus a manifest sufficient to reproduce the run, and reports
through the exit status: 0 success, 2 scientific-assertion failure, 3
configuration error, 4 numeric backend failure. This is the only module that
writes files: every output goes through _write_output, which replaces the
target atomically.

Config values can be overridden by ``--set key=value`` (dotted keys, JSON
values). run is the one place a rejected config value becomes exit 3: a
subcommand is a deterministic function of its config, so a ConfigError,
TypeError, ValueError or OverflowError raised by the run (every one of them
an argument check), or an OSError from an unreadable config or unusable
output directory, is reported as ``config error: <subcommand>: <message>``.
A usage error, which argparse rejects, exits 3 as well.

Every run calls BLAS on one thread (linalg.one_blas_thread), so outputs do
not depend on the caller's BLAS thread setting; the manifest records the
count together with the numpy version and its BLAS build.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import datetime
import json
import math
import os
import platform
import sys
import tempfile

import numpy as np

import autocov_spectra
from autocov_spectra import experiments, linalg
from autocov_spectra.ensembles import (
    EnsembleSpec,
    EntryLaw,
    build_autocov,
    mix_seed,
    moment_diagnostics,
    sample_entry_matrix,
)
from autocov_spectra.experiments import ExperimentConfig
from autocov_spectra.fixed_point import ResolventParams, predicted_stieltjes, solve_s
from autocov_spectra.limit_law import Gamma0Law

EXIT_OK = 0
EXIT_ASSERTION = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

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


def load_config(path: str, overrides: list[str] | None = None) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
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
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")


def _spec_from(cfg: dict) -> EnsembleSpec:
    law = EntryLaw(kind=cfg.get("law", "complex-gaussian"))
    return EnsembleSpec(n=int(cfg["n"]), N=int(cfg["N"]), k=int(cfg["k"]),
                        law=law, master_seed=int(cfg["seed"]))


def _experiment_config(cfg: dict, spec: EnsembleSpec,
                       manifest: RunManifest) -> ExperimentConfig:
    """The run's ExperimentConfig; the manifest records its thresholds, the
    defaults merged with cfg's overrides."""
    config = ExperimentConfig(
        spec=spec,
        trials=int(cfg.get("trials", 1)),
        z_list=[_parse_complex(z) for z in cfg.get("z_list", [1.0])],
        t_list=[float(t) for t in cfg.get("t_list", [0.3, 0.5, 1.0])],
        thresholds=cfg.get("thresholds", {}),
    )
    manifest.thresholds = config.thresholds
    return config


def _trial_seeds(spec: EnsembleSpec, trials: int) -> list[int]:
    """The derived seeds sample_entry_matrix uses for trials 0 .. trials-1."""
    return [mix_seed(spec.master_seed, i) for i in range(trials)]


def _write_output(path: str, text: str) -> None:
    """Write text to path through a temporary file in the same directory, so
    path holds either its old content or all of text."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _plain(value):
    """value with dataclasses, numpy arrays and scalars turned into Python
    values and complex numbers into {"re", "im"}, walking dicts and lists."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _write_json(path: str, payload) -> None:
    """A report dataclass or a dict as sorted, indented JSON."""
    _write_output(path, json.dumps(_plain(payload), indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    """One line per row, fields as repr() and CRLF line ends, as csv.writer
    writes them. Fields must be Python numbers: numpy 2 reprs a numpy
    scalar as np.float64(...)."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    _write_output(path, "\r\n".join(lines) + "\r\n")


def _environment() -> dict:
    """Python and numpy versions, numpy's BLAS build, CPU count and the BLAS
    thread count in force where this is called."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": {"name": blas.get("name"), "version": blas.get("version")},
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
        self.thresholds: dict = {}
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def path(self, name: str) -> str:
        """Register the output file name and return its path."""
        self.outputs.append(name)
        return os.path.join(self.out_dir, name)

    def write(self) -> None:
        payload = {
            "artifact_version": autocov_spectra.__version__,
            "subcommand": self.subcommand,
            "config": self.cfg,
            "resolved_seeds": self.seeds,
            "thresholds": self.thresholds,
            "outputs": sorted(self.outputs),
            "started": self.started,
            "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "environment": _environment(),
        }
        _write_json(os.path.join(self.out_dir, "manifest.json"), payload)


def _run_esd(cfg: dict, manifest: RunManifest) -> int:
    spec = _spec_from(cfg)
    config = _experiment_config(cfg, spec, manifest)
    report = experiments.esd_experiment(config)
    manifest.seeds = report.seeds
    _write_json(manifest.path("esd_report.json"), report)
    eigs = linalg.eigenvalues(build_autocov(sample_entry_matrix(spec, 0), spec.k))
    _write_csv(manifest.path("eigenvalues.csv"), ["re_lambda", "im_lambda"],
               [(lam.real, lam.imag) for lam in eigs.tolist()])
    radii = np.sort(np.abs(eigs)).tolist()
    _write_csv(manifest.path("radial_cdf.csv"), ["r", "empirical_cdf"],
               [(r, (i + 1) / len(radii)) for i, r in enumerate(radii)])
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _run_lsv_tail(cfg: dict, manifest: RunManifest) -> int:
    spec = _spec_from(cfg)
    config = _experiment_config(cfg, spec, manifest)
    report = experiments.lsv_tail_experiment(config, _parse_complex(cfg["z"]))
    manifest.seeds = _trial_seeds(spec, config.trials)
    _write_json(manifest.path("lsv_tail_report.json"), report)
    _write_csv(manifest.path("lsv_values.csv"), ["trial", "least_singular_value"],
               enumerate(report.lsv_values))
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _run_linearize_check(cfg: dict, manifest: RunManifest) -> int:
    spec = _spec_from(cfg)
    z = _parse_complex(cfg["z"])
    trials = _experiment_config(cfg, spec, manifest).trials
    reports = [experiments.linearization_check(sample_entry_matrix(spec, i), z, spec.k)
               for i in range(trials)]
    all_ok = all(rep.passed for rep in reports)
    manifest.seeds = _trial_seeds(spec, trials)
    _write_json(manifest.path("linearization_report.json"),
                {"trials": reports, "passed": all_ok})
    return EXIT_OK if all_ok else EXIT_ASSERTION


def _run_hermitize(cfg: dict, manifest: RunManifest) -> int:
    spec = _spec_from(cfg)
    config = _experiment_config(cfg, spec, manifest)
    h = float(cfg.get("h", 0.1))
    if not 0 < h < math.inf:
        raise ConfigError(f"grid spacing h must be positive and finite, got {h}")
    report = experiments.hermitization_pipeline(config, h=h)
    manifest.seeds = _trial_seeds(spec, 1)
    _write_json(manifest.path("hermitization_report.json"), report)
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _run_fixed_point(cfg: dict, manifest: RunManifest) -> int:
    gamma0 = float(cfg["gamma0"])
    gamma1 = float(cfg["gamma1"])
    spec = None
    if "n" in cfg and "seed" in cfg:
        spec = EnsembleSpec(
            n=int(cfg["n"]), N=int(round(gamma0 * int(cfg["n"]))),
            k=int(round(gamma1 * int(cfg["n"]))),
            law=EntryLaw(kind=cfg.get("law", "complex-gaussian")),
            master_seed=int(cfg["seed"]))
        trials = ExperimentConfig(spec, int(cfg.get("trials", 1))).trials
    z_list = [_parse_complex(z) for z in cfg["z_list"]]
    t_list = [float(t) for t in cfg["t_list"]]
    # An empty list would leave the table with no rows.
    if not z_list or not t_list:
        raise ConfigError("z_list and t_list must be nonempty")
    points = [ResolventParams(z=z, t=t, gamma0=gamma0, a=1.0 - gamma1)
              for z in z_list for t in t_list]
    solutions = [solve_s(params) for params in points]
    means = [None] * len(points)
    if spec is not None:
        means = experiments.resolvent_trace_means(
            (sample_entry_matrix(spec, i) for i in range(trials)), spec.k, z_list, t_list)
        manifest.seeds = _trial_seeds(spec, trials)
    rows = []
    for params, sol, mean in zip(points, solutions, means):
        emp = 0j
        err = float("nan")
        if mean is not None:
            emp = complex(mean)
            err = abs(emp - predicted_stieltjes(params, sol))
        rows.append((params.z.real, params.z.imag, params.t, sol.s,
                     sol.g12.real, sol.g12.imag, emp.real, emp.imag, err))
    _write_csv(manifest.path("fixed_point.csv"),
               ["re_z", "im_z", "t", "s", "re_g12", "im_g12",
                "empirical_re", "empirical_im", "abs_error"], rows)
    return EXIT_OK


def _run_large_k(cfg: dict, manifest: RunManifest) -> int:
    spec = _spec_from(cfg)
    config = _experiment_config(cfg, spec, manifest)
    report = experiments.large_k_experiment(config)
    manifest.seeds = (_trial_seeds(spec, config.trials)
                      + _trial_seeds(experiments.stability_spec(spec), 1))
    _write_json(manifest.path("large_k_report.json"), report)
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _run_limit_law_table(cfg: dict, manifest: RunManifest) -> int:
    grid = cfg["grid"]
    if not isinstance(grid, dict):
        raise ConfigError(f"grid must be a mapping, got {grid!r}")
    for key in ("start", "stop", "step"):
        if key not in grid:
            raise ConfigError(f"grid missing key {key!r}")
    law = Gamma0Law(float(cfg["gamma0"]))
    start, stop, step = (float(grid[k]) for k in ("start", "stop", "step"))
    if not step > 0:
        raise ConfigError(f"grid step must be positive, got {step}")
    if not 0 <= start <= stop < math.inf:
        raise ConfigError(f"grid needs finite 0 <= start <= stop, got {start}, {stop}")
    r_grid = np.arange(start, stop, step)
    # Snap the final point to the exact stop value so the table closes at the
    # CDF endpoint.
    if r_grid.size and stop - r_grid[-1] < step / 2:
        r_grid = r_grid[:-1]
    r_grid = np.append(r_grid, stop)
    _write_csv(manifest.path("limit_law_cdf.csv"), ["r", "cdf"], law.cdf_table(r_grid))
    return EXIT_OK


def _run_law_diagnostics(cfg: dict, manifest: RunManifest) -> int:
    law = EntryLaw(kind=cfg["law"])
    report = moment_diagnostics(law, n=int(cfg["n"]),
                                sample_count=int(cfg.get("sample_count", 100_000)),
                                seed=int(cfg["seed"]))
    manifest.seeds = [mix_seed(int(cfg["seed"]), 0)]
    _write_json(manifest.path("law_diagnostics.json"), report)
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
    """Run one subcommand and return its exit status. The numeric clause comes
    first: np.linalg.LinAlgError, which the decompositions and solve_s raise,
    is a ValueError."""
    try:
        cfg = load_config(config_file, overrides)
        if subcommand not in RUNNERS:
            raise ConfigError("unknown subcommand")
        validate_keys(subcommand, cfg)
        out_dir = output_dir or cfg.get("output_dir", ".")
        os.makedirs(out_dir, exist_ok=True)
        manifest = RunManifest(subcommand, cfg, out_dir)
        with linalg.one_blas_thread():
            status = RUNNERS[subcommand](cfg, manifest)
            manifest.write()
        return status
    except np.linalg.LinAlgError as exc:
        print(f"numeric backend failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, TypeError, ValueError, OverflowError, OSError) as exc:
        print(f"config error: {subcommand}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="autocov-spectra",
        description="Spectral simulation of lag-k auto-covariance ensembles.")
    parser.add_argument("subcommand", choices=RUNNERS)
    parser.add_argument("config", help="path to JSON config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config key (dotted path, JSON value)")
    parser.add_argument("--output-dir", default=None,
                        help="output directory (overrides config output_dir)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2, the assertion code, on a usage error; 0 on --help.
        return EXIT_CONFIG if exc.code else EXIT_OK
    return run(args.subcommand, args.config, args.overrides, args.output_dir)


if __name__ == "__main__":
    sys.exit(main())
