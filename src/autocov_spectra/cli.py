"""Command-line entry point.

Runs one subcommand per invocation against a JSON config file, writes CSV and
JSON outputs plus a manifest sufficient to reproduce the run, and reports
through the exit status: 0 success, 2 scientific-assertion failure, 3
configuration error, 4 numeric backend failure. This is the only module that
writes files: every output goes through _write_output, which replaces the
target atomically.

Config values can be overridden by ``--set key=value`` (dotted keys, JSON
values). A top-level key that no subcommand reads is a configuration error,
so a misspelt key never runs silently at its default. run is the one place
a rejected config value becomes exit 3: a subcommand is a deterministic
function of its config, so a ConfigError, TypeError, ValueError or
OverflowError raised by the run (every one of them an argument check), a
MemoryError (every array's size follows from the config), or an OSError
from an unreadable config or unusable output directory, is reported as
``config error: <subcommand>: <message>``. So is a config nested too
deeply for json to parse or for the manifest to render, which is checked
before anything is written.
A usage error, which argparse rejects, exits 3 as well.

Every run calls BLAS on one thread (linalg.one_blas_thread), so outputs do
not depend on the caller's BLAS thread setting; the manifest records the
count together with the numpy version and its BLAS build. lsv-tail spreads
its trials, large-k its spectra and its resolvent trials, and esd its
trials when each eigensolves a matrix of side at least
experiments.ESD_FORK_MIN_SIDE, over the usable CPUs
(experiments.map_trials), whose forked workers inherit the pin. A run that
exits 3 or 4 removes the output directory if it created it and left it
empty.

A CLI process, run as a program (python -m) or through the autocov-spectra
console script (startup.main), starts with startup.start before numpy loads:
it keeps OpenSSL's _hashlib, which numpy.random would load through secrets,
out of the process; it fixes glibc's mmap threshold, so a freed trial's large
arrays go back to the OS, and its trim threshold, so a trial's heap top is
not given back and faulted in again; and it loads numpy with
OPENBLAS_NUM_THREADS=1, so OpenBLAS starts no threads for the pin to idle,
then puts the caller's value back. A library caller that imports this module
keeps its own settings; the pin alone applies there.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import datetime
import json
import math
import os
import platform
import sys
import tempfile

if __name__ == "__main__":
    from autocov_spectra import startup
    startup.start()

import numpy as np

import autocov_spectra
from autocov_spectra import experiments, linalg
from autocov_spectra.ensembles import (
    EnsembleSpec,
    EntryLaw,
    companion_eigenvalues,
    moment_diagnostics,
    sample_entry_matrix,
    sampled_companion,
    trial_seeds,
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
# Every key some runner reads: the required ones and those with a default.
CONFIG_KEYS = {"law", "h", "sample_count", "thresholds", "output_dir"}.union(
    *REQUIRED_KEYS.values())


class ConfigError(ValueError):
    pass


def _is_number(v) -> bool:
    """Whether v is a JSON number; bool is an int, but true is not a number."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_complex(v, key: str) -> complex:
    """v, the config value named key, as a finite complex number: a JSON
    number, a [re, im] pair of numbers, or a string such as "1+1j" or
    "1+1i"."""
    z = None
    try:
        if _is_number(v):
            z = complex(v)
        elif isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)):
            z = complex(float(v[0]), float(v[1]))
        elif isinstance(v, str):
            z = complex(v.replace("i", "j"))
    except (ValueError, OverflowError):
        pass
    if z is None or not cmath.isfinite(z):
        raise ConfigError(f"{key} must be a finite complex number, got {v!r}")
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
    except RecursionError:
        raise ConfigError(f"config file {path} nests too deeply to parse")
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
        except RecursionError:
            raise ConfigError(f"override {dotted!r} nests too deeply to parse")
        _set_nested(cfg, dotted, value)
    return cfg


def validate_keys(subcommand: str, cfg: dict) -> None:
    """Reject a key no runner reads, which would otherwise run silently at
    its default when misspelt, then a missing required key. A key another
    subcommand reads is allowed: one config can serve several."""
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in REQUIRED_KEYS[subcommand] if k not in cfg]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")


def _integer(cfg: dict, key: str, default: int | None = None) -> int:
    """cfg[key], or default when given and key is absent, which must be a
    JSON integer: int() would run 1.5 as 1 and accept true and "7"."""
    value = cfg[key] if default is None else cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _real(value, key: str) -> float:
    """value, the config value named key, which must be a JSON number:
    float() would run true as 1.0 and "1.5" as 1.5."""
    if not _is_number(value):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _resolvent_grid(cfg: dict) -> tuple[list[complex], list[float]]:
    """(z_list, t_list) of large-k and fixed-point: nonempty JSON arrays, of
    complex values and of numbers. Iterating would run "5" as ["5"] and
    {"1": 0} as ["1"], and an empty list would leave no point to compare."""
    for key in ("z_list", "t_list"):
        if not isinstance(cfg[key], list) or not cfg[key]:
            raise ConfigError(f"{key} must be a nonempty array, got {cfg[key]!r}")
    return ([_parse_complex(z, "z_list entry") for z in cfg["z_list"]],
            [_real(t, "t_list entry") for t in cfg["t_list"]])


def _spec_from(cfg: dict) -> EnsembleSpec:
    law = EntryLaw(kind=cfg.get("law", "complex-gaussian"))
    return EnsembleSpec(n=_integer(cfg, "n"), N=_integer(cfg, "N"), k=_integer(cfg, "k"),
                        law=law, master_seed=_integer(cfg, "seed"))


def _experiment_config(cfg: dict, spec: EnsembleSpec, manifest: RunManifest,
                       gated: tuple[str, ...] = ()) -> ExperimentConfig:
    """The run's ExperimentConfig; the manifest records the thresholds named
    in gated, those the subcommand's verdict compares against, with cfg's
    overrides applied."""
    config = ExperimentConfig(
        spec=spec,
        trials=_integer(cfg, "trials", 1),
        thresholds=cfg.get("thresholds", {}),
    )
    manifest.thresholds = {key: config.thresholds[key] for key in gated}
    return config


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
    values, complex numbers into {"re", "im"} and non-finite floats into None,
    walking dicts and lists."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, complex):
        return {"re": _plain(value.real), "im": _plain(value.imag)}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _json_text(payload) -> str:
    """A report dataclass or a dict as sorted, indented, strict JSON: a
    non-finite float is written as null, never as NaN or Infinity."""
    return json.dumps(_plain(payload), indent=2, sort_keys=True, allow_nan=False)


def _write_json(path: str, payload) -> None:
    _write_output(path, _json_text(payload) + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    """One line per row, fields as repr() and CRLF line ends, as csv.writer
    writes them. Fields must be Python numbers: numpy 2 reprs a numpy
    scalar as np.float64(...)."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    _write_output(path, "\r\n".join(lines) + "\r\n")


def _environment() -> dict:
    """Python and numpy versions, numpy's BLAS build, CPU count, the CPUs
    this process may run on (map_trials' worker count) and the BLAS thread
    count in force where this is called."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": linalg.blas_thread_counts(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": experiments.usable_cpus(),
    }


class RunManifest:
    """Records everything needed to reproduce a run. The config is rendered
    on construction, before any output: one too deep to render is a
    ConfigError, not a run left without a manifest. write splices that text
    in at "config", the one key that follows a raw newline at indent two."""

    def __init__(self, subcommand: str, cfg: dict, out_dir: str):
        self.subcommand = subcommand
        try:
            self.config = _json_text(cfg)
        except RecursionError:
            raise ConfigError("config nests too deeply to record in the manifest") from None
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
            "config": None,
            "resolved_seeds": self.seeds,
            "thresholds": self.thresholds,
            "outputs": sorted(self.outputs),
            "started": self.started,
            "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "environment": _environment(),
        }
        head, tail = _json_text(payload).split('\n  "config": null,')
        config = self.config.replace("\n", "\n  ")
        _write_output(os.path.join(self.out_dir, "manifest.json"),
                      f'{head}\n  "config": {config},{tail}\n')


def _run_esd(cfg: dict, manifest: RunManifest) -> int:
    spec = _spec_from(cfg)
    config = _experiment_config(cfg, spec, manifest, ("radial_ks",))
    report = experiments.esd_experiment(config)
    manifest.seeds = report.seeds
    _write_json(manifest.path("esd_report.json"), report)
    eigs = companion_eigenvalues(*sampled_companion(spec, 0))
    _write_csv(manifest.path("eigenvalues.csv"), ["re_lambda", "im_lambda"],
               [(lam.real, lam.imag) for lam in eigs.tolist()])
    radii = np.sort(np.abs(eigs)).tolist()
    _write_csv(manifest.path("radial_cdf.csv"), ["r", "empirical_cdf"],
               [(r, (i + 1) / len(radii)) for i, r in enumerate(radii)])
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _run_lsv_tail(cfg: dict, manifest: RunManifest) -> int:
    spec = _spec_from(cfg)
    config = _experiment_config(cfg, spec, manifest, ("lsv_tail_freq",))
    report = experiments.lsv_tail_experiment(config, _parse_complex(cfg["z"], "z"))
    manifest.seeds = trial_seeds(spec.master_seed, config.trials)
    _write_json(manifest.path("lsv_tail_report.json"), report)
    _write_csv(manifest.path("lsv_values.csv"), ["trial", "least_singular_value"],
               enumerate(report.lsv_values))
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _run_linearize_check(cfg: dict, manifest: RunManifest) -> int:
    spec = _spec_from(cfg)
    z = _parse_complex(cfg["z"], "z")
    trials = _experiment_config(cfg, spec, manifest).trials
    # Serial: a forked worker costs about 0.1 s of CPU, and at (n, N, k) =
    # (64, 48, 40) with 2-20 trials it added wall time (README).
    reports = [experiments.linearization_check(sample_entry_matrix(spec, i), z, spec.k)
               for i in range(trials)]
    all_ok = all(rep.passed for rep in reports)
    manifest.seeds = trial_seeds(spec.master_seed, trials)
    _write_json(manifest.path("linearization_report.json"),
                {"trials": reports, "passed": all_ok})
    return EXIT_OK if all_ok else EXIT_ASSERTION


def _run_hermitize(cfg: dict, manifest: RunManifest) -> int:
    spec = _spec_from(cfg)
    config = _experiment_config(cfg, spec, manifest, ("hermitization_tv",))
    report = experiments.hermitization_pipeline(config, h=_real(cfg.get("h", 0.1), "h"))
    manifest.seeds = trial_seeds(spec.master_seed, 1)
    _write_json(manifest.path("hermitization_report.json"), report)
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _run_fixed_point(cfg: dict, manifest: RunManifest) -> int:
    gamma0 = _real(cfg["gamma0"], "gamma0")
    gamma1 = _real(cfg["gamma1"], "gamma1")
    spec = None
    if ("n" in cfg) != ("seed" in cfg):
        raise ConfigError("n and seed go together: give both to simulate, or neither")
    if "n" in cfg:
        n = _integer(cfg, "n")
        spec = _spec_from({**cfg, "N": round(gamma0 * n), "k": round(gamma1 * n)})
        trials = ExperimentConfig(spec, _integer(cfg, "trials", 1)).trials
    z_list, t_list = _resolvent_grid(cfg)
    points = [ResolventParams(z=z, t=t, gamma0=gamma0, a=1.0 - gamma1)
              for z in z_list for t in t_list]
    solutions = [solve_s(params) for params in points]
    means = [None] * len(points)
    if spec is not None:
        means = experiments.resolvent_trace_means(spec, trials, z_list, t_list)
        manifest.seeds = trial_seeds(spec.master_seed, trials)
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
    config = _experiment_config(cfg, spec, manifest,
                                ("resolvent_abs_error", "stability_ks"))
    report = experiments.large_k_experiment(config, *_resolvent_grid(cfg))
    manifest.seeds = (trial_seeds(spec.master_seed, config.trials)
                      + trial_seeds(experiments.stability_spec(spec).master_seed, 1))
    _write_json(manifest.path("large_k_report.json"), report)
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _run_limit_law_table(cfg: dict, manifest: RunManifest) -> int:
    grid = cfg["grid"]
    if not isinstance(grid, dict):
        raise ConfigError(f"grid must be a mapping, got {grid!r}")
    for key in ("start", "stop", "step"):
        if key not in grid:
            raise ConfigError(f"grid missing key {key!r}")
    law = Gamma0Law(_real(cfg["gamma0"], "gamma0"))
    start, stop, step = (_real(grid[k], f"grid.{k}") for k in ("start", "stop", "step"))
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
    seed = _integer(cfg, "seed")
    report = moment_diagnostics(law, n=_integer(cfg, "n"),
                                sample_count=_integer(cfg, "sample_count", 100_000),
                                seed=seed)
    manifest.seeds = trial_seeds(seed, 1)
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
    is a ValueError. A trial worker that ended without a result
    (experiments.TrialWorkerError) exits 4 as well. On exit 3 or 4 the
    output directory is removed if this run created it and it is still
    empty: a runner parses some keys, and meets numeric failures, only after
    the directory is made."""
    made_dir = None
    try:
        cfg = load_config(config_file, overrides)
        if subcommand not in RUNNERS:
            raise ConfigError("unknown subcommand")
        validate_keys(subcommand, cfg)
        out_dir = output_dir or cfg.get("output_dir", ".")
        manifest = RunManifest(subcommand, cfg, out_dir)
        if not os.path.isdir(out_dir):
            os.makedirs(out_dir)
            made_dir = out_dir
        with linalg.one_blas_thread():
            status = RUNNERS[subcommand](cfg, manifest)
            manifest.write()
        return status
    except (np.linalg.LinAlgError, experiments.TrialWorkerError) as exc:
        print(f"numeric backend failure: {exc}", file=sys.stderr)
        status = EXIT_NUMERIC
    except (ConfigError, TypeError, ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"config error: {subcommand}: {exc}", file=sys.stderr)
        status = EXIT_CONFIG
    if made_dir is not None:
        with contextlib.suppress(OSError):  # not empty, or already gone
            os.rmdir(made_dir)
    return status


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
