"""Command-line entry point.

Runs one subcommand per invocation against a JSON config file, writes CSV and
JSON outputs plus a manifest sufficient to reproduce the run, and reports
through the exit status: 0 success, 2 scientific-assertion failure, 3
configuration error, 4 numeric backend failure. A subcommand's runner is a
function of the parsed config values: it returns its verdict, its outputs as
text and the seeds and thresholds the manifest records, and writes nothing.
run alone turns the verdict into exit 0 or 2, renders the manifest and, once
the runner has returned, makes the output directory and writes the outputs,
the manifest last, each through _write_output, which replaces the target
atomically. So a run that fails creates no file or directory, and an
unusable output directory is reported after the computation.

Config values can be overridden by ``--set key=value`` (dotted keys, JSON
values). Every key is parsed by its PARSERS entry, read or not, before the
runner starts (validate_keys); SCHEMAS gives the keys each subcommand reads,
and the manifest records the config with their defaults and lists the others
as ignored_keys. run is the one place a rejected config value becomes exit
3: a subcommand is a deterministic function of its config, so a
ConfigError, TypeError, ValueError or OverflowError raised by the run (every
one of them an argument check), a MemoryError (every array's size follows
from the config), or an OSError from an unreadable config or unusable output
directory, is reported as ``config error: <subcommand>: <message>``. A usage
error, which argparse rejects, exits 3 as well.

Every run calls BLAS on one thread (linalg.one_blas_thread), so outputs do
not depend on the caller's BLAS thread setting; the manifest records the
count together with the numpy version and its BLAS build. lsv-tail spreads
its trials, large-k its spectra and its resolvent trials, and esd its
trials and the trial-0 spectrum its CSVs take, when each eigensolves a
matrix of side at least experiments.ESD_FORK_MIN_SIDE, over the usable
CPUs (experiments.map_trials), whose forked workers inherit the pin.

A CLI process, run as a program (python -m) or through the autocov-spectra
console script (startup.main), starts with startup.start before numpy loads,
which loads OpenBLAS at one thread, among other settings. A library caller
that imports this module keeps its own settings; the pin alone applies there.
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

if __name__ == "__main__":
    from autocov_spectra import startup
    startup.start()

import numpy as np

import autocov_spectra
from autocov_spectra import experiments, linalg
from autocov_spectra.ensembles import (
    EnsembleSpec,
    EntryLaw,
    moment_diagnostics,
    sample_entry_matrix,
    trial_seeds,
)
from autocov_spectra.experiments import ExperimentConfig
from autocov_spectra.fixed_point import ResolventParams, solve_s
from autocov_spectra.limit_law import Gamma0Law

EXIT_OK = 0
EXIT_ASSERTION = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


def _is_number(v) -> bool:
    """Whether v is a JSON number; bool is an int, but true is not a number."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(value, key: str) -> int:
    """value, the config value named key, which must be a JSON integer: int()
    would run 1.5 as 1 and accept true and "7"."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _real(value, key: str) -> float:
    """value, the config value named key, which must be a JSON number:
    float() would run true as 1.0 and "1.5" as 1.5."""
    if not _is_number(value):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _parse_complex(v, key: str) -> complex:
    """v, the config value named key, as a finite complex number: a JSON
    number, a [re, im] pair of numbers, or a string such as "1+1j" or "1+1i"."""
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


def _nonempty_array(parse_entry):
    """A parser of nonempty JSON arrays of values parse_entry parses. Iterating
    would run "5" as ["5"] and {"1": 0} as ["1"]; an empty list compares nothing."""
    def parse(value, key: str) -> list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{key} must be a nonempty array, got {value!r}")
        return [parse_entry(entry, f"{key} entry") for entry in value]
    return parse


def _grid(value, key: str) -> tuple[float, float, float]:
    """(start, stop, step) of a mapping with those keys only: finite
    0 <= start <= stop, step > 0."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, got {value!r}")
    unknown = sorted(set(value) - {"start", "stop", "step"})
    if unknown:
        raise ConfigError(f"unknown {key} keys: {', '.join(unknown)}")
    for name in ("start", "stop", "step"):
        if name not in value:
            raise ConfigError(f"{key} missing key {name!r}")
    start, stop, step = (_real(value[name], f"{key}.{name}") for name in ("start", "stop", "step"))
    if not step > 0:
        raise ConfigError(f"{key} step must be positive, got {step}")
    if not 0 <= start <= stop < math.inf:
        raise ConfigError(f"{key} needs finite 0 <= start <= stop, got {start}, {stop}")
    return start, stop, step


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


# Every config key, and what it means wherever it is read: parser(value, key)
# returns the parsed value or raises. A key outside this table is unknown.
PARSERS = {
    **dict.fromkeys(("n", "N", "k", "seed", "trials", "sample_count"), _integer),
    **dict.fromkeys(("h", "gamma0", "gamma1"), _real),
    "z": _parse_complex,
    "z_list": _nonempty_array(_parse_complex),
    "t_list": _nonempty_array(_real),
    "grid": _grid,
    "law": lambda value, key: EntryLaw(kind=value),
    "thresholds": lambda value, key: experiments.merged_thresholds(value),
    "output_dir": _string,
}

# The keys each subcommand reads: key -> REQUIRED, OPTIONAL (absent means
# unset) or its default in input form, which the manifest records.
REQUIRED, OPTIONAL = object(), object()
_SPEC = {"n": REQUIRED, "N": REQUIRED, "k": REQUIRED, "seed": REQUIRED,
         "law": "complex-gaussian", "output_dir": OPTIONAL}
_TRIALS = {**_SPEC, "trials": REQUIRED, "thresholds": {}}
SCHEMAS = {
    "esd": _TRIALS,
    "lsv-tail": {**_TRIALS, "z": REQUIRED},
    "linearize-check": {**_SPEC, "trials": REQUIRED, "z": REQUIRED},
    "hermitize": {**_SPEC, "h": 0.1, "thresholds": {}},  # trial 0 only
    # N and k follow from gamma0 and gamma1; n and seed together add a simulation.
    "fixed-point": {"gamma0": REQUIRED, "gamma1": REQUIRED, "z_list": REQUIRED,
                    "t_list": REQUIRED, "n": OPTIONAL, "seed": OPTIONAL, "trials": 1,
                    "law": "complex-gaussian", "output_dir": OPTIONAL},
    "large-k": {**_TRIALS, "z_list": REQUIRED, "t_list": REQUIRED},
    "limit-law-table": {"gamma0": REQUIRED, "grid": REQUIRED, "output_dir": OPTIONAL},
    "law-diagnostics": {"law": REQUIRED, "n": REQUIRED, "seed": REQUIRED,
                        "sample_count": 100_000, "output_dir": OPTIONAL},
}
DEFAULTS = {name: {key: default for key, default in schema.items()
                   if default is not REQUIRED and default is not OPTIONAL}
            for name, schema in SCHEMAS.items()}


def _set_nested(cfg: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = cfg
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override non-mapping key {dotted!r}")
    node[keys[-1]] = value


def load_config(path: str, overrides: list[str] | None = None) -> dict:
    """The config at path with overrides applied. One nested too deeply for
    json to parse, or to render, is a ConfigError: the render check rejects a
    deep config before any key is parsed, and every config that validate_keys
    accepts is at most 3 levels deep, so the manifest can render it one level
    down."""
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
    try:
        _json_file(cfg)
    except RecursionError:
        raise ConfigError("config nests too deeply to record in the manifest") from None
    return cfg


def validate_keys(subcommand: str, cfg: dict) -> dict:
    """The parsed value of every key the subcommand reads, defaults filled in.
    Rejects a key no subcommand reads (misspelt, it would run silently at its
    default), then a missing required key, then any value that does not
    parse: one config can serve several subcommands, but a key only others
    read is parsed too (the manifest lists it in ignored_keys)."""
    unknown = sorted(set(cfg) - set(PARSERS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    schema = SCHEMAS[subcommand]
    missing = [key for key, default in schema.items() if default is REQUIRED and key not in cfg]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    parsed = {key: PARSERS[key](value, key)
              for key, value in {**DEFAULTS[subcommand], **cfg}.items()}
    return {key: value for key, value in parsed.items() if key in schema}


def _experiment_config(p: dict, *gated: str) -> tuple[ExperimentConfig, dict]:
    """The run's ExperimentConfig from the parsed values p, and its manifest
    record: its trials' seeds and the thresholds named in gated, those the
    subcommand's verdict compares against."""
    spec = EnsembleSpec(n=p["n"], N=p["N"], k=p["k"], law=p["law"], master_seed=p["seed"])
    config = ExperimentConfig(spec, **{key: p[key] for key in ("trials", "thresholds")
                                       if key in p})
    return config, {"resolved_seeds": trial_seeds(spec.master_seed, config.trials),
                    "thresholds": {key: config.thresholds[key] for key in gated}}


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


def _json_file(payload) -> str:
    """A report dataclass or a dict as sorted, indented, strict JSON text: a
    non-finite float is written as null, never as NaN or Infinity."""
    return json.dumps(_plain(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_file(header: list[str], rows) -> str:
    """One line per row, fields as repr() and CRLF line ends, as csv.writer
    writes them. Fields must be Python numbers: numpy 2 reprs a numpy
    scalar as np.float64(...)."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    return "\r\n".join(lines) + "\r\n"


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


# A runner takes the parsed values and returns (passed, outputs, record):
# its verdict, its outputs as {file name: text}, and the manifest's
# resolved_seeds and thresholds, where it has any. It writes nothing; run
# decides the exit status and writes the outputs and the manifest.
def _run_esd(p: dict) -> tuple[bool, dict, dict]:
    config, record = _experiment_config(p, "radial_ks")
    report, eigs = experiments.esd_experiment(config)
    radii = np.sort(np.abs(eigs)).tolist()
    return report.passed, {
        "esd_report.json": _json_file(report),
        "eigenvalues.csv": _csv_file(["re_lambda", "im_lambda"],
                                     [(lam.real, lam.imag) for lam in eigs.tolist()]),
        "radial_cdf.csv": _csv_file(["r", "empirical_cdf"],
                                    [(r, (i + 1) / len(radii)) for i, r in enumerate(radii)]),
    }, record


def _run_lsv_tail(p: dict) -> tuple[bool, dict, dict]:
    config, record = _experiment_config(p, "lsv_tail_freq")
    report = experiments.lsv_tail_experiment(config, p["z"])
    return report.passed, {
        "lsv_tail_report.json": _json_file(report),
        "lsv_values.csv": _csv_file(["trial", "least_singular_value"],
                                    enumerate(report.lsv_values)),
    }, record


def _run_linearize_check(p: dict) -> tuple[bool, dict, dict]:
    config, record = _experiment_config(p)
    # Serial: a forked worker costs about 0.1 s of CPU, and at (n, N, k) =
    # (64, 48, 40) with 2-20 trials it added wall time (README).
    reports = [experiments.linearization_check(sample_entry_matrix(config.spec, i), p["z"],
                                               config.spec.k) for i in range(config.trials)]
    all_ok = all(rep.passed for rep in reports)
    return all_ok, {
        "linearization_report.json": _json_file({"trials": reports, "passed": all_ok})}, record


def _run_hermitize(p: dict) -> tuple[bool, dict, dict]:
    config, record = _experiment_config(p, "hermitization_tv")
    report = experiments.hermitization_pipeline(config, h=p["h"])
    return report.passed, {"hermitization_report.json": _json_file(report)}, record


def _run_fixed_point(p: dict) -> tuple[bool, dict, dict]:
    if ("n" in p) != ("seed" in p):
        raise ConfigError("n and seed go together: give both to simulate, or neither")
    config, record = None, {}
    if "n" in p:
        config, record = _experiment_config(
            {**p, "N": round(p["gamma0"] * p["n"]), "k": round(p["gamma1"] * p["n"])})
    points = [ResolventParams(z=z, t=t, gamma0=p["gamma0"], a=1.0 - p["gamma1"])
              for z in p["z_list"] for t in p["t_list"]]
    if config is None:
        solutions = [solve_s(params) for params in points]
        means, errors = [0j] * len(points), [math.nan] * len(points)
    else:
        solutions, means, errors = experiments.resolvent_check(
            config.spec, config.trials, p["z_list"], p["t_list"], points)
    rows = [(params.z.real, params.z.imag, params.t, sol.s,
             sol.g12.real, sol.g12.imag, emp.real, emp.imag, err)
            for params, sol, emp, err in zip(points, solutions, means, errors)]
    return True, {"fixed_point.csv": _csv_file(
        ["re_z", "im_z", "t", "s", "re_g12", "im_g12",
         "empirical_re", "empirical_im", "abs_error"], rows)}, record


def _run_large_k(p: dict) -> tuple[bool, dict, dict]:
    config, record = _experiment_config(p, "resolvent_abs_error", "stability_ks")
    report = experiments.large_k_experiment(config, p["z_list"], p["t_list"])
    record["resolved_seeds"] += trial_seeds(experiments.stability_spec(config.spec).master_seed, 1)
    return report.passed, {"large_k_report.json": _json_file(report)}, record


def _run_limit_law_table(p: dict) -> tuple[bool, dict, dict]:
    law = Gamma0Law(p["gamma0"])
    start, stop, step = p["grid"]
    r_grid = np.arange(start, stop, step)
    # Snap the final point to the exact stop value so the table closes at the
    # CDF endpoint.
    if r_grid.size and stop - r_grid[-1] < step / 2:
        r_grid = r_grid[:-1]
    r_grid = np.append(r_grid, stop)
    return True, {"limit_law_cdf.csv": _csv_file(["r", "cdf"], law.cdf_table(r_grid))}, {}


def _run_law_diagnostics(p: dict) -> tuple[bool, dict, dict]:
    report = moment_diagnostics(p["law"], p["n"], p["sample_count"], p["seed"])
    return not report.violates_c2, {"law_diagnostics.json": _json_file(report)}, {
        "resolved_seeds": trial_seeds(p["seed"], 1)}


# Subcommand "a-b" runs _run_a_b on its parsed values.
RUNNERS = {name: globals()["_run_" + name.replace("-", "_")] for name in SCHEMAS}


def run(subcommand: str, config_file: str, overrides: list[str] | None = None,
        output_dir: str | None = None) -> int:
    """Run one subcommand and return its exit status: 0 if the runner's
    verdict passed, 2 if not. The runner computes every output first; only
    then is the manifest rendered, the output directory made and each output
    written, the manifest last, so a run that exits 3 or 4 before that
    creates no file or directory, and an unusable output directory is
    reported after the computation. The numeric clause comes first:
    np.linalg.LinAlgError, which the decompositions and solve_s raise, is a
    ValueError. A trial worker that ended without a result
    (experiments.TrialWorkerError) exits 4 as well."""
    try:
        cfg = load_config(config_file, overrides)
        if subcommand not in RUNNERS:
            raise ConfigError("unknown subcommand")
        values = validate_keys(subcommand, cfg)
        out_dir = output_dir or values.get("output_dir", ".")
        started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        with linalg.one_blas_thread():
            passed, outputs, record = RUNNERS[subcommand](values)
            outputs["manifest.json"] = _json_file({
                "artifact_version": autocov_spectra.__version__,
                "subcommand": subcommand,
                "config": {**DEFAULTS[subcommand], **cfg},
                "ignored_keys": sorted(set(cfg) - set(SCHEMAS[subcommand])),
                "resolved_seeds": [], "thresholds": {}, **record,
                "outputs": sorted(outputs),
                "started": started,
                "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "environment": _environment(),
            })
            os.makedirs(out_dir, exist_ok=True)
            for name, text in outputs.items():
                _write_output(os.path.join(out_dir, name), text)
        return EXIT_OK if passed else EXIT_ASSERTION
    except (np.linalg.LinAlgError, experiments.TrialWorkerError) as exc:
        print(f"numeric backend failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, TypeError, ValueError, OverflowError, OSError, MemoryError) as exc:
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
