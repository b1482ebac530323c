"""The benchmark's workloads: one seeded JSON config per CLI subcommand, and
an oracle for each that checks a finished run's outputs.

The program only ever sees the generated config file. Every check here runs
after the timed region has ended.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERMITIZATION_TV_THRESHOLD = 0.15


class CheckFailed(Exception):
    """A run's outputs are missing, malformed or disagree with the oracle."""


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    base_config: dict
    expected_exits: frozenset
    outputs: tuple
    oracle: Callable[[str, dict, int], dict]

    def config(self, seed: int) -> dict:
        """The config the program runs, derived only from the workload seed."""
        return {**self.base_config, "seed": config_seed(self.name, seed)}


def config_seed(workload: str, seed: int) -> int:
    """Master seed for the program; distinct per workload for the same --seed."""
    return zlib.crc32(f"{workload}:{seed}".encode()) & 0x7FFFFFFF


def write_config(path: str, config: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(out_dir: str, name: str) -> dict:
    path = os.path.join(out_dir, name)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise CheckFailed(f"missing output {name}")
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{name} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise CheckFailed(f"{name} is not a JSON object")
    return data


# numpy >= 2 reprs a numpy scalar as "np.float64(...)"; the program writes
# eigenvalues.csv with repr() of numpy scalars, so its fields carry that
# wrapper around an exact float literal. The wrapper is accepted and counted.
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def _number(field: str, wrapped: list) -> float:
    match = _NUMPY_REPR.fullmatch(field)
    if match:
        wrapped.append(field)
        field = match.group(1)
    return float(field)


def _load_csv(out_dir: str, name: str, header: list[str],
              wrapped: list | None = None) -> list[list[float]]:
    """Numeric rows of a CSV output; `wrapped` collects numpy-repr fields."""
    wrapped = [] if wrapped is None else wrapped
    path = os.path.join(out_dir, name)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise CheckFailed(f"missing output {name}")
    if not rows or rows[0] != header:
        raise CheckFailed(f"{name}: header {rows[:1]} != {header}")
    try:
        values = [[_number(v, wrapped) for v in row] for row in rows[1:]]
    except ValueError as exc:
        raise CheckFailed(f"{name}: non-numeric field: {exc}")
    if any(len(row) != len(header) for row in values):
        raise CheckFailed(f"{name}: a row does not have {len(header)} fields")
    if not all(math.isfinite(v) for row in values for v in row):
        raise CheckFailed(f"{name}: non-finite value")
    return values


def _field(report: dict, key: str, name: str):
    if key not in report:
        raise CheckFailed(f"{name}: missing field {key!r}")
    return report[key]


def _finite(report: dict, key: str, name: str) -> float:
    value = _field(report, key, name)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CheckFailed(f"{name}: {key} = {value!r} is not a finite number")
    return float(value)


def _verdict_matches_exit(report: dict, name: str, status: int) -> bool:
    passed = _field(report, "passed", name)
    if passed is not (status == 0):
        raise CheckFailed(f"{name}: passed={passed!r} but exit status {status}")
    return passed


def check_run(workload: Workload, out_dir: str, config: dict, status: int,
              stderr: str) -> dict:
    """Every check on one finished run; returns the oracle's summary.

    Raises CheckFailed for an unexpected exit status, a traceback on stderr,
    a missing or malformed output, or an oracle mismatch.
    """
    if status not in workload.expected_exits:
        raise CheckFailed(f"exit status {status} not in {sorted(workload.expected_exits)}"
                          f"; stderr: {stderr.strip()[-400:]}")
    if "Traceback" in stderr:
        raise CheckFailed(f"traceback on stderr: {stderr.strip()[-400:]}")
    manifest = _load_json(out_dir, "manifest.json")
    if sorted(manifest.get("outputs", [])) != sorted(workload.outputs):
        raise CheckFailed(f"manifest outputs {manifest.get('outputs')} != {list(workload.outputs)}")
    if manifest.get("config", {}).get("seed") != config["seed"]:
        raise CheckFailed("manifest config does not carry the workload seed")
    return workload.oracle(out_dir, config, status)


# --- esd ---------------------------------------------------------------------

def radial_cdf(r: np.ndarray, gamma0: float) -> np.ndarray:
    """Limit-law radial CDF by array bisection on g(x) = r^2.

    g(x) = x (1 - gamma0 + 2x)^2 / (1 + x) increases on
    [max(0, gamma0 - 1), gamma0]; the CDF there is g^{-1}(r^2) / gamma0, flat
    at the zero-atom mass 1 - 1/gamma0 below the inner radius and 1 beyond
    sqrt(gamma0 (gamma0 + 1)).
    """
    r = np.asarray(r, dtype=float)
    lo0, hi0 = max(0.0, gamma0 - 1.0), gamma0
    y = r * r
    lo = np.full_like(r, lo0)
    hi = np.full_like(r, hi0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = mid * (1.0 - gamma0 + 2.0 * mid) ** 2 / (1.0 + mid) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all(hi - lo <= 1e-15 * max(1.0, hi0)):
            break
    out = 0.5 * (lo + hi) / gamma0
    inner = (gamma0 - 1.0) ** 1.5 / math.sqrt(gamma0) if gamma0 > 1.0 else 0.0
    out = np.where(r <= inner, max(0.0, 1.0 - 1.0 / gamma0), out)
    return np.where(r >= math.sqrt(gamma0 * (gamma0 + 1.0)), 1.0, out)


def radial_ks(radii: np.ndarray, gamma0: float) -> float:
    """One-sample KS distance of the radii from the limit-law radial CDF."""
    x = np.sort(radii)
    F = radial_cdf(x, gamma0)
    m = x.size
    return float(max((np.arange(1, m + 1) / m - F).max(), (F - np.arange(m) / m).max()))


def esd_oracle(out_dir: str, config: dict, status: int) -> dict:
    name = "esd_report.json"
    report = _load_json(out_dir, name)
    passed = _verdict_matches_exit(report, name, status)
    per_trial = _field(report, "radial_ks_per_trial", name)
    if not isinstance(per_trial, list) or len(per_trial) != config["trials"]:
        raise CheckFailed(f"{name}: radial_ks_per_trial does not have {config['trials']} entries")
    if len(_field(report, "seeds", name)) != config["trials"]:
        raise CheckFailed(f"{name}: seeds does not have {config['trials']} entries")
    wrapped: list[str] = []
    eigs = np.array(_load_csv(out_dir, "eigenvalues.csv", ["re_lambda", "im_lambda"], wrapped))
    if eigs.shape != (config["N"], 2):
        raise CheckFailed(f"eigenvalues.csv: {eigs.shape[0]} rows, expected {config['N']}")
    radii = np.hypot(eigs[:, 0], eigs[:, 1])
    gamma0 = config["N"] / config["n"]
    ks = radial_ks(radii, gamma0)
    if not abs(ks - per_trial[0]) <= 1e-9:
        raise CheckFailed(f"trial 0 radial KS: oracle {ks!r}, report {per_trial[0]!r}")
    cdf_rows = _load_csv(out_dir, "radial_cdf.csv", ["r", "empirical_cdf"])
    if len(cdf_rows) != config["N"]:
        raise CheckFailed(f"radial_cdf.csv: {len(cdf_rows)} rows, expected {config['N']}")
    if not np.allclose([row[0] for row in cdf_rows], np.sort(radii), rtol=1e-12, atol=1e-14):
        raise CheckFailed("radial_cdf.csv radii differ from eigenvalues.csv")
    return {"passed": passed, "trial0_radial_ks": ks,
            "mean_radial_ks": _finite(report, "mean_radial_ks", name),
            "numpy_repr_fields": len(wrapped)}


# --- lsv-tail ------------------------------------------------------------------

def lsv_oracle_trials(config: dict) -> list[int]:
    """Two trials whose s_min the oracle recomputes: the first and a seeded one."""
    trials = config["trials"]
    return sorted({0, config["seed"] % trials})


def autocov_by_shift(X: np.ndarray, k: int) -> np.ndarray:
    """Y = X A X* with the k-step shift A formed explicitly."""
    n = X.shape[1]
    A = np.zeros((n, n))
    A[np.arange(k, n), np.arange(n - k)] = 1.0
    return X @ A @ X.conj().T


def lsv_oracle(out_dir: str, config: dict, status: int) -> dict:
    # The program's own sampler generates the inputs; the oracle rebuilds Y
    # and the SVD independently.
    from autocov_spectra.ensembles import EnsembleSpec, sample_entry_matrix

    name = "lsv_tail_report.json"
    report = _load_json(out_dir, name)
    passed = _verdict_matches_exit(report, name, status)
    trials = config["trials"]
    values = _field(report, "lsv_values", name)
    if not isinstance(values, list) or len(values) != trials:
        raise CheckFailed(f"{name}: lsv_values does not have {trials} entries")
    events = int(_finite(report, "event_count", name))
    if _finite(report, "frequency", name) != events / trials:
        raise CheckFailed(f"{name}: frequency != event_count / trials")
    rows = _load_csv(out_dir, "lsv_values.csv", ["trial", "least_singular_value"])
    if len(rows) != trials:
        raise CheckFailed(f"lsv_values.csv: {len(rows)} rows, expected {trials}")
    if [row[0] for row in rows] != list(range(trials)) or [row[1] for row in rows] != values:
        raise CheckFailed("lsv_values.csv disagrees with the report")
    spec = EnsembleSpec(n=config["n"], N=config["N"], k=config["k"],
                        master_seed=config["seed"])
    z = complex(config["z"])
    for trial in lsv_oracle_trials(config):
        Y = autocov_by_shift(sample_entry_matrix(spec, trial), config["k"])
        s_min = np.linalg.svd(Y - z * np.eye(config["N"]), compute_uv=False)[-1]
        if not np.isclose(rows[trial][1], s_min, rtol=1e-8, atol=1e-13):
            raise CheckFailed(f"trial {trial} s_min: oracle {s_min!r}, csv {rows[trial][1]!r}")
    return {"passed": passed, "event_count": events}


# --- large-k -------------------------------------------------------------------

def large_k_oracle(out_dir: str, config: dict, status: int) -> dict:
    name = "large_k_report.json"
    report = _load_json(out_dir, name)
    passed = _verdict_matches_exit(report, name, status)
    zero_eigs = int(_finite(report, "zero_eigs", name))
    zero_required = int(_finite(report, "zero_required", name))
    if zero_required != max(0, config["N"] - config["n"]):
        raise CheckFailed(f"{name}: zero_required = {zero_required}")
    if zero_eigs < zero_required:
        raise CheckFailed(f"{name}: zero_eigs {zero_eigs} < zero_required {zero_required}")
    errors = _field(report, "resolvent_errors", name)
    expected = len(config["z_list"]) * len(config["t_list"])
    if (not isinstance(errors, list) or len(errors) != expected
            or not all(isinstance(e, (int, float)) and math.isfinite(e) for e in errors)):
        raise CheckFailed(f"{name}: resolvent_errors is not {expected} finite numbers")
    if not math.isclose(_finite(report, "mean_resolvent_error", name), float(np.mean(errors)),
                        rel_tol=1e-12):
        raise CheckFailed(f"{name}: mean_resolvent_error != mean(resolvent_errors)")
    parts = [_field(report, key, name) for key in ("stability_ok", "resolvent_ok", "atom_ok")]
    if passed is not all(parts):
        raise CheckFailed(f"{name}: passed disagrees with its three parts")
    return {"passed": passed, "zero_eigs": zero_eigs,
            "stability_ks": _finite(report, "stability_ks", name),
            "mean_resolvent_error": _finite(report, "mean_resolvent_error", name)}


# --- hermitize -----------------------------------------------------------------

def hermitize_oracle(out_dir: str, config: dict, status: int) -> dict:
    name = "hermitization_report.json"
    report = _load_json(out_dir, name)
    passed = _verdict_matches_exit(report, name, status)
    total_mass = _finite(report, "total_mass", name)
    tv = _finite(report, "tv_distance", name)
    flagged = _finite(report, "flagged_cells", name)
    if flagged < 0 or flagged != int(flagged):
        raise CheckFailed(f"{name}: flagged_cells = {flagged!r}")
    if passed is not (tv <= HERMITIZATION_TV_THRESHOLD):
        raise CheckFailed(f"{name}: passed={passed} but tv_distance={tv}")
    return {"passed": passed, "verdict": "pass" if passed else "fail",
            "tv_distance": tv, "tv_threshold": HERMITIZATION_TV_THRESHOLD,
            "total_mass": total_mass, "flagged_cells": int(flagged)}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="esd-n512", subcommand="esd",
        base_config={"n": 512, "N": 512, "k": 1, "trials": 5},
        expected_exits=frozenset({0}),
        outputs=("esd_report.json", "eigenvalues.csv", "radial_cdf.csv"),
        oracle=esd_oracle),
    Workload(
        name="lsv-tail-n100", subcommand="lsv-tail",
        base_config={"n": 100, "N": 100, "k": 1, "trials": 200, "z": 1},
        expected_exits=frozenset({0}),
        outputs=("lsv_tail_report.json", "lsv_values.csv"),
        oracle=lsv_oracle),
    Workload(
        name="large-k-wide", subcommand="large-k",
        base_config={"n": 400, "N": 600, "k": 200, "trials": 2,
                     "z_list": [0.5, 1, "1+1j"], "t_list": [0.3, 0.5, 1]},
        expected_exits=frozenset({0}),
        outputs=("large_k_report.json",),
        oracle=large_k_oracle),
    Workload(
        name="hermitize-n128", subcommand="hermitize",
        base_config={"n": 128, "N": 128, "k": 1},
        # TV sits near its 0.15 threshold, so exit 2 is an expected verdict.
        expected_exits=frozenset({0, 2}),
        outputs=("hermitization_report.json",),
        oracle=hermitize_oracle),
)}
