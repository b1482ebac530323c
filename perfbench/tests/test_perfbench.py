"""Smoke tests of the benchmark's generator, oracles and tracer on tiny configs.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, CheckFailed, check_run  # noqa: E402

import autocov_spectra.cli as cli  # noqa: E402
from autocov_spectra import experiments, linalg  # noqa: E402
from autocov_spectra.limit_law import Gamma0Law  # noqa: E402

# Small versions of each workload; at these sizes the convergence checks may
# legitimately fail, so exit 2 is accepted everywhere.
TINY = {
    "esd-n512": {"n": 48, "N": 48, "k": 1, "trials": 2},
    "lsv-tail-n100": {"n": 20, "N": 20, "k": 1, "trials": 6, "z": 1},
    "large-k-wide": {"n": 20, "N": 30, "k": 10, "trials": 1,
                     "z_list": [0.5, "1+1j"], "t_list": [0.5, 1]},
    "hermitize-n128": {"n": 16, "N": 16, "k": 1, "h": 0.5},
}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(WORKLOADS[name], base_config=TINY[name],
                               expected_exits=frozenset({0, 2}))


def run_tiny(name: str, tmp_path: Path, seed: int = 3):
    workload = tiny(name)
    config = workload.config(seed)
    config_path = tmp_path / f"{name}.json"
    workloads.write_config(str(config_path), config)
    out_dir = tmp_path / name
    result = run.run_in_process(cli, workload.subcommand, config_path, out_dir)
    return workload, config, out_dir, result


def test_config_is_a_function_of_the_seed():
    for workload in WORKLOADS.values():
        assert workload.config(5) == workload.config(5)
        a, b = workload.config(5), workload.config(6)
        assert a["seed"] != b["seed"]
        assert {k: v for k, v in a.items() if k != "seed"} == workload.base_config
    seeds = {w.config(5)["seed"] for w in WORKLOADS.values()}
    assert len(seeds) == len(WORKLOADS)


def test_benchmark_json_names_what_the_harness_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert bench["paths"] == [BENCH.name]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_its_oracle(name, tmp_path):
    workload, config, out_dir, result = run_tiny(name, tmp_path)
    summary = check_run(workload, str(out_dir), config, result["status"], result["stderr"])
    assert summary["passed"] is (result["status"] == 0)


def _corrupt_eigenvalue(out_dir: Path) -> None:
    """Scale every eigenvalue by 2, so the radial KS of trial 0 changes."""
    path = out_dir / "eigenvalues.csv"
    lines = path.read_text().splitlines()
    values = [[workloads._number(v, []) for v in line.split(",")] for line in lines[1:]]
    path.write_text("\n".join([lines[0]] + [f"{2 * a!r},{2 * b!r}" for a, b in values]) + "\n")


def _truncate_csv(out_dir: Path) -> None:
    path = out_dir / "eigenvalues.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")


def _garble_report(out_dir: Path) -> None:
    path = out_dir / "esd_report.json"
    report = json.loads(path.read_text())
    report["mean_radial_ks"] = "nan"
    path.write_text(json.dumps(report))


def _remove_report(out_dir: Path) -> None:
    (out_dir / "esd_report.json").unlink()


@pytest.mark.parametrize("corrupt", [_corrupt_eigenvalue, _truncate_csv, _garble_report,
                                     _remove_report])
def test_corrupted_output_fails_the_check(corrupt, tmp_path):
    workload, config, out_dir, result = run_tiny("esd-n512", tmp_path)
    corrupt(out_dir)
    with pytest.raises(CheckFailed):
        check_run(workload, str(out_dir), config, result["status"], result["stderr"])


def test_exit_status_and_traceback_fail_the_check(tmp_path):
    workload, config, out_dir, result = run_tiny("lsv-tail-n100", tmp_path)
    strict = dataclasses.replace(workload, expected_exits=frozenset({result["status"] + 1}))
    with pytest.raises(CheckFailed, match="exit status"):
        check_run(strict, str(out_dir), config, result["status"], "")
    with pytest.raises(CheckFailed, match="traceback"):
        check_run(workload, str(out_dir), config, result["status"], "Traceback (most recent")


def test_lsv_oracle_catches_a_wrong_singular_value(tmp_path):
    workload, config, out_dir, result = run_tiny("lsv-tail-n100", tmp_path)
    path = out_dir / "lsv_values.csv"
    rows = path.read_text().splitlines()
    trial = workloads.lsv_oracle_trials(config)[-1]
    index, value = rows[trial + 1].split(",")
    rows[trial + 1] = f"{index},{float(value) * 1.001!r}"
    path.write_text("\n".join(rows) + "\n")
    report_path = out_dir / "lsv_tail_report.json"
    report = json.loads(report_path.read_text())
    report["lsv_values"][trial] = float(value) * 1.001
    report_path.write_text(json.dumps(report))
    with pytest.raises(CheckFailed, match="s_min"):
        check_run(workload, str(out_dir), config, result["status"], result["stderr"])


def test_oracle_radial_cdf_matches_the_program():
    for gamma0 in (0.5, 1.0, 1.5):
        law = Gamma0Law(gamma0)
        r = np.linspace(0.0, law.support_radius * 1.1, 97)
        np.testing.assert_allclose(workloads.radial_cdf(r, gamma0), law.radial_cdf(r),
                                   rtol=0, atol=1e-11)


def test_corrupted_output_counts_as_a_failed_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)

    def corrupting_oracle(out_dir, config, status):
        _corrupt_eigenvalue(Path(out_dir))
        return workloads.esd_oracle(out_dir, config, status)

    workload = dataclasses.replace(tiny("esd-n512"), oracle=corrupting_oracle)
    config = workload.config(1)
    config_path = tmp_path / "config.json"
    workloads.write_config(str(config_path), config)
    result = run.measure(workload, config, config_path, 0.0, tmp_path)
    assert result["attempted"] == 2
    assert len(result["failures"]) == 1 and result["failures"][0].startswith("run 0:")
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in result["metrics"].values())


def test_tracer_spans_account_for_the_run_and_are_removed(tmp_path):
    originals = (linalg.eigenvalues, experiments.build_autocov, Gamma0Law.radial_cdf)
    tracer = tracing.Tracer()
    with tracer:
        assert linalg.eigenvalues is not originals[0]
        assert experiments.build_autocov is not originals[1]
        workload, config, out_dir, result = run_tiny("esd-n512", tmp_path)
    assert (linalg.eigenvalues, experiments.build_autocov, Gamma0Law.radial_cdf) == originals
    check_run(workload, str(out_dir), config, result["status"], result["stderr"])

    spans = tracer.spans
    assert spans[0].name == "cli.main" and spans[0].parent == -1
    assert all(s.parent < s.id for s in spans)
    summary = tracing.summarize(spans)
    root = spans[0].end - spans[0].start
    layers = sum(summary[f"{layer}.self_s"] for layer in tracing.LAYERS)
    inner_bookkeeping = summary["trace.bookkeeping_s"] - spans[0].overhead
    assert layers + inner_bookkeeping == pytest.approx(root, rel=1e-9)
    trials = config["trials"]
    # The CLI re-samples and re-decomposes trial 0 after the experiment.
    assert summary["linalg.eigenvalues.calls"] == trials + 1
    assert summary["linalg.eigenvalues.distinct_ratio"] == trials / (trials + 1)
    assert summary["limit_law.radial_cdf.points"] == trials * config["N"]
    assert summary["linalg.eigenvalues.work_n3"] == (trials + 1) * config["N"] ** 3
    traced_names = {name for name in run.PER_LAYER
                    if not name.startswith(("trace.", "baseline.", "cli.output"))}
    missing = {name for name in traced_names if name not in summary}
    # Functions this subcommand never calls have no entry; run.py reports 0.
    assert missing <= {name for name in traced_names
                       if name.startswith(("fixed_point.", "linalg.singular_values"))}


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "esd-n512",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench_out").exists()
