import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autocov_spectra
from autocov_spectra import cli, experiments, fixed_point, linalg
from autocov_spectra.ensembles import (
    EnsembleSpec,
    build_autocov,
    mix_seed,
    sample_entry_matrix,
)
from autocov_spectra.fixed_point import ResolventParams


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(subcommand, cfg, out_dir, **env_vars):
    """Run the CLI in a fresh interpreter on this source tree, with env_vars
    added to the environment."""
    src = os.path.dirname(os.path.dirname(autocov_spectra.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_vars)
    return subprocess.run(
        [sys.executable, "-m", "autocov_spectra.cli", subcommand, cfg,
         "--output-dir", str(out_dir)],
        capture_output=True, text=True, env=env, timeout=120)


# One small valid config per subcommand (n <= 8, 2 trials, 10^4 law samples).
# The fuzz test below replaces one key or list entry of one of them per example.
TINY_CONFIGS = {
    "esd": {"n": 8, "N": 8, "k": 1, "seed": 1, "trials": 2, "law": "complex-gaussian",
            "thresholds": {"radial_ks": 0.5}},
    "lsv-tail": {"n": 8, "N": 8, "k": 1, "seed": 1, "trials": 2, "z": [1.0, 0.5]},
    "linearize-check": {"n": 8, "N": 8, "k": 1, "seed": 1, "trials": 2, "z": 1.0},
    "hermitize": {"n": 8, "N": 8, "k": 1, "seed": 1, "h": 0.5},
    "fixed-point": {"gamma0": 1.0, "gamma1": 0.5, "z_list": [1.0], "t_list": [0.5],
                    "n": 8, "seed": 1, "trials": 2},
    "large-k": {"n": 8, "N": 8, "k": 4, "seed": 1, "trials": 2, "z_list": [1.0],
                "t_list": [0.5]},
    "limit-law-table": {"gamma0": 1.0, "grid": {"start": 0.0, "stop": 1.0, "step": 0.5}},
    "law-diagnostics": {"law": "complex-gaussian", "n": 8, "seed": 1, "sample_count": 10_000},
}


def _key_paths(node, prefix=()):
    """Paths to every value in a config, nested mappings and lists included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


FUZZ_KEYS = [(sub, path) for sub, cfg in TINY_CONFIGS.items() for path in _key_paths(cfg)]
# Large and tiny positive numbers are left out: they would request huge arrays.
FUZZ_VALUES = [None, "x", [], {}, True, -1, 0, math.nan, math.inf, -math.inf]


class TestConfigLoading:
    def test_missing_file(self, tmp_path, capsys):
        status = cli.run("esd", str(tmp_path / "nope.json"))
        assert status == cli.EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.run("esd", str(path)) == cli.EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 16, "N": 16, "k": 1, "trials": 1})
        assert cli.run("esd", cfg) == cli.EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    def test_unknown_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, {})
        assert cli.run("frobnicate", cfg) == cli.EXIT_CONFIG

    def test_set_override(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path, {"n": 16}),
                              overrides=["n=32", "grid.step=0.5"])
        assert cfg["n"] == 32
        assert cfg["grid"]["step"] == 0.5

    def test_malformed_override(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.load_config(write_config(tmp_path, {}), overrides=["oops"])


class TestParseComplex:
    def test_forms(self):
        assert cli._parse_complex(2) == 2 + 0j
        assert cli._parse_complex([1, -2]) == 1 - 2j
        assert cli._parse_complex("1+1j") == 1 + 1j
        assert cli._parse_complex("1+1i") == 1 + 1j

    def test_garbage(self):
        with pytest.raises(cli.ConfigError):
            cli._parse_complex("spam")


class TestLimitLawTable:
    def test_table_shape_and_endpoint(self, tmp_path):
        cfg = write_config(tmp_path, {
            "gamma0": 1.0,
            "grid": {"start": 0.0, "stop": 2.0 ** 0.5, "step": 0.01},
        })
        out = tmp_path / "out"
        assert cli.main(["limit-law-table", cfg, "--output-dir", str(out)]) == cli.EXIT_OK
        lines = (out / "limit_law_cdf.csv").read_text().strip().splitlines()
        assert len(lines) == 143  # header + 142 rows
        assert float(lines[-1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)

    def test_manifest_written(self, tmp_path):
        cfg = write_config(tmp_path, {
            "gamma0": 2.0,
            "grid": {"start": 0.0, "stop": 6.0 ** 0.5, "step": 0.1},
        })
        out = tmp_path / "out"
        assert cli.run("limit-law-table", cfg, output_dir=str(out)) == cli.EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "limit-law-table"
        assert manifest["outputs"] == ["limit_law_cdf.csv"]
        assert manifest["config"]["gamma0"] == 2.0

    def test_grid_keys_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"gamma0": 1.0, "grid": {"start": 0.0}})
        assert cli.run("limit-law-table", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "stop" in err
        assert err.count("limit-law-table") == 1


class TestEsdRun:
    def test_reproducible_outputs(self, tmp_path):
        cfg = write_config(tmp_path, {
            "n": 48, "N": 48, "k": 1, "seed": 21, "trials": 1,
            "thresholds": {"radial_ks": 0.5},
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.run("esd", cfg, output_dir=str(out1)) == cli.EXIT_OK
        assert cli.run("esd", cfg, output_dir=str(out2)) == cli.EXIT_OK
        for name in ("eigenvalues.csv", "radial_cdf.csv", "esd_report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert len(manifest["resolved_seeds"]) == 1

    @pytest.mark.parametrize("N", [192, 256], ids=["gamma0-1.5", "gamma0-2"])
    def test_wide_runs_pass(self, tmp_path, N):
        cfg = write_config(tmp_path, {"n": 128, "N": N, "k": 1, "seed": 22, "trials": 2})
        assert cli.run("esd", cfg, output_dir=str(tmp_path / "out")) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "esd_report.json").read_text())
        assert report["mean_radial_ks"] <= experiments.DEFAULT_THRESHOLDS["radial_ks"]


class TestFixedPointRun:
    def test_prediction_only(self, tmp_path):
        cfg = write_config(tmp_path, {
            "gamma0": 1.0, "gamma1": 0.5,
            "z_list": [1.0, [1.0, 1.0]], "t_list": [0.5, 1.0],
        })
        out = tmp_path / "out"
        assert cli.run("fixed-point", cfg, output_dir=str(out)) == cli.EXIT_OK
        lines = (out / "fixed_point.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 2 z * 2 t

    @pytest.mark.parametrize("N", [36, 24], ids=["compressed", "square"])
    def test_simulation_matches_per_point_loop(self, tmp_path, N):
        gamma0 = N / 24
        payload = {"gamma0": gamma0, "gamma1": 0.5, "n": 24, "seed": 8, "trials": 3,
                   "z_list": [0.5, [1.0, 1.0]], "t_list": [0.3, 1.0]}
        out = tmp_path / "out"
        assert cli.run("fixed-point", write_config(tmp_path, payload),
                       output_dir=str(out)) == cli.EXIT_OK
        # Reference: X re-sampled and Y - zI decomposed for every (z, t, trial),
        # on one BLAS thread as the CLI runs.
        spec = EnsembleSpec(n=24, N=N, k=12, master_seed=8)
        rows = []
        with linalg.one_blas_thread():
            for z in (0.5 + 0j, 1.0 + 1.0j):
                for t in (0.3, 1.0):
                    params = ResolventParams(z=z, t=t, gamma0=gamma0, a=0.5)
                    sol = fixed_point.solve_s(params)
                    emp = complex(np.mean([fixed_point.empirical_resolvent_trace(
                        build_autocov(sample_entry_matrix(spec, i), 12), z, t)
                        for i in range(3)]))
                    rows.append((z.real, z.imag, t, sol.s, sol.g12.real, sol.g12.imag,
                                 emp.real, emp.imag, abs(emp - 1j * sol.s / gamma0)))
        cli._write_csv(tmp_path / "reference.csv",
                       ["re_z", "im_z", "t", "s", "re_g12", "im_g12",
                        "empirical_re", "empirical_im", "abs_error"], rows)
        got = (out / "fixed_point.csv").read_bytes()
        expected = (tmp_path / "reference.csv").read_bytes()
        if N == 24:
            # d = n = N: Y - zI itself is decomposed, as in the reference.
            assert got == expected
            return
        # d = n < N: the SVD is of the d x d core, which moves the last bit
        # of the empirical columns only.
        got_rows = list(csv.reader(io.StringIO(got.decode())))
        expected_rows = list(csv.reader(io.StringIO(expected.decode())))
        assert got_rows[0] == expected_rows[0] and len(got_rows) == len(expected_rows)
        for got_row, expected_row in zip(got_rows[1:], expected_rows[1:]):
            assert got_row[:6] == expected_row[:6]
            for a, b in zip(got_row[6:], expected_row[6:]):
                assert abs(float(a) - float(b)) <= 1e-14


def _seeds(seed, trials):
    return [mix_seed(seed, i) for i in range(trials)]


class TestManifestSeeds:
    @pytest.mark.parametrize("subcommand,expected", [
        ("esd", _seeds(1, 2)),
        ("lsv-tail", _seeds(1, 2)),
        ("linearize-check", _seeds(1, 2)),
        ("hermitize", _seeds(1, 1)),
        ("fixed-point", _seeds(1, 2)),
        # Trials 0 and 1, then the 2n stability sample: trial 0 of seed + 1.
        ("large-k", _seeds(1, 2) + _seeds(2, 1)),
        ("limit-law-table", []),
        # The moment sample is drawn from mix_seed(seed, 0).
        ("law-diagnostics", _seeds(1, 1)),
    ])
    def test_resolved_seeds(self, tmp_path, subcommand, expected):
        cfg = write_config(tmp_path, TINY_CONFIGS[subcommand])
        out = tmp_path / "out"
        assert cli.run(subcommand, cfg, output_dir=str(out)) in (cli.EXIT_OK, cli.EXIT_ASSERTION)
        assert json.loads((out / "manifest.json").read_text())["resolved_seeds"] == expected


class TestManifestThresholds:
    def test_overrides_merged_with_defaults(self, tmp_path):
        payload = dict(TINY_CONFIGS["lsv-tail"], thresholds={"lsv_tail_freq": 0.2})
        out = tmp_path / "out"
        cli.run("lsv-tail", write_config(tmp_path, payload), output_dir=str(out))
        recorded = json.loads((out / "manifest.json").read_text())["thresholds"]
        assert recorded == {**experiments.DEFAULT_THRESHOLDS, "lsv_tail_freq": 0.2}

    def test_empty_without_experiment_config(self, tmp_path):
        out = tmp_path / "out"
        cli.run("limit-law-table", write_config(tmp_path, TINY_CONFIGS["limit-law-table"]),
                output_dir=str(out))
        assert json.loads((out / "manifest.json").read_text())["thresholds"] == {}


class TestWriters:
    def test_json_cleans_complex_and_numpy_values(self, tmp_path):
        path = tmp_path / "report.json"
        cli._write_json(path, {"z": 1 - 2j, "a": np.array([1.5, 2.5]),
                               "nested": [{"x": np.float64(0.25), "k": np.int64(3)}]})
        assert json.loads(path.read_text()) == {
            "z": {"re": 1.0, "im": -2.0}, "a": [1.5, 2.5],
            "nested": [{"x": 0.25, "k": 3}]}
        assert path.read_text().endswith("}\n")

    def test_csv_fields_are_reprs_with_crlf_line_ends(self, tmp_path):
        path = tmp_path / "rows.csv"
        cli._write_csv(path, ["i", "x"], [(0, 0.1), (1, -2.5e-300)])
        assert path.read_bytes() == b"i,x\r\n0,0.1\r\n1,-2.5e-300\r\n"

    def test_failing_row_leaves_no_file(self, tmp_path):
        def rows():
            yield (0, 1.0)
            raise RuntimeError("row failed")

        with pytest.raises(RuntimeError, match="row failed"):
            cli._write_csv(tmp_path / "rows.csv", ["i", "x"], rows())
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_file_and_removes_the_temporary(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        with pytest.raises(TypeError):
            cli._write_output(path, b"not text")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert path.read_text() == "old"


class TestLawDiagnostics:
    def test_c2_violation_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, {
            "law": "real-gaussian", "n": 64, "seed": 1, "sample_count": 20000,
        })
        assert cli.run("law-diagnostics", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_ASSERTION

    def test_ok_law(self, tmp_path):
        cfg = write_config(tmp_path, {
            "law": "complex-gaussian", "n": 64, "seed": 1, "sample_count": 20000,
        })
        assert cli.run("law-diagnostics", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_OK

    def test_unknown_law(self, tmp_path):
        cfg = write_config(tmp_path, {"law": "cauchy", "n": 64, "seed": 1})
        assert cli.run("law-diagnostics", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_CONFIG


class TestLargeKRun:
    def test_small_lag_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "n": 64, "N": 64, "k": 1, "seed": 1, "trials": 1,
            "z_list": [1.0], "t_list": [0.5],
        })
        assert cli.run("large-k", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_CONFIG
        assert "k >= n/2" in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize("subcommand,payload", [
        ("esd", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1, "law": "bogus"}),
        ("esd", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": "x"}),
        ("fixed-point", {"gamma0": 1.0, "gamma1": 0.2, "z_list": [1.0], "t_list": [0.5]}),
        ("fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": [1.0], "t_list": [-1]}),
        ("fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": [1.0], "t_list": [0.5],
                         "n": 16, "seed": 1, "trials": 0}),
        ("hermitize", {"n": 16, "N": 16, "k": 1, "seed": 1, "h": 0}),
        ("hermitize", {"n": 16, "N": 16, "k": 1, "seed": 1, "h": "x"}),
        ("limit-law-table", {"gamma0": -1, "grid": {"start": 0, "stop": 1, "step": 0.1}}),
        ("limit-law-table", {"gamma0": 1.0, "grid": {"start": 0, "stop": 1, "step": "x"}}),
        ("limit-law-table", {"gamma0": 1.0, "grid": {"start": 0, "stop": 1, "step": 0}}),
        ("law-diagnostics", {"law": "complex-gaussian", "n": "x", "seed": 1}),
        ("law-diagnostics", {"law": "complex-gaussian", "n": 0, "seed": 1}),
        ("law-diagnostics", {"law": "complex-gaussian", "n": 64, "seed": 1,
                             "sample_count": 5}),
        ("lsv-tail", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 2, "z": 1.0,
                      "thresholds": {"lsv_tail_freq": "x"}}),
        ("esd", {"n": math.inf, "N": 16, "k": 1, "seed": 1, "trials": 1}),
        ("esd", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": math.inf}),
        ("law-diagnostics", {"law": "complex-gaussian", "n": math.inf, "seed": 1}),
        ("fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": [1.0], "t_list": [0.5],
                         "n": math.inf, "seed": 1}),
        ("lsv-tail", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1, "z": math.nan}),
        ("linearize-check", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1,
                             "z": [1, math.nan]}),
        ("large-k", {"n": 16, "N": 16, "k": 8, "seed": 1, "trials": 1,
                     "z_list": [math.nan], "t_list": [0.5]}),
        ("large-k", {"n": 16, "N": 16, "k": 8, "seed": 1, "trials": 1,
                     "z_list": [], "t_list": [0.5]}),
        ("fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": [], "t_list": [0.5]}),
        ("fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": [1.0], "t_list": []}),
        ("fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": [math.nan], "t_list": [0.5]}),
        ("fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": [1.0], "t_list": [math.nan]}),
        ("hermitize", {"n": 16, "N": 16, "k": 1, "seed": 1, "h": math.inf}),
        ("limit-law-table", {"gamma0": 1.0, "grid": {"start": -1, "stop": 1, "step": 0.1}}),
        ("limit-law-table", {"gamma0": 1.0, "grid": {"start": 0, "stop": -1, "step": 0.1}}),
        ("limit-law-table", {"gamma0": 1.0, "grid": {"start": math.nan, "stop": 1,
                                                     "step": 0.1}}),
        ("esd", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1,
                 "thresholds": {"radial_kss": 0.0001}}),
        ("esd", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1,
                 "thresholds": {"lag_ks_gap": 0.05}}),
        ("esd", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1,
                 "thresholds": {"angular_ks": 0.1}}),
        ("esd", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1, "thresholds": [1]}),
        ("lsv-tail", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1, "z": 0}),
        ("linearize-check", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1, "z": 0}),
        ("large-k", {"n": 16, "N": 16, "k": 8, "seed": 1, "trials": 1,
                     "z_list": [0], "t_list": [0.5]}),
        ("large-k", {"n": 16, "N": 16, "k": 8, "seed": 1, "trials": 1,
                     "z_list": [1.0], "t_list": [0]}),
        ("large-k", {"n": 16, "N": 16, "k": 8, "seed": 1, "trials": 1,
                     "z_list": [1.0], "t_list": []}),
        ("fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": [0], "t_list": [0.5]}),
    ], ids=["unknown-law", "non-integer-trials", "small-lag-gamma1", "negative-t",
            "zero-trials", "zero-h", "non-numeric-h", "negative-gamma0",
            "non-numeric-step", "zero-step", "non-integer-n", "zero-n",
            "small-sample-count", "non-numeric-threshold", "infinite-n", "infinite-trials",
            "infinite-diagnostics-n", "infinite-simulation-n", "nan-z", "nan-z-pair",
            "nan-large-k-z", "empty-large-k-z", "empty-fixed-point-z",
            "empty-fixed-point-t", "nan-fixed-point-z", "nan-t", "infinite-h", "negative-start",
            "negative-stop", "nan-start", "unknown-threshold", "removed-lag-ks-gap",
            "removed-angular-ks", "list-thresholds", "zero-z", "zero-linearize-z",
            "zero-large-k-z", "zero-large-k-t", "empty-large-k-t", "zero-fixed-point-z"])
    def test_config_errors_exit_three_without_traceback(self, tmp_path, capsys,
                                                        subcommand, payload):
        # In-process: an exception escaping cli.main fails the test.
        cfg = write_config(tmp_path, payload)
        status = cli.main([subcommand, cfg, "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert status == cli.EXIT_CONFIG, err
        assert err.startswith(f"config error: {subcommand}: ")
        assert err.count(subcommand) == 1

    @pytest.mark.parametrize("subcommand,payload", [
        ("esd", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1, "law": "bogus"}),
        ("fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": [math.nan], "t_list": [0.5]}),
    ], ids=["unknown-law", "nan-fixed-point-z"])
    def test_config_error_reaches_a_real_process_without_traceback(self, tmp_path, subcommand,
                                                                   payload):
        proc = run_cli(subcommand, write_config(tmp_path, payload), tmp_path / "out")
        assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "config error" in proc.stderr

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES))
    def test_fuzzed_configs_exit_with_a_documented_code(self, case, value):
        subcommand, path = case
        cfg = copy.deepcopy(TINY_CONFIGS[subcommand])
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            config_file = os.path.join(tmp, "config.json")
            with open(config_file, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            status = cli.run(subcommand, config_file, output_dir=os.path.join(tmp, "out"))
        assert status in (cli.EXIT_OK, cli.EXIT_ASSERTION, cli.EXIT_CONFIG, cli.EXIT_NUMERIC)

    def test_threshold_checked_before_the_experiment(self, tmp_path, monkeypatch, capsys):
        def experiment(*args):
            raise AssertionError("experiment ran")

        monkeypatch.setattr(cli.experiments, "esd_experiment", experiment)
        cfg = write_config(tmp_path, {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1,
                                      "thresholds": {"radial_ks": [0.1]}})
        assert cli.run("esd", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_CONFIG
        assert "radial_ks" in capsys.readouterr().err

    def test_fixed_point_solver_failure_exits_four(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(fixed_point, "_positive_roots", lambda params: np.empty(0))
        cfg = write_config(tmp_path, {
            "gamma0": 1.0, "gamma1": 0.5, "z_list": [1.0], "t_list": [0.5]})
        assert cli.run("fixed-point", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_NUMERIC
        assert "no positive root" in capsys.readouterr().err

    def test_raw_linalg_error_exits_four(self, tmp_path, monkeypatch, capsys):
        # LinAlgError is a ValueError: run must test for it before the
        # config-error clause.
        def roots(params):
            raise np.linalg.LinAlgError("roots did not converge")

        monkeypatch.setattr(fixed_point, "_positive_roots", roots)
        cfg = write_config(tmp_path, {
            "gamma0": 1.0, "gamma1": 0.5, "z_list": [1.0], "t_list": [0.5]})
        assert cli.run("fixed-point", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_NUMERIC
        assert "numeric backend failure: roots did not converge" in capsys.readouterr().err

    def test_decomposition_failure_exits_four(self, tmp_path, monkeypatch, capsys):
        # linalg.eigenvalues passes numpy's LinAlgError through unchanged.
        def eigvals(M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        cfg = write_config(tmp_path, {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1})
        assert cli.main(["esd", cfg, "--output-dir", str(tmp_path / "o")]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "numeric backend failure: Eigenvalues did not converge\n"

    @pytest.mark.parametrize("config_is_dir", [False, True],
                             ids=["output-dir-is-a-file", "config-is-a-directory"])
    def test_unusable_paths_exit_three(self, tmp_path, capsys, config_is_dir):
        cfg = write_config(tmp_path, {
            "gamma0": 1.0, "grid": {"start": 0.0, "stop": 1.0, "step": 0.5}})
        afile = tmp_path / "afile"
        afile.write_text("")
        argv = ([str(tmp_path), "--output-dir", str(tmp_path / "o")] if config_is_dir
                else [cfg, "--output-dir", str(afile)])
        assert cli.main(["limit-law-table", *argv]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: limit-law-table: ")

    @pytest.mark.parametrize("argv", [["bogus", "x.json"], ["esd"], []],
                             ids=["unknown-subcommand", "missing-config", "no-arguments"])
    def test_usage_errors_exit_three(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: autocov-spectra") and "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("usage: autocov-spectra")

    def test_usage_error_reaches_a_real_process_as_three(self, tmp_path):
        proc = run_cli("bogus", str(tmp_path / "x.json"), tmp_path / "out")
        assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "invalid choice: 'bogus'" in proc.stderr


class TestBlasThreads:
    @pytest.mark.parametrize("subcommand,payload", [
        ("lsv-tail", {"n": 100, "N": 100, "k": 1, "seed": 1, "trials": 20, "z": 1.0}),
        ("esd", {"n": 256, "N": 256, "k": 1, "seed": 1, "trials": 2}),
        ("large-k", {"n": 120, "N": 180, "k": 60, "seed": 1, "trials": 3,
                     "z_list": [1.0, [0.5, 0.5]], "t_list": [0.5, 1.0]}),
        # N = 180 > d = n = 120: the resolvent SVDs take the QR-compressed core.
        ("fixed-point", {"gamma0": 1.5, "gamma1": 0.5, "n": 120, "seed": 1, "trials": 3,
                         "z_list": [1.0, [0.5, 0.5]], "t_list": [0.5, 1.0]}),
        ("hermitize", {"n": 256, "N": 256, "k": 1, "seed": 1, "h": 0.2}),
    ], ids=["lsv-tail", "esd", "large-k", "fixed-point", "hermitize"])
    def test_outputs_independent_of_openblas_threads(self, tmp_path, subcommand, payload):
        cfg = write_config(tmp_path, payload)
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = run_cli(subcommand, cfg, out, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode in (cli.EXIT_OK, cli.EXIT_ASSERTION), proc.stderr
            outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()
                                if p.name != "manifest.json"}
        assert outputs["1"] and outputs["1"] == outputs["2"]

    def test_manifest_records_the_run_environment(self, tmp_path):
        cfg = write_config(tmp_path, {
            "gamma0": 1.0, "grid": {"start": 0.0, "stop": 1.0, "step": 0.5}})
        before = linalg.blas_thread_counts()
        assert cli.run("limit-law-table", cfg, output_dir=str(tmp_path)) == cli.EXIT_OK
        assert linalg.blas_thread_counts() == before
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert env["blas_threads"] == {name: 1 for name in before}
        assert env["numpy"] == np.__version__
        assert env["cpu_count"] == os.cpu_count()
        assert set(env) == {"python", "numpy", "numpy_blas", "blas_threads", "cpu_count"}
        assert set(env["numpy_blas"]) == {"name", "version"}


def _fresh_process_output(code, *args):
    """stdout of `python -c code args` on this source tree, stripped."""
    src = os.path.dirname(os.path.dirname(autocov_spectra.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestStartup:
    def test_modules_and_runs_load_no_scipy(self, tmp_path):
        # numpy is the only runtime dependency; scipy serves the tests alone.
        lsv = write_config(tmp_path, TINY_CONFIGS["lsv-tail"], "lsv.json")
        large_k = write_config(tmp_path, TINY_CONFIGS["large-k"], "large_k.json")
        hermitize = write_config(tmp_path, TINY_CONFIGS["hermitize"], "hermitize.json")
        out = _fresh_process_output(
            "import importlib, pkgutil, sys, autocov_spectra; "
            "names = [m.name for m in pkgutil.iter_modules(autocov_spectra.__path__)]; "
            "[importlib.import_module('autocov_spectra.' + name) for name in names]; "
            "from autocov_spectra import cli; "
            "codes = [cli.main([sub, cfg, '--output-dir', sys.argv[4]]) for sub, cfg in "
            "(('lsv-tail', sys.argv[1]), ('large-k', sys.argv[2]), ('hermitize', sys.argv[3]))]; "
            "print(sorted(names), all(c in (0, 2) for c in codes), "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            lsv, large_k, hermitize, tmp_path / "out")
        assert out == ("['cli', 'ensembles', 'experiments', 'fixed_point', 'geometry', "
                       "'limit_law', 'linalg'] True []")
