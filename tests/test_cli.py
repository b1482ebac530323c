import copy
import csv
import importlib.util
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autocov_spectra
from autocov_spectra import cli, ensembles, experiments, fixed_point, linalg
from autocov_spectra.ensembles import (
    EnsembleSpec,
    build_autocov,
    mix_seed,
    sample_entry_matrix,
)
from autocov_spectra.fixed_point import ResolventParams


def write_config(tmp_path, payload, name="config.json"):
    """payload as JSON, or as is when it is already JSON text: json.dumps
    recurses, so a deeply nested config has to be written as text."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


# What the autocov-spectra console script runs (pyproject.toml).
CONSOLE_SCRIPT = ["-c", "import sys; from autocov_spectra.startup import main; sys.exit(main())"]
# A library caller of cli.main: cli imported as a module, with no start-up.
LIBRARY_CALL = ["-c", "import sys; from autocov_spectra.cli import main; sys.exit(main())"]
# hashlib.sha256(b"").hexdigest().
SHA256_OF_NOTHING = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def run_cli(subcommand, cfg, out_dir, entry=("-m", "autocov_spectra.cli"), **env_vars):
    """Run the CLI in a fresh interpreter on this source tree, with env_vars
    added to the environment; entry is how the interpreter is told to run it
    (python -m by default, CONSOLE_SCRIPT or LIBRARY_CALL)."""
    src = os.path.dirname(os.path.dirname(autocov_spectra.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_vars)
    return subprocess.run(
        [sys.executable, *entry, subcommand, cfg, "--output-dir", str(out_dir)],
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


def _reject_constant(token):
    """parse_constant for json.loads that rejects NaN, Infinity and -Infinity,
    which RFC 8259 does not allow."""
    raise ValueError(f"non-standard JSON constant {token}")


def _key_paths(node, prefix=()):
    """Paths to every value in a config, nested mappings and lists included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


# Every key of every subcommand's schema, in every subcommand's config (a
# key only others read is parsed too), and every nested value of its config.
FUZZ_KEYS = [(sub, path) for sub, cfg in TINY_CONFIGS.items()
             for path in sorted({(key,) for schema in cli.SCHEMAS.values() for key in schema}
                                | set(_key_paths(cfg)), key=repr)]
# Large and tiny positive numbers are left out: they would request huge arrays.
FUZZ_VALUES = [None, "x", [], {}, True, -1, 0, math.nan, math.inf, -math.inf]


def run_outputs(subcommand, payload, tmp_path, name):
    """(exit status, {file name: bytes} without the manifest, manifest) of one
    run of payload in tmp_path / name."""
    out = tmp_path / name
    status = cli.run(subcommand, write_config(tmp_path, payload, f"{name}.json"),
                     output_dir=str(out))
    outputs = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    return status, outputs, json.loads((out / "manifest.json").read_text())


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
        assert cli._parse_complex(2, "z") == 2 + 0j
        assert cli._parse_complex([1, -2], "z") == 1 - 2j
        assert cli._parse_complex("1+1j", "z") == 1 + 1j
        assert cli._parse_complex("1+1i", "z") == 1 + 1j

    def test_garbage(self):
        with pytest.raises(cli.ConfigError):
            cli._parse_complex("spam", "z")

    @pytest.mark.parametrize("value", [True, False, [True, 0], ["1", "2"], [1, None]])
    def test_bools_and_non_number_pairs_rejected(self, value):
        # complex(True) is 1 and float("1") is 1.0: neither is a JSON number.
        with pytest.raises(cli.ConfigError, match="^z must be a finite complex number"):
            cli._parse_complex(value, "z")


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

    def test_small_n_report_is_strict_json(self, tmp_path):
        # 16 eigenvalues are fewer than ROTATION_MIN_COUNT angles, so every
        # angular KS is nan, written as null: a strict parser reads the files.
        cfg = write_config(tmp_path, {"n": 16, "N": 16, "k": 1, "seed": 9000, "trials": 2})
        out = tmp_path / "out"
        assert cli.run("esd", cfg, output_dir=str(out)) in (cli.EXIT_OK, cli.EXIT_ASSERTION)
        report, _ = (json.loads((out / name).read_text(), parse_constant=_reject_constant)
                     for name in ("esd_report.json", "manifest.json"))
        assert report["mean_angular_ks"] is None
        assert report["angular_ks_per_trial"] == [None, None]

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
        expected = cli._csv_file(["re_z", "im_z", "t", "s", "re_g12", "im_g12",
                                  "empirical_re", "empirical_im", "abs_error"], rows).encode()
        got = (out / "fixed_point.csv").read_bytes()
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


class TestManifestConfig:
    @pytest.mark.parametrize("subcommand", TINY_CONFIGS)
    def test_manifest_config_reproduces_the_run(self, tmp_path, subcommand):
        first = run_outputs(subcommand, TINY_CONFIGS[subcommand], tmp_path, "first")
        again = run_outputs(subcommand, first[2]["config"], tmp_path, "again")
        assert first[0] == again[0] in (cli.EXIT_OK, cli.EXIT_ASSERTION)
        assert first[1] and first[1] == again[1]
        assert first[2]["ignored_keys"] == again[2]["ignored_keys"] == []
        assert again[2]["config"] == first[2]["config"]

    @pytest.mark.parametrize("subcommand,key,default", [
        ("fixed-point", "trials", 1), ("esd", "law", "complex-gaussian"),
        ("hermitize", "h", 0.1), ("law-diagnostics", "sample_count", 100_000),
        ("lsv-tail", "thresholds", {}),
    ])
    def test_absent_keys_recorded_at_their_defaults(self, tmp_path, subcommand, key, default):
        payload = {name: value for name, value in TINY_CONFIGS[subcommand].items()
                   if name != key}
        status, _, manifest = run_outputs(subcommand, payload, tmp_path, "out")
        assert status in (cli.EXIT_OK, cli.EXIT_ASSERTION)
        assert manifest["config"][key] == default
        assert manifest["config"].items() >= payload.items()


class TestManifestText:
    @pytest.mark.parametrize("subcommand", TINY_CONFIGS)
    def test_rendered_like_every_json_output(self, tmp_path, subcommand):
        out = tmp_path / "out"
        status = cli.run(subcommand, write_config(tmp_path, TINY_CONFIGS[subcommand]),
                         output_dir=str(out))
        assert status in (cli.EXIT_OK, cli.EXIT_ASSERTION)
        text = (out / "manifest.json").read_text()
        manifest = json.loads(text)
        assert text == json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert set(manifest) == {"artifact_version", "subcommand", "config", "ignored_keys",
                                 "resolved_seeds", "thresholds", "outputs", "started",
                                 "finished", "environment"}


class TestManifestThresholds:
    def test_overrides_merged_with_defaults(self, tmp_path):
        # Only the key lsv-tail gates is recorded, with its override; the
        # overridden radial_ks decides nothing here.
        payload = dict(TINY_CONFIGS["lsv-tail"],
                       thresholds={"lsv_tail_freq": 0.2, "radial_ks": 0.5})
        out = tmp_path / "out"
        cli.run("lsv-tail", write_config(tmp_path, payload), output_dir=str(out))
        recorded = json.loads((out / "manifest.json").read_text())["thresholds"]
        assert recorded == {"lsv_tail_freq": 0.2}

    @pytest.mark.parametrize("subcommand,gated", [
        ("esd", {"radial_ks": 0.5}),  # TINY_CONFIGS["esd"] overrides it
        ("lsv-tail", {"lsv_tail_freq": 0.05}),
        ("linearize-check", {}),
        ("hermitize", {"hermitization_tv": 0.15}),
        ("fixed-point", {}),
        ("large-k", {"resolvent_abs_error": 0.05, "stability_ks": 0.08}),
        ("law-diagnostics", {}),
    ])
    def test_only_the_gated_keys(self, tmp_path, subcommand, gated):
        out = tmp_path / "out"
        cli.run(subcommand, write_config(tmp_path, TINY_CONFIGS[subcommand]),
                output_dir=str(out))
        assert json.loads((out / "manifest.json").read_text())["thresholds"] == gated

    def test_empty_without_experiment_config(self, tmp_path):
        out = tmp_path / "out"
        cli.run("limit-law-table", write_config(tmp_path, TINY_CONFIGS["limit-law-table"]),
                output_dir=str(out))
        assert json.loads((out / "manifest.json").read_text())["thresholds"] == {}


class TestWriters:
    def test_json_cleans_complex_and_numpy_values(self):
        text = cli._json_file({"z": 1 - 2j, "a": np.array([1.5, 2.5]),
                               "nested": [{"x": np.float64(0.25), "k": np.int64(3)}]})
        assert json.loads(text) == {
            "z": {"re": 1.0, "im": -2.0}, "a": [1.5, 2.5],
            "nested": [{"x": 0.25, "k": 3}]}
        assert text.endswith("}\n")

    def test_json_writes_non_finite_floats_as_null(self):
        text = cli._json_file({"x": math.nan, "a": np.array([1.5, -np.inf]),
                               "z": complex(math.inf, 2.0), "s": np.float64(math.nan)})
        assert json.loads(text, parse_constant=_reject_constant) == {
            "x": None, "a": [1.5, None], "z": {"re": None, "im": 2.0}, "s": None}

    def test_csv_fields_are_reprs_with_crlf_line_ends(self, tmp_path):
        text = cli._csv_file(["i", "x"], [(0, 0.1), (1, -2.5e-300)])
        assert text == "i,x\r\n0,0.1\r\n1,-2.5e-300\r\n"
        # Written as is: no newline translation.
        cli._write_output(tmp_path / "rows.csv", text)
        assert (tmp_path / "rows.csv").read_bytes() == b"i,x\r\n0,0.1\r\n1,-2.5e-300\r\n"

    def test_failing_row_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        def rows(law, r_grid):
            yield (0.0, 0.0)
            raise ValueError("row failed")

        monkeypatch.setattr(cli.Gamma0Law, "cdf_table", rows)
        out = tmp_path / "out"
        status = cli.run("limit-law-table", write_config(tmp_path, TINY_CONFIGS["limit-law-table"]),
                         output_dir=str(out))
        assert status == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: limit-law-table: row failed\n"
        assert os.listdir(tmp_path) == ["config.json"]

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

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("zeroed", [False, True], ids=["sampled", "zeroed-column"])
    def test_singular_companion_fails_the_atom_check(self, tmp_path, monkeypatch, workers,
                                                     zeroed):
        # n - k = 8 < N = 24: Y's atom is its rank defect, 16 zeros, when the
        # companion X_0* X_k is invertible. A zeroed column of trial 0's X_0
        # makes it singular, and the atom one larger. The companion is summed
        # over a stream of X's row blocks, so the column is zeroed in each,
        # and in the resolvent trial's X. Loose thresholds leave the atom
        # check alone to decide the verdict.
        n, N, k = 16, 24, 8
        sample, row_blocks = experiments.sample_entry_matrix, ensembles.sample_row_blocks

        def sampler(spec, i):
            X = sample(spec, i)
            if zeroed and spec.n == n and i == 0:
                X[:, 0] = 0
            return X

        def zeroed_row_blocks(spec, i):
            for block in row_blocks(spec, i):
                if zeroed and spec.n == n and i == 0:
                    block[:, 0] = 0
                yield block

        monkeypatch.setattr(experiments, "sample_entry_matrix", sampler)
        monkeypatch.setattr(ensembles, "sample_row_blocks", zeroed_row_blocks)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: workers)
        cfg = write_config(tmp_path, {
            "n": n, "N": N, "k": k, "seed": 4, "trials": 2, "z_list": [1.0],
            "t_list": [0.5], "thresholds": {"stability_ks": 1.0, "resolvent_abs_error": 10.0},
        })
        status = cli.run("large-k", cfg, output_dir=str(tmp_path / "o"))
        report = json.loads((tmp_path / "o" / "large_k_report.json").read_text())
        assert (report["zero_eigs"], report["zero_required"]) == (16 + zeroed, 8)
        assert report["stability_ok"] and report["resolvent_ok"]
        assert report["atom_ok"] is report["passed"] is (not zeroed)
        assert status == (cli.EXIT_ASSERTION if zeroed else cli.EXIT_OK)


OUT_OF_RANGE = (" are out of range: the master quintic's coefficients over t^2 + |z|^2 "
                "are not all finite on the solver's t-path")
# Magnitudes whose arithmetic overflowed: (subcommand, config, message) by
# id. The first four exited 3 with (34, 'Numerical result out of range') or
# "cannot convert float infinity to integer", the third and fourth after a
# numpy warning; the last four exited 4 with "numeric backend failure: Array
# must not contain infs or NaNs" after numpy's RuntimeWarnings.
OVERFLOWING_MAGNITUDES = {
    "huge-fixed-point-z": (
        "fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": [1e300], "t_list": [0.5]},
        "|z| must be at most 1e+150, got 1e+300"),
    "tiny-fixed-point-t": (
        "fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": [1.0], "t_list": [1e-308]},
        "t = 1e-308 is too small for |z| = 1: max(10, 10|z|) / t overflows"),
    "huge-large-k-z": (
        "large-k", {"n": 16, "N": 16, "k": 8, "seed": 1, "trials": 1,
                    "z_list": [1e200], "t_list": [1e-300]},
        "|z| must be at most 1e+150, got 1e+200"),
    "huge-gamma0": (
        "limit-law-table", {"gamma0": 1e300, "grid": {"start": 0.0, "stop": 1.0, "step": 0.5}},
        "gamma0 must be at most 1e+100, got 1e+300"),
    # t^2 + |z|^2, the master quintic's leading coefficient, underflows to 0.
    "tiny-fixed-point-z-and-t": (
        "fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": [1e-300], "t_list": [1e-307]},
        "|z| = 1e-300, t = 1e-307 and gamma0 = 1" + OUT_OF_RANGE),
    # gamma0 t overflows.
    "huge-fixed-point-gamma0-t": (
        "fixed-point", {"gamma0": 1e300, "gamma1": 0.5, "z_list": [1.0], "t_list": [1e10]},
        "|z| = 1, t = 1e+10 and gamma0 = 1e+300" + OUT_OF_RANGE),
    "tiny-fixed-point-gamma0": (
        "fixed-point", {"gamma0": 1.2251743558000783e-75, "gamma1": 0.84,
                        "z_list": [1.671341345476137e-272], "t_list": [6.884142389464765e-235]},
        "|z| = 1.67134e-272, t = 6.88414e-235 and gamma0 = 1.22517e-75" + OUT_OF_RANGE),
    "huge-fixed-point-gamma0-tiny-t": (
        "fixed-point", {"gamma0": 1.5476340718728332e+269, "gamma1": 0.84,
                        "z_list": [2.0880029846122828e-70], "t_list": [2.868015299462606e-244]},
        "|z| = 2.088e-70, t = 2.86802e-244 and gamma0 = 1.54763e+269" + OUT_OF_RANGE),
}


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
        ("esd", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1,
                 "thresholds": {"radial_ks": math.nan}}),
        ("large-k", {"n": 16, "N": 16, "k": 8, "seed": 1, "trials": 1, "z_list": [1.0],
                     "t_list": [0.5], "thresholds": {"stability_ks": math.inf}}),
        ("large-k", {"n": 16, "N": 16, "k": 8, "seed": 1, "trials": 1, "z_list": [1.0],
                     "t_list": "5"}),
        ("fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": "2", "t_list": [0.5]}),
        ("fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": {"1": 0}, "t_list": [0.5]}),
        ("fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": [1.0], "t_list": [0.5],
                         "n": 16}),
        ("fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": [1.0], "t_list": [0.5],
                         "seed": 1}),
        ("hermitize", {"n": 16, "N": 16, "k": 1, "seed": 1, "half_width": 1.0}),
        ("lsv-tail", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 2, "trails": 3,
                      "z": 1.0}),
        # 2 TV blocks per side, where a point mass at 0 passes: it exited 0.
        ("hermitize", {"n": 16, "N": 16, "k": 1, "seed": 1, "h": 3.0}),
        # 3 TV blocks per side, where a uniform disk of half the support
        # radius passes: both exited 0, with TV 0.131 and 0.035.
        ("hermitize", {"n": 16, "N": 16, "k": 1, "seed": 1, "h": 0.7}),
        ("hermitize", {"n": 16, "N": 16, "k": 1, "seed": 1, "h": 1.0}),
        # Too deep for json to parse; parsed, but too deep to render, which
        # load_config finds before any key is parsed.
        ("esd", '{"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1, "law": '
                + "[" * 100_000 + "]" * 100_000 + "}"),
        ("limit-law-table", '{"gamma0": 1.0, "grid": {"start": 0.0, "stop": 1.0, '
                            '"step": 0.5, "note": ' + "[" * 600 + "]" * 600 + "}}"),
        # A misspelt grid key: it exited 0 and the manifest recorded "stpe".
        ("limit-law-table", {"gamma0": 1.0, "grid": {"start": 0.0, "stop": 1.0, "step": 0.5,
                                                     "stpe": 0.1}}),
        *[(subcommand, payload) for subcommand, payload, _ in OVERFLOWING_MAGNITUDES.values()],
    ], ids=["unknown-law", "non-integer-trials", "small-lag-gamma1", "negative-t",
            "zero-trials", "zero-h", "non-numeric-h", "negative-gamma0",
            "non-numeric-step", "zero-step", "non-integer-n", "zero-n",
            "small-sample-count", "non-numeric-threshold", "infinite-n", "infinite-trials",
            "infinite-diagnostics-n", "infinite-simulation-n", "nan-z", "nan-z-pair",
            "nan-large-k-z", "empty-large-k-z", "empty-fixed-point-z",
            "empty-fixed-point-t", "nan-fixed-point-z", "nan-t", "infinite-h", "negative-start",
            "negative-stop", "nan-start", "unknown-threshold", "removed-lag-ks-gap",
            "removed-angular-ks", "list-thresholds", "zero-z", "zero-linearize-z",
            "zero-large-k-z", "zero-large-k-t", "empty-large-k-t", "zero-fixed-point-z",
            "nan-threshold", "infinite-threshold", "string-t-list", "string-z-list",
            "mapping-z-list", "n-without-seed", "seed-without-n", "unknown-half-width",
            "misspelt-trials", "coarse-h", "three-block-h-0.7", "three-block-h-1",
            "deeply-nested-law", "deeply-nested-grid-value", "misspelt-grid-step",
            *OVERFLOWING_MAGNITUDES])
    def test_config_errors_exit_three_without_traceback(self, tmp_path, capsys,
                                                        subcommand, payload):
        # In-process: an exception escaping cli.main fails the test.
        cfg = write_config(tmp_path, payload)
        status = cli.main([subcommand, cfg, "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert status == cli.EXIT_CONFIG, err
        assert err.startswith(f"config error: {subcommand}: ")
        assert err.count(subcommand) == 1
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand,payload,message", OVERFLOWING_MAGNITUDES.values(),
                             ids=list(OVERFLOWING_MAGNITUDES))
    def test_out_of_range_magnitudes_name_the_key(self, tmp_path, subcommand, payload, message):
        # A fresh interpreter, so that a numpy overflow warning would reach
        # stderr, where the in-process test above cannot see it.
        proc = run_cli(subcommand, write_config(tmp_path, payload), tmp_path / "out")
        assert proc.returncode == cli.EXIT_CONFIG
        assert proc.stderr == f"config error: {subcommand}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("depth,message", [
        (5000, "override 'h' nests too deeply to parse"),
        # Parsed, but too deep to render: validate_keys parses h for esd too
        # and would reject it, but load_config's render check runs first.
        (600, "config nests too deeply to record in the manifest"),
    ], ids=["unparsable", "unrecordable"])
    def test_deeply_nested_override_exits_three_before_any_output(self, tmp_path, capsys,
                                                                  depth, message):
        cfg = write_config(tmp_path, TINY_CONFIGS["esd"])
        out = tmp_path / "out"
        status = cli.main(["esd", cfg, "--set", "h=" + "[" * depth + "]" * depth,
                           "--output-dir", str(out)])
        assert status == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: esd: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("seed", 1.5), ("seed", "7"), ("trials", 2.9), ("k", True), ("n", 16.0), ("N", False),
    ])
    @pytest.mark.parametrize("subcommand", ["esd", "large-k"])
    def test_integer_keys_take_only_integers(self, tmp_path, capsys, subcommand, key, value):
        # int() would run seed 1.5 as seed 1, and take true as 1 and "7" as 7.
        payload = dict(TINY_CONFIGS[subcommand], **{key: value})
        status = cli.run(subcommand, write_config(tmp_path, payload),
                         output_dir=str(tmp_path / "o"))
        assert status == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (f"config error: {subcommand}: {key} must be an "
                                           f"integer, got {value!r}\n")

    @pytest.mark.parametrize("subcommand,key,value", [
        ("fixed-point", "n", 8.0), ("fixed-point", "seed", 1.5), ("fixed-point", "trials", True),
        ("law-diagnostics", "n", 8.5), ("law-diagnostics", "seed", "1"),
        ("law-diagnostics", "sample_count", 1e5),
    ])
    def test_integer_keys_of_other_subcommands(self, tmp_path, capsys, subcommand, key, value):
        payload = dict(TINY_CONFIGS[subcommand], **{key: value})
        status = cli.run(subcommand, write_config(tmp_path, payload),
                         output_dir=str(tmp_path / "o"))
        assert status == cli.EXIT_CONFIG
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand,key,value,message", [
        ("hermitize", "h", True, "h must be a number"),
        ("hermitize", "h", "0.5", "h must be a number"),
        ("lsv-tail", "z", True, "z must be a finite complex number"),
        ("linearize-check", "z", [True, 0], "z must be a finite complex number"),
        ("fixed-point", "gamma0", "1.5", "gamma0 must be a number"),
        ("fixed-point", "gamma1", True, "gamma1 must be a number"),
        ("fixed-point", "t_list", [True], "t_list entry must be a number"),
        ("fixed-point", "z_list", [False], "z_list entry must be a finite complex number"),
        ("large-k", "t_list", ["0.5"], "t_list entry must be a number"),
        ("large-k", "z_list", [True], "z_list entry must be a finite complex number"),
        ("limit-law-table", "gamma0", True, "gamma0 must be a number"),
        ("limit-law-table", "grid", {"start": False, "stop": 1.0, "step": 0.5},
         "grid.start must be a number"),
        ("limit-law-table", "grid", {"start": 0.0, "stop": True, "step": 0.5},
         "grid.stop must be a number"),
        ("limit-law-table", "grid", {"start": 0.0, "stop": 1.0, "step": "0.5"},
         "grid.step must be a number"),
    ])
    def test_real_keys_take_only_numbers(self, tmp_path, capsys, subcommand, key, value,
                                         message):
        # float() would run true as 1.0 and "1.5" as 1.5.
        payload = dict(TINY_CONFIGS[subcommand], **{key: value})
        status = cli.run(subcommand, write_config(tmp_path, payload),
                         output_dir=str(tmp_path / "o"))
        assert status == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: {subcommand}: {message}, got ")

    @pytest.mark.parametrize("subcommand", ["esd", "lsv-tail", "hermitize", "linearize-check"])
    def test_keys_a_subcommand_never_reads_are_ignored(self, tmp_path, capsys, subcommand):
        # z_list and t_list belong to large-k and fixed-point: valid values
        # change no other subcommand's outputs and are listed as ignored;
        # junk in either exits 3 before any output.
        clean = run_outputs(subcommand, TINY_CONFIGS[subcommand], tmp_path, "clean")
        valid = run_outputs(subcommand, dict(TINY_CONFIGS[subcommand], z_list=[1.0, "1+1j"],
                                             t_list=[0.5]), tmp_path, "valid")
        assert clean[0] == valid[0] == cli.EXIT_OK
        assert clean[1] and clean[1] == valid[1]
        assert (clean[2]["ignored_keys"], valid[2]["ignored_keys"]) == ([], ["t_list", "z_list"])
        for name, junk in [("junk-z", {"z_list": "x"}), ("junk-t", {"t_list": [None]}),
                           ("junk-both", {"z_list": "x", "t_list": [None]})]:
            out = tmp_path / name
            status = cli.run(subcommand, write_config(tmp_path, dict(TINY_CONFIGS[subcommand],
                                                                     **junk), f"{name}.json"),
                             output_dir=str(out))
            assert status == cli.EXIT_CONFIG
            assert capsys.readouterr().err.startswith(f"config error: {subcommand}: ")
            assert not out.exists()

    @pytest.mark.parametrize("subcommand,key,value", [
        # fixed-point derives N = round(gamma0 n) and k = round(gamma1 n).
        ("fixed-point", "N", 99), ("fixed-point", "k", 3),
        # hermitize runs trial 0 only.
        ("hermitize", "trials", 7), ("hermitize", "trials", 0),
    ])
    def test_keys_a_subcommand_derives_or_never_uses_are_ignored(self, tmp_path, subcommand,
                                                                 key, value):
        clean = run_outputs(subcommand, TINY_CONFIGS[subcommand], tmp_path, "clean")
        given = run_outputs(subcommand, dict(TINY_CONFIGS[subcommand], **{key: value}),
                            tmp_path, "given")
        assert clean[0] == given[0] == cli.EXIT_OK
        assert clean[1] and clean[1] == given[1]
        assert given[2]["ignored_keys"] == [key]
        assert given[2]["config"][key] == value

    @pytest.mark.parametrize("key", sorted(cli.PARSERS))
    @pytest.mark.parametrize("subcommand", sorted(cli.SCHEMAS))
    def test_a_wrong_type_in_any_key_exits_three_before_any_output(self, tmp_path, capsys,
                                                                   monkeypatch, subcommand,
                                                                   key):
        # true parses as no key's value; read by the subcommand or not.
        def makedirs(*args, **kwargs):
            raise AssertionError("output directory made")

        monkeypatch.setattr(cli.os, "makedirs", makedirs)
        payload = dict(TINY_CONFIGS[subcommand], **{key: True})
        status = cli.run(subcommand, write_config(tmp_path, payload),
                         output_dir=str(tmp_path / "out"))
        assert status == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {subcommand}: ")

    @pytest.mark.parametrize("subcommand,key,meant", [
        ("hermitize", "half_width", None), ("esd", "trails", "trials"),
        ("limit-law-table", "gamma", "gamma0"),
    ])
    def test_keys_no_subcommand_reads_are_named(self, tmp_path, capsys, subcommand, key,
                                                meant):
        # A misspelt key would otherwise run silently at its default. It is
        # named, not the required key it was meant for.
        payload = {name: value for name, value in TINY_CONFIGS[subcommand].items()
                   if name != meant}
        payload[key] = 1.0
        status = cli.run(subcommand, write_config(tmp_path, payload),
                         output_dir=str(tmp_path / "o"))
        assert status == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (f"config error: {subcommand}: unknown config "
                                           f"keys: {key}\n")

    def test_large_k_still_rejects_a_junk_grid(self, tmp_path, capsys):
        payload = dict(TINY_CONFIGS["large-k"], z_list="x")
        status = cli.run("large-k", write_config(tmp_path, payload),
                         output_dir=str(tmp_path / "o"))
        assert status == cli.EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: large-k: z_list must be a "
                                           "nonempty array, got 'x'\n")

    def test_integer_override_still_runs(self, tmp_path):
        out = tmp_path / "o"
        status = cli.main(["esd", write_config(tmp_path, TINY_CONFIGS["esd"]), "--set",
                           "seed=7", "--output-dir", str(out)])
        assert status in (cli.EXIT_OK, cli.EXIT_ASSERTION)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7
        assert manifest["resolved_seeds"] == [mix_seed(7, i)
                                              for i in range(TINY_CONFIGS["esd"]["trials"])]

    # Each size lies beyond the 47-bit user address space, so the allocation
    # fails at once, whatever the machine's overcommit setting.
    @pytest.mark.parametrize("subcommand,payload", [
        ("hermitize", {"n": 16, "N": 16, "k": 1, "seed": 1, "h": 1e-15}),
        ("esd", {"n": 10**8, "N": 10**8, "k": 1, "seed": 1, "trials": 1}),
        ("limit-law-table", {"gamma0": 1.0, "grid": {"start": 0.0, "stop": 1.0,
                                                     "step": 1e-15}}),
        ("law-diagnostics", {"law": "complex-gaussian", "n": 8, "seed": 1,
                             "sample_count": 10**17}),
    ], ids=["hermitize-h", "esd-n", "limit-law-step", "diagnostics-sample-count"])
    def test_unallocatable_sizes_exit_three(self, tmp_path, capsys, subcommand, payload):
        status = cli.run(subcommand, write_config(tmp_path, payload),
                         output_dir=str(tmp_path / "o"))
        assert status == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: {subcommand}: Unable to allocate ")

    @pytest.mark.parametrize("subcommand,payload", [
        ("esd", {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1, "law": "bogus"}),
        ("fixed-point", {"gamma0": 1.0, "gamma1": 0.5, "z_list": [math.nan], "t_list": [0.5]}),
        ("esd", {"n": 10**8, "N": 10**8, "k": 1, "seed": 1, "trials": 1}),
    ], ids=["unknown-law", "nan-fixed-point-z", "unallocatable-esd"])
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
            out = os.path.join(tmp, "out")
            status = cli.run(subcommand, config_file, output_dir=out)
            assert status in (cli.EXIT_OK, cli.EXIT_ASSERTION, cli.EXIT_CONFIG, cli.EXIT_NUMERIC)
            if status in (cli.EXIT_CONFIG, cli.EXIT_NUMERIC):
                assert not os.path.exists(out)

    def test_threshold_checked_before_the_experiment(self, tmp_path, monkeypatch, capsys):
        def experiment(*args):
            raise AssertionError("experiment ran")

        monkeypatch.setattr(cli.experiments, "esd_experiment", experiment)
        cfg = write_config(tmp_path, {"n": 16, "N": 16, "k": 1, "seed": 1, "trials": 1,
                                      "thresholds": {"radial_ks": [0.1]}})
        assert cli.run("esd", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_CONFIG
        assert "radial_ks" in capsys.readouterr().err

    def test_fixed_point_solver_failure_exits_four(self, tmp_path, monkeypatch, capsys):
        # Every root of every continuation step is negative.
        monkeypatch.setattr(fixed_point, "_path_roots",
                            lambda params: -np.ones((len(params.path), 5)))
        cfg = write_config(tmp_path, {
            "gamma0": 1.0, "gamma1": 0.5, "z_list": [1.0], "t_list": [0.5]})
        assert cli.run("fixed-point", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_NUMERIC
        assert "no positive root" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        # The companion eigensolve finds no positive root at the path's first step.
        {"gamma0": 1e-50, "gamma1": 0.5, "z_list": [1.0], "t_list": [0.5]},
        # No sign change across _refine's bracket: a Newton fallback once
        # exited 0 here with s off by 6.0e-4 and by 55 %.
        {"gamma0": 1.459, "gamma1": 0.56, "z_list": [3.46], "t_list": [2.159016143435955e-28]},
        {"gamma0": 1e-30, "gamma1": 0.5, "z_list": [1.0], "t_list": [0.5]},
    ], ids=["no-positive-root", "tiny-t", "tiny-gamma0"])
    def test_unresolved_root_exits_four_naming_the_point(self, tmp_path, capsys, payload):
        out = tmp_path / "out"
        status = cli.run("fixed-point", write_config(tmp_path, payload), output_dir=str(out))
        assert status == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric backend failure: ") and err.count("\n") == 1
        assert f"t={payload['t_list'][0]}, gamma0={payload['gamma0']}, a=" in err
        assert not out.exists()

    def test_raw_linalg_error_exits_four(self, tmp_path, monkeypatch, capsys):
        # LinAlgError is a ValueError: run must test for it before the
        # config-error clause.
        def roots(params):
            raise np.linalg.LinAlgError("roots did not converge")

        monkeypatch.setattr(fixed_point, "_path_roots", roots)
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
        afile.write_text("kept")
        argv = ([str(tmp_path), "--output-dir", str(tmp_path / "o")] if config_is_dir
                else [cfg, "--output-dir", str(afile)])
        assert cli.main(["limit-law-table", *argv]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: limit-law-table: ") and err.count("\n") == 1
        assert afile.read_text() == "kept"
        assert sorted(os.listdir(tmp_path)) == ["afile", "config.json"]

    @pytest.mark.parametrize("out_name", ["out", "out/a/b"], ids=["flat", "nested"])
    @pytest.mark.parametrize("h", [0, math.nan, True], ids=["zero", "nan", "true"])
    def test_runner_config_error_leaves_no_output_dir(self, tmp_path, capsys, h, out_name):
        # true fails its parse; 0 and nan fail hermitization_pipeline's range
        # check, which the runner makes.
        cfg = write_config(tmp_path, dict(TINY_CONFIGS["hermitize"], h=h))
        out = tmp_path / out_name
        assert cli.run("hermitize", cfg, output_dir=str(out)) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: hermitize: ")
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("out_name", ["out", "out/a/b"], ids=["flat", "nested"])
    def test_esd_worker_error_leaves_no_output_dir(self, tmp_path, monkeypatch, capsys,
                                                   out_name):
        sampled = experiments.sampled_companion

        def failing(spec, i):
            if i == 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return sampled(spec, i)

        monkeypatch.setattr(experiments, "ESD_FORK_MIN_SIDE", 1)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "sampled_companion", failing)
        cfg = write_config(tmp_path, TINY_CONFIGS["esd"])
        assert cli.run("esd", cfg, output_dir=str(tmp_path / out_name)) == cli.EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("numeric backend failure: ")
        assert os.listdir(tmp_path) == ["config.json"]

    def test_esd_trial_zero_spectrum_failure_writes_nothing(self, tmp_path, monkeypatch,
                                                            capsys):
        # Every trial succeeds, then trial 0's spectrum for the CSVs, the
        # last task, fails: it used to leave esd_report.json without a manifest.
        sampled, calls = experiments.sampled_companion, []

        def failing(spec, i):
            calls.append(i)
            if calls.count(0) == 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return sampled(spec, i)

        monkeypatch.setattr(experiments, "sampled_companion", failing)
        out = tmp_path / "out"
        status = cli.run("esd", write_config(tmp_path, TINY_CONFIGS["esd"]), output_dir=str(out))
        assert status == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric backend failure: Eigenvalues did not converge\n"
        assert calls == [0, 1, 0]
        assert not out.exists()

    @pytest.mark.parametrize("content", [[], ["keep.txt"]], ids=["empty", "with-a-file"])
    def test_failed_run_keeps_an_existing_output_dir(self, tmp_path, content):
        cfg = write_config(tmp_path, dict(TINY_CONFIGS["hermitize"], h=0))
        out = tmp_path / "out"
        out.mkdir()
        for name in content:
            (out / name).write_text("kept")
        assert cli.run("hermitize", cfg, output_dir=str(out)) == cli.EXIT_CONFIG
        assert sorted(os.listdir(out)) == content

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
        # gamma0 = 2: the eigenvalues come from the 127 x 127 companion.
        ("esd", {"n": 128, "N": 256, "k": 1, "seed": 1, "trials": 2}),
        ("large-k", {"n": 120, "N": 180, "k": 60, "seed": 1, "trials": 3,
                     "z_list": [1.0, [0.5, 0.5]], "t_list": [0.5, 1.0]}),
        # N = 180 > d = n = 120: the resolvent SVDs take the QR-compressed core.
        ("fixed-point", {"gamma0": 1.5, "gamma1": 0.5, "n": 120, "seed": 1, "trials": 3,
                         "z_list": [1.0, [0.5, 0.5]], "t_list": [0.5, 1.0]}),
        ("hermitize", {"n": 256, "N": 256, "k": 1, "seed": 1, "h": 0.2}),
        # gamma0 = 2: the eigenvalues come from the 127 x 127 companion.
        ("hermitize", {"n": 128, "N": 256, "k": 1, "seed": 1, "h": 0.2}),
    ], ids=["lsv-tail", "esd", "esd-gamma0-2", "large-k", "fixed-point", "hermitize",
            "hermitize-gamma0-2"])
    def test_outputs_independent_of_openblas_threads(self, tmp_path, subcommand, payload):
        cfg = write_config(tmp_path, payload)
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            # A library caller's OpenBLAS loads at the caller's thread count,
            # so the run's outputs rest on cli.run's pin alone.
            proc = run_cli(subcommand, cfg, out, entry=LIBRARY_CALL,
                           OPENBLAS_NUM_THREADS=threads)
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
        assert env["usable_cpus"] == experiments.usable_cpus()
        assert set(env) == {"python", "numpy", "numpy_blas", "blas_threads", "cpu_count",
                            "usable_cpus"}
        assert set(env["numpy_blas"]) == {"name", "version"}


class TestTrialWorkers:
    """lsv-tail runs its trials, large-k its two tasks, and esd its trials
    when they are large enough (experiments.ESD_FORK_MIN_SIDE), through
    experiments.map_trials; experiments.usable_cpus sets the worker count."""

    CONFIG = {"n": 24, "N": 24, "k": 1, "seed": 4, "trials": 7, "z": [1.0, 0.5]}
    # Task 0 decomposes the 2n-sample (X of 32 columns) and trial 0 (X of 16
    # columns) here; task 1 runs the resolvent trials in the worker.
    LARGE_K = {"n": 16, "N": 24, "k": 8, "seed": 4, "trials": 3,
               "z_list": [1.0, [0.5, 0.5]], "t_list": [0.5, 1.0]}

    # esd at n = N (Y itself), on the companion at gamma0 = 1.5 and 2, and
    # at the half lag (the companion of side n - k = n/2).
    ESD_SHAPES = {"full": (24, 24, 1), "gamma0-1.5": (16, 24, 1),
                  "gamma0-2": (16, 32, 1), "half-lag": (24, 24, 12)}

    def _fail_at(self, monkeypatch, trials, failure, sampler="sample_entry_matrix"):
        # sampler: the experiments name each trial draws through, called
        # as sampler(spec, trial index).
        sample = getattr(experiments, sampler)

        def failing(spec, i):
            if i in trials:
                failure(i)
            return sample(spec, i)

        monkeypatch.setattr(experiments, sampler, failing)

    def _outputs(self, monkeypatch, tmp_path, subcommand, cfg, workers=(1, 2, 3)):
        """{worker count: {file name: bytes}} of one run per worker count,
        the manifest left out."""
        outputs = {}
        for count in workers:
            monkeypatch.setattr(experiments, "usable_cpus", lambda: count)
            out = tmp_path / f"workers{count}"
            assert cli.run(subcommand, cfg, output_dir=str(out)) in (cli.EXIT_OK,
                                                                     cli.EXIT_ASSERTION)
            outputs[count] = {p.name: p.read_bytes() for p in out.iterdir()
                              if p.name != "manifest.json"}
        return outputs

    @pytest.mark.parametrize("trials", [7, 2])
    def test_outputs_independent_of_worker_count(self, tmp_path, monkeypatch, trials):
        cfg = write_config(tmp_path, dict(self.CONFIG, trials=trials))
        outputs = self._outputs(monkeypatch, tmp_path, "lsv-tail", cfg)
        assert outputs[1] and outputs[1] == outputs[2] == outputs[3]

    @pytest.mark.parametrize("trials", [2, 5, 7])
    @pytest.mark.parametrize("shape", ESD_SHAPES)
    def test_esd_outputs_independent_of_worker_count(self, tmp_path, monkeypatch, shape,
                                                     trials):
        # The gate lowered to 1: every esd run goes through map_trials.
        monkeypatch.setattr(experiments, "ESD_FORK_MIN_SIDE", 1)
        n, N, k = self.ESD_SHAPES[shape]
        cfg = write_config(tmp_path, {"n": n, "N": N, "k": k, "seed": 4, "trials": trials})
        outputs = self._outputs(monkeypatch, tmp_path, "esd", cfg)
        assert sorted(outputs[1]) == ["eigenvalues.csv", "esd_report.json", "radial_cdf.csv"]
        assert outputs[1] == outputs[2] == outputs[3]

    def test_esd_outputs_at_the_fork_gate(self, tmp_path, monkeypatch):
        # Trials of side ESD_FORK_MIN_SIDE fork at its real value.
        side = experiments.ESD_FORK_MIN_SIDE
        cfg = write_config(tmp_path, {"n": side, "N": side, "k": 1, "seed": 4, "trials": 2})
        outputs = self._outputs(monkeypatch, tmp_path, "esd", cfg, workers=(1, 2))
        assert len(outputs[1]) == 3 and outputs[1] == outputs[2]

    @pytest.mark.parametrize("wrong", [False, True], ids=["right-law", "wrong-gamma0"])
    @pytest.mark.parametrize("N", [192, 256], ids=["gamma0-1.5", "gamma0-2"])
    def test_forked_esd_verdicts(self, tmp_path, monkeypatch, N, wrong):
        # TestEsdRun::test_wide_runs_pass on two workers; scored against the
        # law of gamma0 + 0.5 instead, whose atom at 0 holds 0.17 (gamma0 =
        # 1.5) or 0.1 (gamma0 = 2) more mass, the run fails.
        monkeypatch.setattr(experiments, "ESD_FORK_MIN_SIDE", 1)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        if wrong:
            law = experiments.Gamma0Law
            monkeypatch.setattr(experiments, "Gamma0Law", lambda gamma0: law(gamma0 + 0.5))
        cfg = write_config(tmp_path, {"n": 128, "N": N, "k": 1, "seed": 22, "trials": 2})
        status = cli.run("esd", cfg, output_dir=str(tmp_path / "out"))
        assert status == (cli.EXIT_ASSERTION if wrong else cli.EXIT_OK)
        report = json.loads((tmp_path / "out" / "esd_report.json").read_text())
        assert (report["mean_radial_ks"] > experiments.DEFAULT_THRESHOLDS["radial_ks"]) is wrong

    @pytest.mark.parametrize("failing", [{1, 5}, {4, 6}, {6}])
    def test_linalg_error_in_a_worker_exits_four_as_serially(self, tmp_path, monkeypatch,
                                                             capsys, failing):
        def fail(i):
            raise np.linalg.LinAlgError(f"SVD did not converge at trial {i}")

        self._fail_at(monkeypatch, failing, fail)
        cfg = write_config(tmp_path, self.CONFIG)
        errors = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(experiments, "usable_cpus", lambda: workers)
            assert cli.run("lsv-tail", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_NUMERIC
            errors.add(capsys.readouterr().err)
        assert errors == {"numeric backend failure: SVD did not converge at trial "
                          f"{min(failing)}\n"}

    def test_worker_without_result_exits_four(self, tmp_path, monkeypatch, capsys):
        # 7 trials on 2 workers: trials 3-6 run in the child, which dies.
        parent = os.getpid()

        def die(i):
            if os.getpid() != parent:
                os._exit(1)

        self._fail_at(monkeypatch, {5}, die)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        cfg = write_config(tmp_path, self.CONFIG)
        assert cli.run("lsv-tail", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == ("numeric backend failure: the worker for trials 3-6 ended with "
                       "status 1 and no result\n")

    @pytest.mark.parametrize("failing", [{0}, {1, 5}, {4, 6}, {6}])
    def test_esd_linalg_error_in_a_worker_exits_four_as_serially(self, tmp_path, monkeypatch,
                                                                 capsys, failing):
        def fail(i):
            raise np.linalg.LinAlgError(f"Eigenvalues did not converge at trial {i}")

        monkeypatch.setattr(experiments, "ESD_FORK_MIN_SIDE", 1)
        self._fail_at(monkeypatch, failing, fail, "sampled_companion")
        cfg = write_config(tmp_path, {"n": 24, "N": 24, "k": 1, "seed": 4, "trials": 7})
        errors = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(experiments, "usable_cpus", lambda: workers)
            assert cli.run("esd", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_NUMERIC
            errors.add(capsys.readouterr().err)
        assert errors == {"numeric backend failure: Eigenvalues did not converge at trial "
                          f"{min(failing)}\n"}

    def test_esd_worker_without_result_exits_four(self, tmp_path, monkeypatch, capsys):
        # 7 trials and trial 0's spectrum on 2 workers: tasks 4-7 run in the
        # child, which dies.
        parent = os.getpid()

        def die(i):
            if os.getpid() != parent:
                os._exit(1)

        monkeypatch.setattr(experiments, "ESD_FORK_MIN_SIDE", 1)
        self._fail_at(monkeypatch, {5}, die, "sampled_companion")
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        cfg = write_config(tmp_path, {"n": 24, "N": 24, "k": 1, "seed": 4, "trials": 7})
        assert cli.run("esd", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == ("numeric backend failure: the worker for trials "
                                           "4-7 ended with status 1 and no result\n")

    def test_large_k_report_independent_of_worker_count(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, self.LARGE_K)
        outputs = self._outputs(monkeypatch, tmp_path, "large-k", cfg)
        assert list(outputs[1]) == ["large_k_report.json"]
        assert outputs[1] == outputs[2] == outputs[3]

    def _fail_large_k_solve(self, monkeypatch, samples, failure):
        # Task 0 takes both spectra from sampled_companion: the 2n-sample's
        # has n = 32, trial 0's n = 16. Task 1 takes every resolvent trial's
        # singular values from ensembles.singular_values.
        sampled, svd = experiments.sampled_companion, ensembles.singular_values

        def failing(spec, trial):
            sample = "2n" if spec.n == 2 * self.LARGE_K["n"] else "trial 0"
            if sample in samples:
                failure(f"eigenvalues of the {sample} sample")
            return sampled(spec, trial)

        def failing_svd(M):
            if "resolvent" in samples:
                failure("singular values of a resolvent trial")
            return svd(M)

        monkeypatch.setattr(experiments, "sampled_companion", failing)
        monkeypatch.setattr(ensembles, "singular_values", failing_svd)

    @pytest.mark.parametrize("failing", [{"2n"}, {"trial 0"}, {"2n", "trial 0"},
                                         {"resolvent"}, {"trial 0", "resolvent"}])
    def test_large_k_linalg_error_in_either_task_exits_four_as_serially(
            self, tmp_path, monkeypatch, capsys, failing):
        def fail(what):
            raise np.linalg.LinAlgError(f"{what} did not converge")

        self._fail_large_k_solve(monkeypatch, failing, fail)
        cfg = write_config(tmp_path, self.LARGE_K)
        errors = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(experiments, "usable_cpus", lambda: workers)
            assert cli.run("large-k", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_NUMERIC
            errors.add(capsys.readouterr().err)
        # Serially the 2n-sample is decomposed first, then trial 0, then the
        # resolvent trials: the spectra task's error wins over the worker's.
        if failing & {"2n", "trial 0"}:
            first = "2n" if "2n" in failing else "trial 0"
            what = f"eigenvalues of the {first} sample"
        else:
            what = "singular values of a resolvent trial"
        assert errors == {f"numeric backend failure: {what} did not converge\n"}

    def test_large_k_worker_without_result_exits_four(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()

        def die(what):
            if os.getpid() != parent:
                os._exit(1)

        self._fail_large_k_solve(monkeypatch, {"resolvent"}, die)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        cfg = write_config(tmp_path, self.LARGE_K)
        assert cli.run("large-k", cfg, output_dir=str(tmp_path / "o")) == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == ("numeric backend failure: the worker for trials "
                                           "1-1 ended with status 1 and no result\n")

    def test_real_solver_failure_in_the_resolvent_task_exits_four(self, tmp_path, monkeypatch,
                                                                 capsys):
        # solve_s finds no positive root at t near 9.4e-32 on its way to
        # t = 1e-300; on two CPUs that happens in the forked task 1.
        cfg = write_config(tmp_path, {**TINY_CONFIGS["large-k"], "t_list": [1e-300]})
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(experiments, "usable_cpus", lambda: workers)
            out = tmp_path / f"workers{workers}"
            assert cli.run("large-k", cfg, output_dir=str(out)) == cli.EXIT_NUMERIC
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("numeric backend failure: no positive root of the master "
                                    "relation at t=9.4")
        assert errors[0].endswith("; solving ResolventParams(z=(1+0j), t=1e-300, gamma0=1.0, "
                                  "a=0.5)\n") and errors[0].count("\n") == 1

    def test_no_worker_outlives_the_run(self, tmp_path):
        # A fresh interpreter has no other children. lsv-tail and esd (its
        # fork gate lowered, a threshold every run passes) run on 3 workers
        # (trials 0-1 here, 2-3 and 4-6 in children), large-k on 2 (task 0
        # here, task 1 in a child): one run that passes, one where this
        # process's own chunk raises, one where a worker raises and one
        # where a worker dies. After each, os.waitpid(-1, WNOHANG) finds no
        # child.
        cfg = write_config(tmp_path, self.CONFIG)
        large_k = write_config(tmp_path, self.LARGE_K, "large_k.json")
        esd = write_config(tmp_path, {"n": 24, "N": 24, "k": 1, "seed": 4, "trials": 7,
                                      "thresholds": {"radial_ks": 1.0}}, "esd.json")
        code = textwrap.dedent("""
            import os, sys, numpy as np
            from autocov_spectra import cli, ensembles, experiments
            experiments.usable_cpus = lambda: 3
            experiments.ESD_FORK_MIN_SIDE = 1
            sample, sampled = experiments.sample_entry_matrix, experiments.sampled_companion
            svd = ensembles.singular_values

            def failing_at(trial, failure, draw=sample):
                def sampler(spec, i):
                    if i == trial:
                        failure()
                    return draw(spec, i)
                return sampler

            def failing_2n_companion(spec, trial):
                if spec.n == 32:
                    raise_linalg_error()
                return sampled(spec, trial)

            def failing_svd(failure):
                def singular_values(M):
                    failure()
                    return svd(M)
                return singular_values

            def raise_linalg_error():
                raise np.linalg.LinAlgError("x")

            def check(subcommand, config):
                codes.append(cli.run(subcommand, config, output_dir=sys.argv[3]))
                try:
                    os.waitpid(-1, os.WNOHANG)
                    codes.append("child left")
                except ChildProcessError:
                    pass

            codes = []
            for sampler in (sample, failing_at(0, raise_linalg_error),
                            failing_at(5, raise_linalg_error),
                            failing_at(3, lambda: os._exit(1))):
                experiments.sample_entry_matrix = sampler
                check("lsv-tail", sys.argv[1])
            experiments.sample_entry_matrix = sample
            # Task 0 takes both spectra here, the 2n-sample's (n = 32) first;
            # the worker's task 1 takes every resolvent trial's SVDs.
            for companion, singular_values in (
                    (sampled, svd), (failing_2n_companion, svd),
                    (sampled, failing_svd(raise_linalg_error)),
                    (sampled, failing_svd(lambda: os._exit(1)))):
                experiments.sampled_companion = companion
                ensembles.singular_values = singular_values
                check("large-k", sys.argv[2])
            ensembles.singular_values = svd
            for companion in (sampled, failing_at(0, raise_linalg_error, sampled),
                              failing_at(5, raise_linalg_error, sampled),
                              failing_at(3, lambda: os._exit(1), sampled)):
                experiments.sampled_companion = companion
                check("esd", sys.argv[4])
            print(codes)
        """)
        out = _fresh_process_output(code, cfg, large_k, tmp_path / "out", esd)
        assert out in ("[0, 4, 4, 4, 0, 4, 4, 4, 0, 4, 4, 4]",
                       "[2, 4, 4, 4, 0, 4, 4, 4, 0, 4, 4, 4]",
                       "[0, 4, 4, 4, 2, 4, 4, 4, 0, 4, 4, 4]",
                       "[2, 4, 4, 4, 2, 4, 4, 4, 0, 4, 4, 4]")


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
        # numpy is the only runtime dependency; scipy serves the tests alone,
        # and so does numpy.polynomial: solve_s builds its companion matrices.
        runs = [[sub, write_config(tmp_path, cfg, f"{sub}.json")]
                for sub, cfg in TINY_CONFIGS.items()]
        out = _fresh_process_output(
            "import importlib, json, pkgutil, sys, autocov_spectra; "
            "names = [m.name for m in pkgutil.iter_modules(autocov_spectra.__path__)]; "
            "[importlib.import_module('autocov_spectra.' + name) for name in names]; "
            "from autocov_spectra import cli; "
            "codes = [cli.main([sub, cfg, '--output-dir', sys.argv[2]]) "
            "for sub, cfg in json.loads(sys.argv[1])]; "
            "print(sorted(names), all(c in (0, 2) for c in codes), "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith('numpy.polynomial')))",
            json.dumps(runs), tmp_path / "out")
        assert out == ("['cli', 'ensembles', 'experiments', 'fixed_point', 'geometry', "
                       "'limit_law', 'linalg', 'startup'] True []")

    def test_package_import_loads_no_numpy(self):
        assert _fresh_process_output(
            "import sys, autocov_spectra; print('numpy' in sys.modules)") == "False"

    def _run_entry(self, tmp_path, caller_threads, entry):
        """(exit status in (0, 2), every OpenBLAS on one thread, the
        variable's value, _hashlib blocked, sha256 of b"") after a large-k
        run through the code entry in a fresh process."""
        cfg = write_config(tmp_path, TINY_CONFIGS["large-k"])
        code = textwrap.dedent("""
            import os, sys
            if sys.argv[3] != "unset":
                os.environ["OPENBLAS_NUM_THREADS"] = sys.argv[3]
            entry = sys.argv[4]
            sys.argv = ["autocov-spectra", "large-k", sys.argv[1], "--output-dir", sys.argv[2]]
            try:
                exec(entry)
            except SystemExit as exc:
                status = exc.code
            import hashlib
            from autocov_spectra import linalg
            counts = linalg.blas_thread_counts()
            print(status in (0, 2), all(c == 1 for c in counts.values()),
                  os.environ.get("OPENBLAS_NUM_THREADS"),
                  sys.modules.get("_hashlib") is None, hashlib.sha256(b"").hexdigest())
        """)
        return _fresh_process_output(code, cfg, tmp_path / "out", caller_threads or "unset",
                                     entry)

    @pytest.mark.parametrize("caller_threads", [None, "2"], ids=["unset", "2"])
    def test_cli_process_loads_openblas_at_one_thread(self, tmp_path, caller_threads):
        # Run as a program, the CLI loads numpy with OPENBLAS_NUM_THREADS=1:
        # cli.run's pin then restores one thread, not the caller's count. The
        # variable itself is back to the caller's value afterwards. OpenSSL's
        # _hashlib is never loaded, and hashlib still hashes, in built-in code.
        out = self._run_entry(
            tmp_path, caller_threads,
            "import runpy; runpy.run_module('autocov_spectra.cli', run_name='__main__')")
        assert out == f"True True {caller_threads} True {SHA256_OF_NOTHING}"

    @pytest.mark.parametrize("caller_threads", [None, "2"], ids=["unset", "2"])
    def test_console_script_loads_openblas_at_one_thread(self, tmp_path, caller_threads):
        # The console script's entry runs the same start-up before numpy loads.
        out = self._run_entry(tmp_path, caller_threads, CONSOLE_SCRIPT[1])
        assert out == f"True True {caller_threads} True {SHA256_OF_NOTHING}"

    @pytest.mark.skipif(importlib.util.find_spec("_hashlib") is None,
                        reason="this Python has no OpenSSL _hashlib to load")
    def test_library_import_of_numpy_random_still_loads_openssl(self):
        # Only start() blocks _hashlib: a process that never calls it loads
        # OpenSSL through numpy.random's secrets, as before.
        assert _fresh_process_output(
            "import sys, numpy.random, autocov_spectra.cli; "
            "print(sys.modules.get('_hashlib') is not None)") == "True"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the trim threshold is fixed through glibc's mallopt")
    def test_lsv_tail_trials_keep_their_heap_top(self):
        # glibc's trim threshold stays at 128 KiB once the mmap threshold is
        # fixed, and each trial's heap top was then given back to the OS and
        # faulted in again, about 65 minor faults per trial. A 5-trial run
        # first grows the heap to its working size; the trials run serially,
        # in this process, so getrusage sees them all.
        code = textwrap.dedent("""
            import resource
            from autocov_spectra import startup
            startup.start()
            from autocov_spectra import experiments
            from autocov_spectra.ensembles import EnsembleSpec

            experiments.usable_cpus = lambda: 1
            spec = EnsembleSpec(n=100, N=100, k=1, master_seed=1)
            experiments.lsv_tail_experiment(experiments.ExperimentConfig(spec, trials=5), 1.0)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            experiments.lsv_tail_experiment(experiments.ExperimentConfig(spec, trials=50), 1.0)
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
        """)
        assert float(_fresh_process_output(code)) <= 5

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the mmap threshold is pinned through glibc's mallopt")
    @pytest.mark.parametrize("started", [True, False], ids=["started", "not-started"])
    def test_freed_large_arrays_go_back_to_the_os(self, started):
        # A 4 MiB array allocated and freed twice. After start-up both are
        # mmapped and unmapped. Without it glibc raises its mmap threshold when
        # the first is freed, and the second stays on the heap, resident.
        code = textwrap.dedent("""
            import sys
            if sys.argv[1] == "True":
                from autocov_spectra import startup
                startup.start()
            import numpy as np

            def resident_kib():
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) for line in fh
                                if line.startswith("VmRSS:"))

            before = resident_kib()
            for _ in range(2):
                a = np.ones(1 << 18, dtype=complex)
                del a
            print(resident_kib() - before)
        """)
        grown_kib = int(_fresh_process_output(code, started))
        if started:
            assert abs(grown_kib) <= 1024
        else:
            assert grown_kib >= 3 * 1024
