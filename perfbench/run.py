#!/usr/bin/env python3
"""End-to-end benchmark of the autocov-spectra CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory, never from an installed copy.

--trace 0 measures end to end. It runs the workload's subcommand in a fresh
process, one at a time, until the runs add up to S seconds (a closed loop
with one client), and times a fresh interpreter that only imports the CLI and
loads the config (set-up) before each run, at least SETUP_REPEATS times in
all. Each run's outputs are checked after its timer stops.

--trace 1 runs the subcommand in this process twice, untraced and then with
every layer's public functions wrapped (see tracing.py), and once more in a
fresh process with one BLAS thread as ungated context.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics of the chosen mode. Earlier lines and a record under
.perfbench_out/results/ carry the environment, every sample and every check.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

# workloads.py and tracing.py import numpy, so they are imported inside the
# functions below: only after __main__ has removed the BLAS thread variables.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Removed from the environment so BLAS runs at the machine default, as a
# user's would, and so no AUTOCOV_* variable overrides the generated config.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "GOTO_NUM_THREADS")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

SETUP_CODE = ("import sys, autocov_spectra.cli as cli; "
              "cli.validate_keys(sys.argv[2], cli.load_config(sys.argv[1])); "
              "print(cli.__file__)")

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "linalg.eigenvalues.calls": "count",
    "linalg.eigenvalues.self_s": "s",
    "linalg.eigenvalues.cpu_s": "s",
    "linalg.eigenvalues.work_n3": "count",
    "linalg.eigenvalues.distinct_ratio": "ratio",
    "linalg.singular_values.calls": "count",
    "linalg.singular_values.self_s": "s",
    "linalg.singular_values.cpu_s": "s",
    "linalg.singular_values.work_n3": "count",
    "linalg.singular_values.distinct_ratio": "ratio",
    "limit_law.radial_cdf.calls": "count",
    "limit_law.radial_cdf.points": "count",
    "limit_law.radial_cdf.self_s": "s",
    "ensembles.sample_entry_matrix.calls": "count",
    "ensembles.sample_entry_matrix.self_s": "s",
    "ensembles.sample_entry_matrix.distinct_ratio": "ratio",
    "ensembles.build_autocov.calls": "count",
    "ensembles.build_autocov.self_s": "s",
    "fixed_point.solve_s.calls": "count",
    "fixed_point.solve_s.self_s": "s",
    "fixed_point.empirical_resolvent_trace.self_s": "s",
    "experiments.self_s": "s",
    "experiments.ks_statistic.calls": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "linalg.self_s": "s",
    "ensembles.self_s": "s",
    "limit_law.self_s": "s",
    "fixed_point.self_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.bookkeeping_s": "s",
    "trace.layer_share": "ratio",
    "baseline.single_thread_run_s": "s",
}


class ProgramMissing(Exception):
    """The checkout does not hold the program's source."""


def child_env(blas_threads: int | None = None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_THREAD_VARS and not k.startswith("AUTOCOV_")}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def spawn(argv: list[str], env: dict, log_prefix: Path) -> dict:
    """Run one child to completion; wall time, its own rusage, status, output."""
    with open(f"{log_prefix}.out", "w+") as out, open(f"{log_prefix}.err", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be a
            # running maximum over every child reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0, "status": proc.returncode,
                "stdout": out.read(), "stderr": err.read()}


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def cli_argv(subcommand: str, config_path: Path, out_dir: Path) -> list[str]:
    return [sys.executable, "-m", "autocov_spectra.cli", subcommand, str(config_path),
            "--output-dir", str(out_dir)]


def measure_setup(workload, config_path: Path, log_prefix: Path) -> tuple[float, str | None]:
    """One fresh-interpreter import of the CLI plus config load: (wall, failure)."""
    child = spawn([sys.executable, "-c", SETUP_CODE, str(config_path), workload.subcommand],
                  child_env(), log_prefix)
    if child["status"] != 0 or child["stdout"].strip() != str(SRC / "autocov_spectra" / "cli.py"):
        return child["wall_s"], (f"{log_prefix.name}: status {child['status']}, imported "
                                 f"{child['stdout'].strip()!r}: {child['stderr'].strip()[-400:]}")
    return child["wall_s"], None


def measure(workload, config: dict, config_path: Path, seconds: float, work: Path) -> dict:
    from workloads import CheckFailed, check_run

    setup_times, runs, checks, failures = [], [], [], []

    def setup_once():
        wall, failure = measure_setup(workload, config_path, work / f"setup{len(setup_times)}")
        setup_times.append(wall)
        if failure:
            failures.append(failure)

    # Set-ups are interleaved with the runs, so that their median samples
    # the whole measuring window rather than one burst at its start.
    while not runs or sum(r["wall_s"] for r in runs) < seconds:
        setup_once()
        out_dir = work / f"run{len(runs)}"
        child = spawn(cli_argv(workload.subcommand, config_path, out_dir), child_env(), out_dir)
        # The timer has stopped: everything below is outside the timed region.
        runs.append({k: child[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "status")})
        try:
            checks.append(check_run(workload, str(out_dir), config, child["status"],
                                    child["stderr"]))
            shutil.rmtree(out_dir)
        except CheckFailed as exc:
            failures.append(f"run {len(runs) - 1}: {exc}")
    while len(setup_times) < SETUP_REPEATS:
        setup_once()
    metrics = {
        "run_s": median([r["wall_s"] for r in runs]),
        "cpu_s": median([r["cpu_s"] for r in runs]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
        "setup_s": median(setup_times),
    }
    return {"metrics": metrics, "units": END_TO_END, "attempted": len(setup_times) + len(runs),
            "failures": failures, "setup_s_samples": setup_times, "runs": runs,
            "checks": checks}


def run_in_process(cli, subcommand: str, config_path: Path, out_dir: Path) -> dict:
    """cli.main in this process; a raised exception is reported as a traceback."""
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            status = cli.main([subcommand, str(config_path), "--output-dir", str(out_dir)])
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            status = 1
    return {"wall_s": time.perf_counter() - t0, "status": status, "stderr": err.getvalue()}


def same_outputs(a: Path, b: Path, names) -> bool:
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def trace(workload, config: dict, config_path: Path, work: Path, record_path: Path) -> dict:
    from tracing import LAYERS, Tracer, summarize
    from workloads import CheckFailed, check_run

    import autocov_spectra.cli as cli

    failures, checks, runs = [], [], {}
    plain_dir, traced_dir, single_dir = work / "untraced", work / "traced", work / "single"
    runs["untraced"] = run_in_process(cli, workload.subcommand, config_path, plain_dir)
    tracer = Tracer()
    with tracer:
        runs["traced"] = run_in_process(cli, workload.subcommand, config_path, traced_dir)
    runs["single_thread"] = spawn(cli_argv(workload.subcommand, config_path, single_dir),
                                  child_env(blas_threads=1), single_dir)
    for label, out_dir in (("untraced", plain_dir), ("traced", traced_dir),
                           ("single_thread", single_dir)):
        try:
            checks.append(check_run(workload, str(out_dir), config, runs[label]["status"],
                                    runs[label]["stderr"]))
        except CheckFailed as exc:
            failures.append(f"{label}: {exc}")
    if not failures and not same_outputs(plain_dir, traced_dir, workload.outputs):
        failures.append("traced run's outputs differ from the untraced run's")

    summary = summarize(tracer.spans)
    traced_s, untraced_s = runs["traced"]["wall_s"], runs["untraced"]["wall_s"]
    inner_layers = [layer for layer in LAYERS if layer != "cli"]
    summary.update({
        "cli.output_bytes": sum(p.stat().st_size for p in traced_dir.iterdir()),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
        # Share of the traced run's time, less the tracer's own, spent below the CLI.
        "trace.layer_share": sum(summary[f"{layer}.self_s"] for layer in inner_layers)
        / (traced_s - summary["trace.bookkeeping_s"]),
        "baseline.single_thread_run_s": runs["single_thread"]["wall_s"],
    })
    tracer.write(str(record_path.with_suffix(".spans.jsonl")))
    metrics = {name: float(summary.get(name, 0.0)) for name in PER_LAYER}
    for r in runs.values():
        r.pop("stdout", None)
    return {"metrics": metrics, "units": PER_LAYER, "attempted": len(runs),
            "failures": failures, "runs": runs, "checks": checks}


def blas_threads() -> dict:
    """Effective thread count of every OpenBLAS loaded in this process."""
    import ctypes

    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if path.startswith("/") and "openblas" in os.path.basename(path):
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.argtypes, getter.restype = [], ctypes.c_int
                out[os.path.basename(path)] = getter()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    def blas_info(mod) -> dict:
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(str(SRC / "**" / "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        digest.update(Path(path).read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_info(numpy),
        "scipy_blas": blas_info(scipy),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS, write_config

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "autocov_spectra" / "cli.py").is_file():
        raise ProgramMissing(f"no program source at {SRC / 'autocov_spectra'}")
    sys.path.insert(0, str(SRC))
    import autocov_spectra

    if Path(autocov_spectra.__file__).resolve().parent != (SRC / "autocov_spectra").resolve():
        raise ProgramMissing(f"autocov_spectra imported from {autocov_spectra.__file__}")

    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record_path = OUT / "results" / f"{tag}.json"
    config_path = work / "config.json"
    write_config(str(config_path), config)

    if args.trace:
        result = trace(workload, config, config_path, work, record_path)
    else:
        result = measure(workload, config, config_path, args.seconds, work)
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "config": config,
              "environment": environment(), **result}
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not result["failures"]:
        shutil.rmtree(work)

    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({"runs": result["runs"], "checks": result["checks"],
                      "failures": result["failures"]}))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    # Before numpy loads: BLAS reads its thread settings once, at load time.
    for var in BLAS_THREAD_VARS:
        os.environ.pop(var, None)
    try:
        sys.exit(main())
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
