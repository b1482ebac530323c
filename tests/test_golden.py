"""Committed digests of the CLI's outputs: a run that changes an output byte
fails here, not only in a by-hand comparison with the parent commit.

golden.json holds, for each TINY_CONFIGS entry run in-process with 1 and 2
usable CPUs, the exit status, the stderr and a sha256 of each output file
(its runs block), and the same for the benchmark's workload configs at 1, 2
and 3 usable CPUs (its workloads block). The manifest is hashed without
started, finished and environment, which differ from run to run. The bytes
depend on numpy and its BLAS, so the file records both (as cli._environment
names them), and the test compares only under that environment and skips,
saying why, under any other.

Tier-1 checks the runs block. A change that moves an output on purpose
rewrites it in the same diff, so review sees which digests moved:

    PYTHONPATH=src python tests/test_golden.py

The workloads (perfbench/workloads.py, each at workload seed 1) take about
10 s, so tier-1 leaves them out. Check them against the file, or record
them, with

    PYTHONPATH=src python tests/test_golden.py --workloads [--write]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest
from test_cli import TINY_CONFIGS

from autocov_spectra import cli, experiments

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "golden.json")
WORKERS = (1, 2)
WORKLOAD_WORKERS = (1, 2, 3)
# Manifest keys that differ between identical runs.
VOLATILE = ("started", "finished", "environment")


def environment() -> dict:
    """What the output bytes depend on besides the source: numpy and its BLAS."""
    env = cli._environment()
    return {"numpy": env["numpy"], "numpy_blas": env["numpy_blas"]}


def digest(subcommand: str, workers: int, config: dict | None = None) -> dict:
    """Exit status, stderr and {file name: sha256} of one in-process run of
    config, TINY_CONFIGS[subcommand] by default, with
    experiments.usable_cpus() = workers."""
    usable, err = experiments.usable_cpus, io.StringIO()
    experiments.usable_cpus = lambda: workers
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "config.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(TINY_CONFIGS[subcommand] if config is None else config, fh)
            out = os.path.join(tmp, "out")
            with contextlib.redirect_stderr(err):
                status = cli.run(subcommand, cfg, output_dir=out)
            outputs = {}
            for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
                with open(os.path.join(out, name), "rb") as fh:
                    data = fh.read()
                if name == "manifest.json":
                    manifest = {key: value for key, value in json.loads(data).items()
                                if key not in VOLATILE}
                    data = json.dumps(manifest, sort_keys=True).encode()
                outputs[name] = hashlib.sha256(data).hexdigest()
    finally:
        experiments.usable_cpus = usable
    return {"status": status, "stderr": err.getvalue(), "outputs": outputs}


@pytest.fixture(scope="module")
def recorded():
    with open(GOLDEN, encoding="utf-8") as fh:
        data = json.load(fh)
    here = environment()
    if data["environment"] != here:
        pytest.skip(f"golden.json was recorded under {data['environment']}; this run has "
                    f"{here}, whose output bytes may differ, so nothing is compared")
    return data["runs"]


def test_golden_covers_every_tiny_config():
    with open(GOLDEN, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    assert {sub: sorted(by_workers) for sub, by_workers in runs.items()} == {
        sub: [str(w) for w in WORKERS] for sub in TINY_CONFIGS}


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("subcommand", TINY_CONFIGS)
def test_outputs_match_the_committed_digests(recorded, subcommand, workers):
    assert digest(subcommand, workers) == recorded[subcommand][str(workers)]


def workload_digests() -> dict:
    """{workload: {workers: digest}} of the benchmark's workload configs,
    read from perfbench/workloads.py, at each of WORKLOAD_WORKERS."""
    sys.path.insert(0, os.path.join(os.path.dirname(TESTS), "perfbench"))
    from workloads import WORKLOADS

    return {name: {str(w): digest(workload.subcommand, w, workload.config(1))
                   for w in WORKLOAD_WORKERS} for name, workload in WORKLOADS.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Record or check golden.json's digests.")
    parser.add_argument("--workloads", action="store_true",
                        help="check the workload configs against the workloads block")
    parser.add_argument("--write", action="store_true",
                        help="with --workloads: record the workloads block instead")
    args = parser.parse_args(argv)
    if args.write and not args.workloads:
        parser.error("--write goes with --workloads; without it the runs block is rewritten")
    with open(GOLDEN, encoding="utf-8") as fh:
        data = json.load(fh)
    if not args.workloads:
        if data["environment"] != environment():
            data.pop("workloads", None)  # recorded under the old environment
        runs = {sub: {str(w): digest(sub, w) for w in WORKERS} for sub in TINY_CONFIGS}
        data = {**data, "environment": environment(), "runs": runs}
    else:
        if data["environment"] != environment():
            print(f"golden.json was recorded under {data['environment']}; this run has "
                  f"{environment()}, so nothing is compared or recorded", file=sys.stderr)
            return 1
        got = workload_digests()
        if not args.write:
            recorded = data.get("workloads", {})
            moved = [f"{name} at {w} workers" for name, by_workers in got.items()
                     for w, value in by_workers.items()
                     if recorded.get(name, {}).get(w) != value]
            for line in moved:
                print(f"differs from golden.json: {line}", file=sys.stderr)
            print(f"{len(moved)} of {sum(map(len, got.values()))} workload runs differ",
                  file=sys.stderr)
            return 1 if moved else 0
        data["workloads"] = got
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
