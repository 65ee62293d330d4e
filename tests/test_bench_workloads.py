"""Every job of the benchmark's listed workloads, built at full size, runs
once through its gate with no failure, so a change that breaks a call the
benchmark makes into the package fails here.

``benchmarks/workloads.py`` is loaded by path; ``benchmarks/run.py`` is not
imported, since importing it sets thread-count environment variables."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 20161115)  # the benchmark's default and held-out seeds

_spec = importlib.util.spec_from_file_location(
    "bench_workloads", ROOT / "benchmarks" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
# registered before running, so that its dataclasses can find their module
sys.modules[_spec.name] = workloads
_spec.loader.exec_module(workloads)

LISTED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", LISTED)
def test_every_job_of_a_listed_workload_passes_its_gate(name, seed, tmp_path):
    workload = workloads.build(name, seed, tmp_path)
    assert workload.jobs
    for job in workload.jobs:
        assert job.check(job.run(), job.expect) == [], job.name
