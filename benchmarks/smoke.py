#!/usr/bin/env python3
"""Smoke test of the benchmark itself; takes about a minute.

    python3 benchmarks/smoke.py

It checks that:

* ``BENCHMARK.json`` matches the definitions in ``run.py``;
* every workload runs at a tiny size with every gate passing, and emits
  exactly the end-to-end metrics untraced and the per-layer metrics traced,
  with ``trace.gap_frac`` within ``run.GAP_LIMIT``;
* moving any job's reference value makes that job's gate fail;
* the tracer restores every entry point it wrapped and reports an entry point
  that does not exist as zero calls.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402
from ghzverify import protocol, simnet  # noqa: E402


def check_spec():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.spec(), "BENCHMARK.json is stale: run benchmarks/run.py --write-spec"


def check_workload_runs(name: str):
    for trace in (False, True):
        out = run.run_workload(name, seed=3, seconds=0.0, trace=trace, tiny=True)
        result = out["result"]
        assert result["correct"] and result["failed"] == 0, (name, trace, out["failures"])
        assert result["attempted"] >= 2 * len(out["record"]["job_share"]), (name, result)
        names = [n for n, *_ in run.metric_table(name, trace)]
        assert list(result["metrics"]) == names, (name, trace, sorted(result["metrics"]))
        for metric, m in result["metrics"].items():
            assert math.isfinite(m["value"]), (name, metric, m)
        if trace:
            gap = result["metrics"]["trace.gap_frac"]["value"]
            assert gap <= run.GAP_LIMIT, f"{name}: trace.gap_frac {gap} above {run.GAP_LIMIT}"
        else:
            assert all(result["metrics"][n]["value"] > 0 for n in names), (name, result)


def shifted(expect: dict) -> dict:
    return {k: v - 0.5 if isinstance(v, float) else v for k, v in expect.items()}


def check_gates_trip(name: str):
    with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp:
        workload = workloads.build(name, 5, Path(tmp), tiny=True)
        for job in workload.jobs:
            out = job.run()
            assert job.check(out, job.expect) == [], (name, job.name)
            assert any(isinstance(v, float) for v in job.expect.values()), (name, job.name)
            assert job.check(out, shifted(job.expect)), f"{name}/{job.name}: wrong reference passed"


def check_tracer_resolution():
    original_round, original_rng = protocol.run_round, simnet.round_rng
    tracer = spans.Tracer()
    saved = spans.METHODS
    spans.METHODS = saved + (("protocol", "NoSuchClass", "method", "protocol.missing"),
                             ("nosuchlayer", "X", "y", "nosuchlayer.z"))
    try:
        tracer.install()
        assert simnet.run_round is not original_round and simnet.round_rng is not original_rng
        simnet.round_rng(1, 2)
        tracer.uninstall()
    finally:
        spans.METHODS = saved
    assert simnet.run_round is original_round and protocol.run_round is original_round
    assert simnet.round_rng is original_rng
    totals = tracer.collect()
    assert totals.calls["protocol.round_rng"] == 1 and totals.calls.get("protocol.missing", 0) == 0


def main() -> int:
    run.RUN_DIR.mkdir(exist_ok=True)
    check_spec()
    check_tracer_resolution()
    for name, _ in run.WORKLOADS + run.EXTRA_WORKLOADS:
        check_gates_trip(name)
        check_workload_runs(name)
        print(f"ok {name}", flush=True)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
