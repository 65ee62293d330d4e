"""Interleaved A/B runs of the benchmark on two source trees.

    python3 scripts/bench_ab.py BASE_TREE CHANGE_TREE --workload honest-scale \
        --seed 1 --pairs 10 --label validation

Each pair runs ``benchmarks/run.py`` once in each tree, one after the other;
even pairs run the base tree first and odd pairs the change tree, so a slow
phase of the machine does not always fall on the same side.  Both trees run
the benchmark code of their own checkout with the same workload and seed,
for the ``run_seconds`` of the base tree's ``BENCHMARK.json``.  The script
changes no machine setting.

``BENCH_<label>.json`` holds one entry per workload and seed: every run's
metrics, each side's median and quartiles per metric and share of failed
operations and, for each end-to-end metric of ``BENCHMARK.json``, how many
pairs the change won (ties count for neither side) and whether that shows a
gain: at least ten pairs, a win in at least nine tenths of them, medians
further apart than the base runs' interquartile range, every change run
correct and no larger share of failed operations than the base.  An
existing file of the same label keeps its other entries, and the file is
rewritten after every run, so an interrupted measurement keeps the runs it
finished; the summary covers the completed pairs.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("base", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; its last stdout line is the result."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} in {tree} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def describe(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def summarize(runs: dict, end_to_end: list[dict]) -> dict:
    """Per-metric medians and quartiles of both sides, and the pair wins of
    the change on each end-to-end metric.  ``runs`` holds whole pairs."""
    pairs = len(runs["base"])
    stats = {name: {side: describe([r["metrics"][name] for r in runs[side]]) for side in SIDES}
             for name in sorted(runs["base"][0]["metrics"])}
    failed = {side: failed_share(runs[side]) for side in SIDES}
    sound = all(r["correct"] for r in runs["change"]) and failed["change"] <= failed["base"]
    wins = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        won = 0
        for b, c in zip(runs["base"], runs["change"]):
            vb, vc = b["metrics"][name], c["metrics"][name]
            won += (vc < vb) if lower else (vc > vb)
        base, change = stats[name]["base"], stats[name]["change"]
        gap = base["median"] - change["median"] if lower else change["median"] - base["median"]
        wins[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "pairs": pairs,
            "change_wins": won,
            "median_change_frac": change["median"] / base["median"] - 1.0,
            "gain_shown": (sound and pairs >= 10 and won >= 0.9 * pairs
                           and gap > base["q3"] - base["q1"]),
        }
    return {"pairs": pairs, "failed_share": failed, "metrics": stats, "end_to_end": wins}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = args.out_dir / f"BENCH_{args.label}.json"
    doc = json.loads(out.read_text()) if out.exists() else {"label": args.label, "entries": {}}
    doc["environment"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "note": "benchmarks/run.py caps BLAS and OpenMP at one thread",
    }
    entry = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
             "runs": {side: [] for side in SIDES}}
    doc["entries"][f"{args.workload}/seed={args.seed}"] = entry
    trees = dict(zip(SIDES, (args.base, args.change)))
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            run = run_once(trees[side], args.workload, args.seed, seconds)
            run["pair"], run["first"] = pair, side == order[0]
            entry["runs"][side].append(run)
            if side == order[1]:
                entry["summary"] = summarize(entry["runs"], spec["end_to_end"])
            out.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"pair {pair} {side}: wall_s {run['metrics']['wall_s']} "
                  f"correct {run['correct']} failed {run['failed']}", flush=True)
    for name, w in entry["summary"]["end_to_end"].items():
        print(f"{name:14s} change wins {w['change_wins']}/{w['pairs']} "
              f"median {w['median_change_frac']:+.1%} gain shown {w['gain_shown']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
