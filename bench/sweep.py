"""Run every workload over seeds 1-10 and record medians and quartiles.

    python3 bench/sweep.py --out bench/trajectory/BENCH_1.json

Each seed is one untraced run of bench/run.py, as long as BENCHMARK.json's
run_seconds; one traced run per workload adds the per-layer numbers.  The
spread of a metric is the distance between the first and third quartile of
its per-seed values, as a share of their median, the same figure the
benchmark's bounds are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(1, 11)


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["report"] = done.stdout.strip().splitlines()[:-1]
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = {"machine": run.machine(), "seconds": seconds, "seeds": [SEEDS[0], SEEDS[-1]], "workloads": {}}
    for workload in workloads.WORKLOADS:
        results = [bench_run(workload, seed, seconds, 0) for seed in SEEDS]
        failed = sum(r["failed"] for r in results)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in results]) for name in results[0]["metrics"]}
        for name, summary in metrics.items():
            print(f"{workload} {name}: median {summary['median']:.6g}, spread {summary['spread']:.4f}", flush=True)
        traced = bench_run(workload, SEEDS[0], seconds, 1)
        out["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed + traced["failed"],
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "end_to_end": metrics,
            "reports": {seed: r["report"] for seed, r in zip(SEEDS, results)},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
